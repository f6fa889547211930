"""Summary statistics and the per-layer attribution of a traced run."""

from __future__ import annotations

import json
import math
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

from cordbench.tracing import DELEGATING

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with >= 10 of ``n`` samples beyond it.

    ``n * (1 - p/100) >= 10`` gives ``p <= 100 * (1 - 10/n)``.  Below
    20 samples even the median has fewer than ten beyond it, so the
    tail is the maximum (p100) and is reported as such.
    """
    if n < 2 * TAIL_BEYOND:
        return 100
    return int(math.floor(100.0 * (1.0 - TAIL_BEYOND / n) + 1e-9))


def job_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail of job times, with the tail's percentile and n."""
    pct = tail_percentile(len(samples))
    return {
        "p50": statistics.median(samples),
        "tail": percentile(samples, pct),
        "tail_pct": pct,
        "n": len(samples),
    }


# -- traced runs ----------------------------------------------------------------


def load_traces(trace_dir) -> List[Dict]:
    """Every process's span document from one traced session."""
    docs = []
    for path in sorted(Path(trace_dir).glob("trace-*.json")):
        docs.append(json.loads(path.read_text()))
    return docs


def layer_totals(docs: Iterable[Dict]) -> Tuple[Dict[str, float], Dict]:
    """Self seconds per layer and counters, summed over all processes."""
    seconds: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    for doc in docs:
        for layer, _thread, _start, _end, self_s in doc["spans"]:
            seconds[layer] += self_s
        for name, value in doc["counts"].items():
            counts[name] += value
    return dict(seconds), dict(counts)


def attribute(docs: Sequence[Dict], session_pid: int,
              window: Tuple[float, float]) -> Tuple[Dict[str, float], float]:
    """Split the session's wall time over the layers that used it.

    The session's main thread is the user-visible timeline.  Its own
    spans count directly (self time).  A *delegating* span on it -- the
    time it blocks on other processes (:data:`DELEGATING`) -- is handed
    to the spans that ran elsewhere during it, each weighted by the
    share of its own interval that falls inside the wait: in full when
    they add up to less than the wait (the rest is unattributed idle
    time), pro rata when parallel processes add up to more.  Delegating
    spans in other processes (a server thread waiting on a worker) are
    waits too and are skipped, so only the work itself is credited.

    Returns per-layer critical-path seconds and the unattributed rest;
    together they sum to the window's length.
    """
    start, end = window
    path: Dict[str, float] = defaultdict(float)
    waits = []
    others = []
    for doc in docs:
        on_session = doc["pid"] == session_pid
        for layer, thread, s, e, self_s in doc["spans"]:
            if e < start or s > end:
                continue
            if on_session and thread == "main":
                if layer in DELEGATING:
                    waits.append((s, e, self_s))
                else:
                    path[layer] += self_s
            elif layer not in DELEGATING:
                others.append((layer, s, e, self_s))
    others.sort(key=lambda span: span[1])
    unattributed = 0.0
    for w_start, w_end, w_self in waits:
        share: Dict[str, float] = defaultdict(float)
        for layer, s, e, self_s in others:
            if s >= w_end:
                break
            overlap = min(e, w_end) - max(s, w_start)
            if overlap <= 0 or e <= s:
                continue
            share[layer] += self_s * overlap / (e - s)
        covered = sum(share.values())
        scale = min(1.0, w_self / covered) if covered > 0 else 0.0
        for layer, seconds in share.items():
            path[layer] += seconds * scale
        unattributed += max(0.0, w_self - covered * scale)
    wall = end - start
    unattributed += max(0.0, wall - sum(path.values()) - unattributed)
    return dict(path), unattributed
