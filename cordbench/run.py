"""End-to-end and per-layer benchmark of the CORD reproduction.

    python3 cordbench/run.py --workload paper-splash2 --seed 1 \\
        --seconds 35 --trace 0

Runs one workload (``paper-splash2`` or ``service-remote``; see
``cordbench/README.md``) at one seed and prints, as its last stdout
line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs the same units twice -- untraced, then with the layer
wrappers of :mod:`cordbench.tracing` in every process -- and reports the
per-layer metrics plus the tracing overhead.

The program runs at its defaults: every ``REPRO_*`` variable is removed
from the environment first, and the effective settings are echoed in
the output header.  All scratch state lives under ``.cordbench-work/``
in the checkout and is removed afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Whole run budget; the benchmark must end well inside 180 seconds.
BUDGET_S = 170.0
#: Worker processes: the pool never exceeds two (``nproc`` of the
#: reference host), whatever the machine offers.
MAX_JOBS = 2

END_TO_END = (
    ("setup_s", "s"),
    ("runs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_frac", "fraction"),
)


class BenchError(RuntimeError):
    """A session failed; the run prints no result."""


def scrub_environment(environ) -> list:
    """Remove every ``REPRO_*`` knob (in place); returns the names removed."""
    removed = sorted(key for key in environ if key.startswith("REPRO_"))
    for key in removed:
        del environ[key]
    return removed


def _session(args, work: Path, label: str, deadline: float, units: int,
             extra=()) -> dict:
    """Run one :mod:`cordbench.session` to completion; returns its JSON."""
    out = work / (label + ".json")
    log = work / (label + ".log")
    argv = [sys.executable, "-m", "cordbench.session",
            "--workload", args.workload, "--seed", str(args.seed),
            "--units", str(units), "--jobs", str(args.jobs),
            "--work", str(work / label), "--out", str(out),
            "--spawned-at", repr(time.monotonic())] + list(extra)
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=fh,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("session %s exceeded the time budget" % label)
        finally:
            _reap_group(proc)
    if code != 0 or not out.exists():
        tail = log.read_text(errors="replace")[-3000:]
        raise BenchError("session %s failed (exit %s):\n%s"
                         % (label, code, tail))
    return json.loads(out.read_text())


def _reap_group(proc: subprocess.Popen) -> None:
    """Kill and reap the session and anything left in its process group.

    Waits (up to 10 s) until the group is gone, so that no process of
    the run outlives it.
    """
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    try:
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.01)
    except ProcessLookupError:
        pass


def _ops(units):
    """Operations attempted and failed over the units."""
    attempted = sum(unit["attempted"] for unit in units)
    return attempted, attempted - sum(unit["ok"] for unit in units)


def _unit_checks(units) -> list:
    """Per-unit problems, plus: every unit computed the same results."""
    problems = [p for unit in units for p in unit["problems"]]
    digests = {unit["digest"] for unit in units}
    if len(digests) != 1:
        problems.append("sim_digest differs across units: %s"
                        % sorted(digests))
    return problems


def end_to_end(args, work, deadline, workload_cls, units):
    from cordbench.metrics import job_summary

    # Extra set-ups run half before and half after the measured
    # session, so that their median samples the host across the run.
    extra = workload_cls.setup_repeats - 1
    setups = []

    def setup_only(index):
        setups.append(_session(args, work, "setup%d" % index, deadline,
                               units, ["--setup-only"])["setup_s"])

    for index in range(extra // 2):
        setup_only(index)
    full = _session(args, work, "run", deadline, units)
    setups.append(full["setup_s"])
    for index in range(extra // 2, extra):
        setup_only(index)
    done = full["units"]
    jobs = job_summary([s for unit in done for s in unit["job_s"]])
    attempted, failed = _ops(done)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        # Over the whole run, not a median of units: the host switches
        # between fast and slow phases of about the length of a few
        # units, and a total averages them where a median picks one.
        "runs_per_s": (sum(unit["runs"] for unit in done)
                       / sum(unit["wall_s"] for unit in done)),
        "job_p50_s": jobs["p50"],
        "job_tail_s": jobs["tail"],
        "peak_rss_mb": rss_kb / 1024.0,
        "ops_ok_frac": (attempted - failed) / attempted,
    }
    header = [
        "settings: %s" % json.dumps(full["settings"], sort_keys=True),
        "units: %d  walls_s: %s" % (
            len(done), " ".join("%.3f" % u["wall_s"] for u in done)),
        "setup_s samples: %s" % " ".join("%.3f" % s for s in setups),
        "jobs: n=%d  p50=%.4fs  tail=p%d %.4fs" % (
            jobs["n"], jobs["p50"], jobs["tail_pct"], jobs["tail"]),
        "sim_digest: %s" % " ".join(unit["digest"] for unit in done),
    ] + ["job_s unit %d: %s" % (i, " ".join("%.4f" % s for s in u["job_s"]))
         for i, u in enumerate(done)]
    if full["setup_notes"]:
        header.append("setup notes: %s" % json.dumps(
            full["setup_notes"], sort_keys=True))
    for unit in done:
        if unit.get("extra"):
            header.append("unit notes: %s" % json.dumps(unit["extra"]))
    problems = _unit_checks(done) + full["problems"]
    units_out = {name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END}
    return problems, attempted, failed, units_out, header


def per_layer(args, work, deadline, workload_cls, units):
    from cordbench import metrics as m
    from cordbench.tracing import LAYER_METRICS

    plain = _session(args, work, "untraced", deadline, units)
    trace_dir = work / "traces"
    traced = _session(args, work, "traced", deadline, units,
                      ["--trace-dir", str(trace_dir)])
    docs = m.load_traces(trace_dir)
    window = traced["window"]
    wall = window[1] - window[0]
    seconds, counts = m.layer_totals(docs)
    path, unattributed = m.attribute(docs, traced["pid"], window)
    warm = [span[3] - span[2] for doc in docs for span in doc["spans"]
            if span[0] == "service.warm_roundtrip"]
    plain_wall = sum(unit["wall_s"] for unit in plain["units"])
    traced_wall = sum(unit["wall_s"] for unit in traced["units"])
    values = {}
    for name, _unit, _better in LAYER_METRICS:
        if name in counts:
            values[name] = counts[name]
        elif name.endswith("_s"):
            values[name] = seconds.get(name[:-2], 0.0)
        else:
            values[name] = 0
    record_s = seconds.get("engine.record", 0.0)
    values["engine.events_per_s"] = (
        counts.get("engine.events", 0) / record_s if record_s else 0.0)
    values["service.warm_roundtrip_s"] = (
        statistics.median(warm) if warm else 0.0)
    values["unattributed_s"] = unattributed
    values["unattributed_frac"] = unattributed / wall if wall else 0.0
    values["tracing.overhead_frac"] = traced_wall / plain_wall - 1.0
    header = ["settings: %s" % json.dumps(traced["settings"], sort_keys=True),
              "sim_digest: %s" % " ".join(
                  unit["digest"] for unit in traced["units"]),
              "per-layer self time over %d process(es); traced units "
              "%.3fs, untraced %.3fs" % (len(docs), traced_wall, plain_wall),
              "%-28s %10s %10s %7s" % ("layer", "busy_s", "path_s", "path%")]
    for layer in sorted(set(seconds) | set(path),
                        key=lambda k: -path.get(k, 0.0)):
        header.append("%-28s %10.3f %10.3f %6.1f%%" % (
            layer, seconds.get(layer, 0.0), path.get(layer, 0.0),
            100.0 * path.get(layer, 0.0) / wall if wall else 0.0))
    header.append("%-28s %10s %10.3f %6.1f%%" % (
        "(unattributed)", "", unattributed,
        100.0 * unattributed / wall if wall else 0.0))
    header.append("unattributed_frac %.4f  tracing.overhead_frac %.4f" % (
        values["unattributed_frac"], values["tracing.overhead_frac"]))
    if warm:
        header.append("warm round trips: n=%d p50=%.4fs" % (
            len(warm), statistics.median(warm)))
    problems = (_unit_checks(plain["units"])
                + _unit_checks(traced["units"])
                + plain["problems"] + traced["problems"])
    if [u["digest"] for u in plain["units"]] != \
            [u["digest"] for u in traced["units"]]:
        problems.append("traced and untraced units computed different "
                        "results")
    attempted, failed = _ops(traced["units"])
    units_out = {name: {"value": values[name], "unit": unit}
                 for name, unit, _better in LAYER_METRICS}
    return problems, attempted, failed, units_out, header


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    # Sessions run in their own process groups; on SIGTERM, unwind
    # through the ``finally`` blocks that kill and reap them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("cordbench: no program sources under %s/src; run from a "
              "checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    removed = scrub_environment(os.environ)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from cordbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("cordbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    args.jobs = max(1, min(MAX_JOBS, os.cpu_count() or 1))
    units = workload_cls.units_for(args.seconds)
    work = ROOT / ".cordbench-work" / ("%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = started + BUDGET_S
    try:
        measure = per_layer if args.trace else end_to_end
        problems, attempted, failed, metrics, header = measure(
            args, work, deadline, workload_cls, units)
    except BenchError as exc:
        print("cordbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".cordbench-work").rmdir()
        except OSError:
            pass
    print("# cordbench %s seed=%d seconds=%g trace=%d units=%d" % (
        args.workload, args.seed, args.seconds, args.trace, units))
    print("# REPRO_* removed from the environment: %s"
          % (", ".join(removed) or "none"))
    for line in header:
        print("# " + line)
    for problem in problems:
        print("# CHECK FAILED: " + problem)
    print("# elapsed %.1fs" % (time.monotonic() - started))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
