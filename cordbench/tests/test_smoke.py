"""One-unit runs of every workload, end to end (about 100 s in total).

Each run goes through ``run.py`` exactly as the benchmark is driven and
checks the result line: outputs correct, the expected number of
operations attempted, none failed at this seed, every metric present
and positive, and a stable ``sim_digest`` printed in the header.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from cordbench.run import END_TO_END

ROOT = Path(__file__).resolve().parents[2]

#: Operations one unit attempts: runs (paper) or jobs (service).
OPS_PER_UNIT = {
    "paper-splash2": 12 * 12,
    "service-remote": 2 * 17,
}


def _run(workload, seed=1, trace=0):
    proc = subprocess.run(
        [sys.executable, "cordbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(OPS_PER_UNIT))
def test_one_unit(workload):
    header, result = _run(workload)
    assert result["correct"], header
    assert result["attempted"] == OPS_PER_UNIT[workload]
    assert result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _unit in END_TO_END}
    for name, unit in END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
    digests = [line for line in header if line.startswith("# sim_digest:")]
    assert len(digests) == 1 and len(digests[0].split()) == 3


def test_traced_paper_reports_every_layer():
    from cordbench.tracing import LAYER_METRICS

    header, result = _run("paper-splash2", trace=1)
    assert result["correct"], header
    metrics = result["metrics"]
    assert set(metrics) == {name for name, _u, _b in LAYER_METRICS}
    # Layers that ran in forked supervisor children come home.
    for name in ("engine.record_s", "detectors.vector_s", "cord.unfused_s",
                 "pipeline.analyze_s", "supervisor.tasks"):
        assert metrics[name]["value"] > 0, name
    # No service work in this workload.
    assert metrics["pool.leases"]["value"] == 0
    assert 0 <= metrics["unattributed_frac"]["value"] < 0.2
