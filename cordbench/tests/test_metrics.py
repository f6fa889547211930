"""The benchmark's statistics: tail percentile rule, job summary, attribution."""

import pytest

from cordbench.metrics import (attribute, job_summary, percentile,
                               tail_percentile)


@pytest.mark.parametrize("n", [1, 2, 12, 17, 19])
def test_tail_is_p100_below_twenty_samples(n):
    assert tail_percentile(n) == 100


@pytest.mark.parametrize("n, pct", [(20, 50), (24, 58), (34, 70), (100, 90),
                                    (1000, 99), (10000, 99)])
def test_tail_leaves_at_least_ten_samples_beyond(n, pct):
    assert tail_percentile(n) == pct
    # The rule itself: >= 10 beyond this percentile, < 10 beyond the next.
    assert n * (1 - pct / 100.0) >= 10 - 1e-9
    assert n * (1 - (pct + 1) / 100.0) < 10


def test_job_summary_reports_percentile_and_count():
    samples = [float(i) for i in range(1, 13)]
    summary = job_summary(samples)
    assert summary == {"p50": 6.5, "tail": 12.0, "tail_pct": 100, "n": 12}
    samples = [float(i) for i in range(1, 35)]
    summary = job_summary(samples)
    assert summary["tail_pct"] == 70
    assert summary["tail"] == pytest.approx(percentile(samples, 70))
    assert sum(1 for s in samples if s > summary["tail"]) >= 10


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 0) == 1.0
    assert percentile([4.0, 1.0, 3.0, 2.0], 100) == 4.0
    assert percentile([1.0, 2.0], 50) == 1.5


def _doc(pid, spans):
    return {"pid": pid, "spans": spans, "counts": {}}


def test_attribution_sums_to_wall_and_splits_parallel_children():
    session = _doc(1, [
        ("experiments.figures", "main", 0.0, 1.0, 1.0),
        ("supervisor.wait", "main", 1.0, 5.0, 4.0),
    ])
    # Two children busy for the whole wait: 8 s of work in 4 s of wall.
    children = [
        _doc(2, [("detectors.vector", "main", 1.0, 5.0, 4.0)]),
        _doc(3, [("engine.record", "main", 1.0, 3.0, 2.0),
                 ("cord.fused", "main", 3.0, 5.0, 2.0)]),
    ]
    path, unattributed = attribute([session] + children, 1, (0.0, 6.0))
    assert path["experiments.figures"] == pytest.approx(1.0)
    assert path["detectors.vector"] == pytest.approx(2.0)
    assert path["engine.record"] == pytest.approx(1.0)
    assert path["cord.fused"] == pytest.approx(1.0)
    # The last second of the window is on no span at all.
    assert unattributed == pytest.approx(1.0)
    assert sum(path.values()) + unattributed == pytest.approx(6.0)


def test_attribution_leaves_idle_wait_unattributed():
    session = _doc(1, [("client.result", "main", 0.0, 4.0, 4.0)])
    worker = _doc(2, [("pipeline.record", "main", 1.0, 2.0, 1.0),
                      # Half of this span lies outside the wait.
                      ("pipeline.analyze", "main", 3.0, 5.0, 2.0)])
    server = _doc(3, [("pool.run_tasks", "7", 0.0, 4.0, 4.0)])
    path, unattributed = attribute([session, worker, server], 1, (0.0, 4.0))
    assert path == pytest.approx({"pipeline.record": 1.0,
                                  "pipeline.analyze": 1.0})
    assert unattributed == pytest.approx(2.0)
