"""Harness behaviour that needs no workload run."""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from cordbench import run
from cordbench.workloads import (WORKLOADS, PaperSplash2, ServiceRemote,
                                 _soundness_violated, service_specs)

ROOT = Path(__file__).resolve().parents[2]


def test_scrub_removes_every_repro_knob_and_nothing_else():
    environ = {"REPRO_JOBS": "4", "REPRO_FSYNC": "0", "REPRO_NO_NUMPY": "1",
               "PATH": "/bin", "REPROX": "kept", "CORD_BENCH_RUNS": "3"}
    removed = run.scrub_environment(environ)
    assert removed == ["REPRO_FSYNC", "REPRO_JOBS", "REPRO_NO_NUMPY"]
    assert environ == {"PATH": "/bin", "REPROX": "kept",
                       "CORD_BENCH_RUNS": "3"}


def test_scrub_covers_every_knob_the_program_reads():
    # Every REPRO_* name in the sources is a knob the scrub must remove.
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        for token in path.read_text().replace('"', " ").split():
            if token.startswith("REPRO_") and token.rstrip(",):").isupper():
                names.add(token.rstrip(",):"))
    assert len(names) >= 28
    environ = dict.fromkeys(names, "1")
    run.scrub_environment(environ)
    assert environ == {}


def test_session_sees_scrubbed_defaults(tmp_path):
    # The effective settings echoed in the header are the defaults.
    code = ("import json, os; os.environ['REPRO_FSYNC'] = '0';"
            "from cordbench import run; run.scrub_environment(os.environ);"
            "from cordbench.session import effective_settings;"
            "print(json.dumps(effective_settings(2)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": "%s/src:%s" % (ROOT, ROOT),
                              "PATH": "/usr/bin:/bin"})
    settings = json.loads(out.stdout)
    assert settings["fsync"] is True
    assert settings["repro_env"] == []
    assert settings["scheduler"] == "auto"


def test_units_are_whole_and_at_least_one():
    assert PaperSplash2.units_for(1) == 1
    assert PaperSplash2.units_for(35) == 2
    assert ServiceRemote.units_for(1) == 1
    assert ServiceRemote.units_for(35) == 3
    assert set(WORKLOADS) == {"paper-splash2", "service-remote"}


def test_service_specs_follow_the_seed_and_cover_the_registry():
    from repro.workloads.registry import workload_names

    specs = service_specs(7)
    assert [s.workload for s in specs] == workload_names()
    assert specs == service_specs(7)
    assert {s.seed for s in specs}.isdisjoint(
        {s.seed for s in service_specs(8)})


def test_soundness_violation_is_a_report_on_a_race_free_run():
    clean = SimpleNamespace(problem={"Ideal": False, "D=1": False})
    flagged = SimpleNamespace(problem={"Ideal": False, "D=16": True})
    racy = SimpleNamespace(problem={"Ideal": True, "D=16": True})
    assert not _soundness_violated(clean, ["D=1"])
    assert _soundness_violated(flagged, ["D=16"])
    assert not _soundness_violated(racy, ["D=16"])


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "cordbench"
    bench.mkdir()
    for path in (ROOT / "cordbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "cordbench/run.py", "--workload", "paper-splash2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_paper_guard_off_fallback_matches_the_suite(tmp_path):
    # The path a soundness abort takes must compute what the suite does.
    from repro.experiments import Suite, SuiteConfig, figure10
    from repro.injection.campaign import format_campaign_report
    from repro.workloads import WorkloadParams

    config = SuiteConfig(runs_per_app=2, base_seed=3, workloads=("fft",),
                         params=WorkloadParams(scale=0.25))
    paper = PaperSplash2(ROOT, tmp_path, seed=3, jobs=1)
    paper.apps = ("fft",)
    suite, campaigns = paper._guard_off_campaigns(config, tmp_path)
    reference = Suite(config, jobs=1).campaigns()
    assert format_campaign_report(campaigns["fft"]) == \
        format_campaign_report(reference["fft"])
    assert figure10(suite).render() == figure10(Suite(config)).render()
    assert set(suite.finished_at) == {"fft"}


def test_paper_abort_without_a_violating_run_is_a_problem(tmp_path,
                                                          monkeypatch):
    # Only the soundness guard may abort the suite; a pipeline failure
    # must not pass as a counted soundness violation.
    from repro.common.errors import PipelineError
    from repro.experiments import Suite
    from cordbench import workloads

    def broken(_suite):
        raise PipelineError("1 supervised task(s) failed")

    monkeypatch.setattr(Suite, "campaigns", broken)
    monkeypatch.setattr(workloads, "PAPER_RUNS_PER_APP", 1)
    paper = PaperSplash2(ROOT, tmp_path, seed=3, jobs=1)
    paper.apps = ("fft",)
    paper.texts = []
    unit = paper.unit(0)
    assert unit.extra == {"suite_aborted": 1}
    assert unit.ok == unit.attempted == 1
    assert any("no run violates" in p and "PipelineError" in p
               for p in unit.problems)


def test_cli_oracle_fails_only_on_soundness_violations(monkeypatch):
    import repro.injection.campaign as campaign
    from repro.common.errors import SimulationError
    from cordbench.workloads import cli_report

    spec = service_specs(7)[0]

    def fake_campaign(violating):
        run = SimpleNamespace(problem={"Ideal": False, "D=16": violating})

        def run_campaign(_factory, _name, config):
            if config.check_soundness:
                raise SimulationError("detector reported a race")
            return SimpleNamespace(detector_names=["Ideal", "D=16"],
                                   runs=[run])
        return run_campaign

    monkeypatch.setattr(campaign, "run_campaign", fake_campaign(True))
    assert cli_report(spec) is None
    monkeypatch.setattr(campaign, "run_campaign", fake_campaign(False))
    with pytest.raises(SimulationError):
        cli_report(spec)


def test_pool_leases_count_only_the_traced_units(tmp_path):
    from collections import Counter

    from cordbench.tracing import Tracer, _LeaseClock

    class Pool:
        def __init__(self):
            self.stats = Counter(leases_granted=3)  # set-up's leases

        def run_tasks(self, job_id, tasks, run_local, on_result=None):
            self.stats["leases_granted"] += len(tasks)
            self.stats["tasks_requeued"] += 1

    clock = _LeaseClock(Tracer(tmp_path, "server"), Pool)
    pool = Pool()
    pool.run_tasks("job", [("a", {}), ("b", {})], None)
    assert clock.probe() == {"pool.leases": 2, "pool.reassigned": 1}
