"""The benchmark workloads, driven through the program's public API.

Each workload is a set-up followed by *units*.  A unit is one whole
cycle of the workload's mix -- never cut short by a time budget -- so
every unit of a run does the same work and runs compare like for like.

``paper-splash2``
    What ``examples/reproduce_paper.py`` does on a fresh cache
    directory: a ``Suite`` over the 12 splash2 apps (12 runs each, run
    level pipeline on ``jobs`` processes), Figures 10 and 12-17,
    Figure 11 and the order-recording/replay summary.
``service-remote``
    ``cord-serve`` plus one ``cord-worker`` with a private store.  A
    closed loop (one client, one request in flight) submits one cold job
    per registered workload, each followed by a warm resubmit of the
    spec it just committed.  Each unit has a fresh deployment, so every
    unit's cold jobs are cold.
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Runs per app and workload parameters of the paper reproduction.
PAPER_RUNS_PER_APP = 12
#: The reference output of ``examples/reproduce_paper.py`` (seed 2006).
PAPER_REFERENCE = Path("docs") / "full_reproduction_output.txt"
PAPER_REFERENCE_SEED = 2006
#: The line of the reference that carries a wall time.
_WALL_LINE = "[injection campaigns over"

#: Service job spec (everything but the seed, which the run's seed draws).
#: Smaller than the submit defaults (10 runs, scale 1.0) so that a run
#: fits its time budget; see the README's service-remote section.
SERVICE_RUNS = 6
SERVICE_SCALE = 0.25


@dataclass
class UnitResult:
    """What one unit did, as the benchmark measures it."""

    wall_s: float
    runs: int
    job_s: List[float]
    attempted: int
    ok: int
    digest: str
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _run_fingerprint(run) -> tuple:
    return (run.run_index, run.seed, run.target_index, run.n_events,
            run.hung, sorted(run.flagged.items()),
            sorted(run.problem.items()),
            sorted((k, sorted(v.items())) for k, v in run.counters.items()))


def _soundness_violated(run, names) -> bool:
    """The paper's guarantee, per run: no report on a race-free run."""
    ideal = run.problem.get("Ideal", False)
    return any(run.problem.get(name) and not ideal for name in names)


class Workload:
    name = ""
    #: Nominal seconds per unit on a 2-CPU host; fixes units per run.
    nominal_unit_s = 1.0
    #: Fresh-session set-ups per run whose median is ``setup_s``.
    setup_repeats = 7

    def __init__(self, root: Path, work: Path, seed: int, jobs: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.jobs = jobs
        #: The session's tracer in a traced run (installed after set-up).
        self.tracer = None
        #: Set-up figures echoed in the output header.
        self.setup_notes: Dict[str, object] = {}
        #: Is this session only measuring set-up (no units follow)?
        self.setup_only = False

    @classmethod
    def units_for(cls, seconds: float) -> int:
        """Whole units that fill ``seconds`` at the nominal unit time."""
        return max(1, int(round(seconds / cls.nominal_unit_s)))

    def setup(self, units: int) -> None:
        """Everything before the first timed unit."""

    def setup_seconds(self, elapsed: float) -> float:
        """``setup_s`` given the session's spawn-to-ready time."""
        return elapsed

    def unit(self, index: int) -> UnitResult:
        raise NotImplementedError

    def verify(self) -> List[str]:
        """Untimed checks after the units; returns problems found."""
        return []

    def close(self) -> None:
        """Stop whatever set-up started."""

    def fresh_dir(self, label: str) -> Path:
        path = self.work / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


# -- paper-splash2 ----------------------------------------------------------------


class PaperSplash2(Workload):
    name = "paper-splash2"
    nominal_unit_s = 17.0

    def setup(self, units: int) -> None:
        # Imports plus the lazy set-up a first unit would pay: pool
        # start-up, store and journal creation, the kernels' numpy
        # imports, the figure and replay paths -- on a one-run campaign.
        from repro.experiments import Suite, SuiteConfig, figure10
        from repro.experiments import figure11, order_recording_summary
        from repro.workloads import WorkloadParams
        from repro.workloads.registry import workload_names

        self.apps = tuple(workload_names("splash2"))
        tiny = SuiteConfig(runs_per_app=1, base_seed=self.seed,
                           workloads=("fft",),
                           params=WorkloadParams(scale=0.25))
        suite = Suite(tiny, jobs=self.jobs, cache_dir=self.fresh_dir("warm"))
        figure10(suite).render()
        figure11(params=tiny.params, workloads=("fft",)).render()
        order_recording_summary(params=tiny.params,
                                workloads=("fft",)).render()
        self.texts = []

    def unit(self, index: int) -> UnitResult:
        from repro.common.errors import CordError
        from repro.experiments import (Suite, SuiteConfig, figure10,
                                       figure11, figure12, figure13,
                                       figure14, figure15, figure16,
                                       figure17, order_recording_summary,
                                       table1)
        from repro.injection.campaign import format_campaign_report

        cache = self.fresh_dir("unit%d" % index)
        config = SuiteConfig(runs_per_app=PAPER_RUNS_PER_APP,
                             base_seed=self.seed, workloads=self.apps)
        epoch = time.time()
        start = time.monotonic()
        suite = Suite(config, jobs=self.jobs, cache_dir=cache)
        lines = [table1().render(), ""]
        extra = {}
        aborted = None
        try:
            campaigns = suite.campaigns()
        except CordError as exc:
            # A soundness violation aborts the pipelined suite; finish
            # the unit over the same store with the guard off and count
            # the violating runs as failed (below).
            aborted = exc
            extra["suite_aborted"] = 1
            suite, campaigns = self._guard_off_campaigns(config, cache)
        for driver in (figure10, figure12, figure13, figure14, figure15,
                       figure16, figure17):
            lines += ["", driver(suite).render()]
        lines += ["", figure11(params=config.params,
                               workloads=self.apps).render()]
        lines += ["", order_recording_summary(params=config.params,
                                              workloads=self.apps).render()]
        wall = time.monotonic() - start
        text = "\n".join(lines) + "\n"
        self.texts.append(text)

        # A job ends at its campaign's durable commit: the cache entry's
        # mtime (or, after an abort, when the guard-off campaign ended).
        commits = dict(getattr(suite, "finished_at", {}))
        for entry in cache.glob("campaign-*.pkl"):
            app = entry.name[len("campaign-"):].rsplit("-", 1)[0]
            commits[app] = entry.stat().st_mtime
        problems = ["%s: no committed campaign" % app
                    for app in self.apps if app not in commits]
        names = [n for n in next(iter(campaigns.values())).detector_names
                 if n != "Ideal"]
        runs = [run for app in self.apps for run in campaigns[app].runs]
        ok = sum(1 for run in runs if not _soundness_violated(run, names))
        if aborted is not None and ok == len(runs):
            # Only a soundness violation may abort the suite; anything
            # else (a pipeline or supervisor failure) is a wrong outcome.
            problems.append("the suite aborted, but no run violates the "
                            "soundness guarantee: %s: %s"
                            % (type(aborted).__name__, aborted))
        digest = _digest(text, [format_campaign_report(campaigns[a])
                                for a in self.apps],
                         [_run_fingerprint(r) for r in runs])
        return UnitResult(wall_s=wall, runs=len(runs),
                          job_s=[commits[a] - epoch for a in self.apps
                                 if a in commits],
                          attempted=PAPER_RUNS_PER_APP * len(self.apps),
                          ok=ok, digest=digest, problems=problems,
                          extra=extra)

    def _guard_off_campaigns(self, config, cache):
        """Campaigns with the soundness guard off, checked per run.

        Returns a suite serving them to the figure drivers (which only
        read ``campaigns()``) and the campaigns themselves.  The suite's
        ``finished_at`` maps each app to the wall-clock time its
        campaign ended.
        """
        from repro.experiments import Suite
        from repro.experiments.runner import trace_namespace
        from repro.injection.campaign import CampaignConfig, run_campaign
        from repro.trace.store import PackedTraceStore
        from repro.workloads.registry import get_workload

        store = PackedTraceStore(cache / "traces")
        campaigns, finished_at = {}, {}
        for app in self.apps:
            campaigns[app] = run_campaign(
                get_workload(app).program_factory(config.params), app,
                CampaignConfig(n_runs=config.runs_per_app,
                               base_seed=config.base_seed,
                               check_soundness=False),
                trace_store=store,
                trace_namespace=trace_namespace(app, config.params))
            finished_at[app] = time.time()

        class Precomputed(Suite):
            def campaigns(self):
                return dict(campaigns)

        suite = Precomputed(config)
        suite.finished_at = finished_at
        return suite, campaigns

    def verify(self) -> List[str]:
        """At the reference seed the output must match the checked-in run."""
        if self.seed != PAPER_REFERENCE_SEED or not self.texts:
            return []
        reference = (self.root / PAPER_REFERENCE).read_text()
        want = [line for line in reference.splitlines()
                if not line.startswith(_WALL_LINE)]
        got = self.texts[0].splitlines()
        if want == got:
            return []
        diff = [line for line in difflib.unified_diff(want, got, n=0,
                                                      lineterm="")
                if line[:1] in "+-" and line[:3] not in ("+++", "---")]
        return ["seed %d output differs from %s (%d line(s) changed; "
                "first: %s)" % (self.seed, PAPER_REFERENCE, len(diff),
                                " | ".join(diff[:4]))]


# -- service-remote -------------------------------------------------------------------


def service_specs(seed: int):
    """One cold spec per registered workload, in registry order."""
    from repro.service.jobs import CampaignSpec
    from repro.workloads.registry import workload_names

    rng = random.Random("cordbench/%d" % seed)
    return [CampaignSpec(workload=name, runs=SERVICE_RUNS,
                         seed=rng.randrange(1, 2 ** 31),
                         scale=SERVICE_SCALE)
            for name in workload_names()]


def cli_report(spec) -> Optional[str]:
    """``cord-repro inject``'s stdout for ``spec``.

    None when the soundness guard fails the campaign: the service fails
    that job too, and the benchmark counts it as a failed operation.
    Any other failure propagates.
    """
    from dataclasses import replace

    from repro.common.errors import DeadlockError, SimulationError
    from repro.injection.campaign import format_campaign_report, run_campaign
    from repro.workloads.registry import get_workload

    def campaign(config):
        return run_campaign(
            get_workload(spec.workload).program_factory(
                spec.workload_params()),
            spec.workload, config)

    config = spec.campaign_config()
    try:
        return format_campaign_report(campaign(config))
    except SimulationError as exc:
        if isinstance(exc, DeadlockError):
            raise
        unguarded = campaign(replace(config, check_soundness=False))
        names = [n for n in unguarded.detector_names if n != "Ideal"]
        if not any(_soundness_violated(run, names)
                   for run in unguarded.runs):
            raise
        return None


@dataclass
class _Deployment:
    """One ``cord-serve`` and its attached ``cord-worker``."""

    server: subprocess.Popen
    worker: Optional[subprocess.Popen]
    client: object


class ServiceRemote(Workload):
    name = "service-remote"
    nominal_unit_s = 12.0
    setup_repeats = 5

    def __init__(self, *args, launcher=None, **kwargs):
        super().__init__(*args, **kwargs)
        #: argv prefix that runs a module as ``__main__`` (tracing hook).
        self.launcher = launcher or [sys.executable, "-m"]
        self.deployments: List[Optional[_Deployment]] = []

    def setup(self, units: int) -> None:
        self.entered = time.monotonic()
        if not self.setup_only:
            # The benchmark's oracle, not the service's set-up: the
            # expected report of every cold job through the CLI path.
            self.specs = service_specs(self.seed)
            started = time.monotonic()
            self.expected = [cli_report(spec) for spec in self.specs]
            self.setup_notes["oracle_s"] = time.monotonic() - started
        # Units repeat the same specs, so each unit gets its own
        # deployment (a spec the serving store has committed is warm).
        startup_s = []
        for index in range(1 if self.setup_only else units):
            deployment, seconds = self._start(index)
            startup_s.append(seconds)
            self.deployments.append(deployment)
        self.setup_notes["startup_s"] = startup_s

    def setup_seconds(self, elapsed: float) -> float:
        # Interpreter start and imports up to set-up (the oracle is not
        # counted), plus the median start-up of a deployment.
        before = elapsed - (time.monotonic() - self.entered)
        self.setup_notes["imports_s"] = before
        return before + statistics.median(self.setup_notes["startup_s"])

    def _start(self, index: int):
        """Start one deployment; returns it and its start-up seconds.

        The start-up is the server's start, one local job per workload
        family (run by the server itself while no worker is attached:
        the deterministic bulk, and the server's lazy set-up), and the
        worker's start and attach.  A last, untimed job through the
        remote path finishes the worker's lazy set-up before any unit.
        Seeds 0 and 2**31 are never drawn for a unit spec, so none of
        these jobs' store entries is shared with the units.
        """
        from repro.service.client import ServiceClient
        from repro.workloads.registry import families, workload_names

        base = self.fresh_dir("svc%d" % index)
        # Relative to the shared working directory: a unix socket path
        # is limited to about 107 bytes, and the checkout may sit deep.
        sock = os.path.relpath(base / "s.sock")
        client = ServiceClient(socket_path=sock, timeout=150.0)
        started = time.monotonic()
        deployment = _Deployment(self._spawn(
            base, ["repro.service", "serve", "--root", str(base / "server"),
                   "--socket", sock]), None, client)
        try:
            client.wait_ready(timeout=60.0, interval=0.01)
            for family in families():
                self._warm_up(client, workload_names(family)[0],
                              runs=SERVICE_RUNS, seed=0)
            deployment.worker = self._spawn(
                base, ["repro.service.workers.remote", "--root",
                       str(base / "worker"), "--socket", sock,
                       "--name", "bench"])
            deadline = time.monotonic() + 60.0
            while client.health()["workers"]["live"] < 1:
                if time.monotonic() > deadline:
                    raise RuntimeError("cord-worker did not attach")
                time.sleep(0.01)
            startup = time.monotonic() - started
            self._warm_up(client, "fft", runs=1, seed=2 ** 31)
        except BaseException:
            self._stop(deployment)
            raise
        return deployment, startup

    def _spawn(self, base: Path, argv: List[str]) -> subprocess.Popen:
        with open(base / (argv[0] + ".log"), "wb") as log:
            return subprocess.Popen(self.launcher + argv,
                                    stdout=subprocess.DEVNULL, stderr=log)

    @staticmethod
    def _warm_up(client, workload: str, runs: int, seed: int) -> None:
        reply = client.submit(workload, runs=runs, seed=seed,
                              scale=SERVICE_SCALE, tenant="setup")
        result = client.result(reply["job"]) if reply.get("ok") else reply
        if not result.get("ok"):
            raise RuntimeError("warm-up job %s failed: %r"
                               % (workload, result))

    def unit(self, index: int) -> UnitResult:
        client = self.deployments[index].client
        jobs, reports, problems = [], [], []
        ok = runs = 0
        start = time.monotonic()
        for spec, expected in zip(self.specs, self.expected):
            fields = dict(runs=spec.runs, seed=spec.seed, scale=spec.scale,
                          switch_probability=spec.switch_probability)
            cold_start = time.monotonic()
            reply = client.submit(spec.workload, tenant="cold", **fields)
            cold = client.result(reply["job"]) if reply.get("ok") else reply
            jobs.append(time.monotonic() - cold_start)
            report = cold.get("report") if cold.get("ok") else None
            with self.tracer.span("service.warm_roundtrip") \
                    if self.tracer else contextlib.nullcontext():
                reply = client.submit(spec.workload, tenant="warm", **fields)
                warm = client.result(reply["job"]) if reply.get("ok") \
                    else reply
            warm_report = warm.get("report") if warm.get("ok") else None
            # A job counts when it completed and matched: the CLI's bytes
            # for the cold one, the cold one's bytes for the warm resubmit.
            # Both failing where the CLI fails too is a counted failure
            # (the soundness guard), not a wrong output.
            if report != expected:
                problems.append("%s: cold report differs from the CLI"
                                % spec.workload)
            if warm_report != report:
                problems.append("%s: warm report differs from the cold one"
                                % spec.workload)
            if report is not None:
                runs += spec.runs
                ok += (report == expected) + (warm_report == report)
            reports.append(report)
        wall = time.monotonic() - start
        self._stop(self.deployments[index])
        self.deployments[index] = None
        return UnitResult(wall_s=wall, runs=runs, job_s=jobs,
                          attempted=2 * len(jobs), ok=ok,
                          digest=_digest(reports), problems=problems)

    def close(self) -> None:
        for deployment in self.deployments:
            if deployment is not None:
                self._stop(deployment)
        self.deployments = []

    @staticmethod
    def _stop(deployment: _Deployment) -> None:
        """Stop the worker (SIGTERM drains it), then drain the server."""
        worker = deployment.worker
        if worker is not None:
            worker.send_signal(signal.SIGTERM)
            try:
                worker.wait(timeout=30)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
        try:
            deployment.client.drain()
        except OSError:
            pass  # ServiceUnavailable: the server is gone already
        try:
            deployment.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            deployment.server.kill()
            deployment.server.wait()


WORKLOADS = {cls.name: cls for cls in (PaperSplash2, ServiceRemote)}
