"""Layer spans for the traced benchmark run, recorded from the outside.

Nothing here edits the program: :func:`install` replaces public
functions and methods with wrappers that time each call -- one wrapper
per layer boundary, never one per simulated event.  Each span records
its layer, thread, start, end and *self* time: its duration minus the
time its child spans on the same thread cover.

Every process that does work keeps its own :class:`Tracer`:

* the benchmark session installs one before it runs a unit;
* forked children (supervisor tasks) inherit the wrappers and start an
  empty buffer at fork;
* ``cord-serve`` and ``cord-worker`` are started through
  :mod:`cordbench.launch`, which installs a tracer before handing over
  to the program's ``__main__``.

Spans stay in memory.  A process writes them home, as
``trace-<pid>.json`` in the run's trace directory, when it exits -- or,
for a forked task child (which its supervisor reaps with SIGTERM right
after reading the result), when its outermost span ends.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import json
import os
import threading
import time
from collections import Counter
from pathlib import Path

#: Layers whose time is spent waiting on other processes.  On the
#: session's main thread their self time is apportioned to the spans
#: that ran elsewhere meanwhile (:func:`cordbench.metrics.attribute`).
DELEGATING = frozenset(("supervisor.wait", "client.result", "pool.run_tasks"))

#: Every per-layer metric the traced run reports: name, unit, better.
LAYER_METRICS = (
    ("engine.record_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_s", "1/s", "higher"),
    ("injection.size_s", "s", "lower"),
    ("trace.store_write_s", "s", "lower"),
    ("trace.store_read_s", "s", "lower"),
    ("trace.bytes_written", "bytes", "lower"),
    ("trace.store_hits", "count", "higher"),
    ("trace.store_misses", "count", "lower"),
    ("trace.quarantined", "count", "lower"),
    ("detectors.ideal_s", "s", "lower"),
    ("detectors.vector_s", "s", "lower"),
    ("cord.fused_s", "s", "lower"),
    ("cord.fused_configs", "count", "higher"),
    ("cord.unfused_s", "s", "lower"),
    ("cord.unfused_configs", "count", "lower"),
    ("injection.soundness_s", "s", "lower"),
    ("guard.analyze_s", "s", "lower"),
    ("guard.degraded", "count", "lower"),
    ("timingsim.overhead_s", "s", "lower"),
    ("cord.replay_s", "s", "lower"),
    ("experiments.figures_s", "s", "lower"),
    ("pipeline.size_s", "s", "lower"),
    ("pipeline.record_s", "s", "lower"),
    ("pipeline.analyze_s", "s", "lower"),
    ("supervisor.wait_s", "s", "lower"),
    ("supervisor.tasks", "count", "lower"),
    ("supervisor.retries", "count", "lower"),
    ("supervisor.serial_fallbacks", "count", "lower"),
    ("journal.appends", "count", "lower"),
    ("journal.append_s", "s", "lower"),
    ("client.submit_s", "s", "lower"),
    ("client.result_s", "s", "lower"),
    ("service.warm_roundtrip_s", "s", "lower"),
    ("admission.rejected", "count", "lower"),
    ("jobs.wal_appends", "count", "lower"),
    ("jobs.wal_append_s", "s", "lower"),
    ("pool.leases", "count", "lower"),
    ("pool.lease_wait_s", "s", "lower"),
    ("pool.idle_wait_s", "s", "lower"),
    ("pool.lease_s", "s", "lower"),
    ("pool.run_tasks_s", "s", "lower"),
    ("pool.reassigned", "count", "lower"),
    ("replicate.pull_s", "s", "lower"),
    ("replicate.push_s", "s", "lower"),
    ("replicate.bytes", "bytes", "lower"),
    ("unattributed_s", "s", "lower"),
    ("unattributed_frac", "fraction", "lower"),
    ("tracing.overhead_frac", "fraction", "lower"),
)


def gate_path(trace_dir) -> Path:
    """The file whose existence switches other processes' tracers on."""
    return Path(trace_dir) / "units-started"


class Tracer:
    """Span and counter buffer of one process (emptied in forked children)."""

    def __init__(self, out_dir, role: str, gate=None):
        self.out_dir = Path(out_dir)
        self.role = role
        self._lock = threading.Lock()
        self._probes = []
        #: Wrappers pass calls straight through while this is False.
        #: With a ``gate`` path it turns True once that file exists (the
        #: session opens it when the units start).
        self.active = gate is None
        self._gate = Path(gate) if gate is not None else None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.main_ident = threading.main_thread().ident
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self.started = time.monotonic()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def is_active(self) -> bool:
        if not self.active and self._gate is not None:
            self.active = self._gate.exists()
        return self.active

    def current_layer(self):
        stack = self._stack()
        return stack[-1][0] if stack else None

    def record(self, layer, start, end, self_s, thread=None) -> None:
        """Append one finished span (also used for synthesized spans)."""
        if thread is None:
            ident = threading.get_ident()
            thread = "main" if ident == self.main_ident else str(ident)
        self.spans.append((layer, thread, start, end, self_s))

    @contextlib.contextmanager
    def span(self, layer):
        """Time the enclosed block as one span of ``layer``."""
        stack = self._stack()
        frame = [layer, 0.0]
        stack.append(frame)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.record(layer, start, end, duration - frame[1])
            if not stack and self.role == "child":
                self.flush()

    def count(self, name: str, n=1) -> None:
        with self._lock:
            self.counts[name] += n

    def on_flush(self, probe) -> None:
        """Register ``probe() -> {counter: value}``, read at each flush."""
        self._probes.append(probe)

    def flush(self) -> None:
        """Write this process's spans and counters (cumulative, atomic)."""
        if os.getpid() != self.pid:
            return
        counts = Counter(self.counts)
        for probe in self._probes:
            counts.update(probe())
        doc = {
            "pid": self.pid,
            "role": self.role,
            "started": self.started,
            "ended": time.monotonic(),
            "spans": self.spans,
            "counts": dict(counts),
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / ("trace-%d.json" % self.pid)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)

    def _after_fork(self) -> None:
        self._reset()
        self.role = "child"


def _patch(owner, attr, tracer, layer, after=None, before=None, absorb=()):
    """Replace ``owner.attr`` (module function or method) with a wrapper.

    ``layer`` is a name or a function of ``(args, kwargs)``.
    ``after(tracer, args, result, state)`` folds counters in, where
    ``state`` is what ``before(args)`` returned.  A call made while the
    innermost open span is one of ``absorb`` runs unwrapped: its time
    stays with that parent span.  Setting the attribute on a subclass
    leaves the base class alone (``IdealDetector.run_packed`` is
    ``Detector.run_packed`` until wrapped here).
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.is_active() or (
                absorb and tracer.current_layer() in absorb):
            return fn(*args, **kwargs)
        name = layer(args, kwargs) if callable(layer) else layer
        state = before(args) if before is not None else None
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, args, result, state)
        return result

    setattr(owner, attr, traced)


def _counter(name):
    def after(tracer, _args, _result, _state):
        tracer.count(name)
    return after


def _count_events(tracer, _args, trace, _state):
    packed = getattr(trace, "packed", None)
    tracer.count("engine.events",
                 len(packed) if packed is not None else len(trace.events))


def _quarantined_before(args):
    return args[0].stats.get("quarantined", 0)


def _store_read(tracer, args, result, quarantined_before):
    tracer.count("trace.store_hits" if result is not None
                 else "trace.store_misses")
    tracer.count("trace.quarantined",
                 args[0].stats.get("quarantined", 0) - quarantined_before)


def _entry_size(store, kind, namespace, components) -> int:
    try:
        return store.entry_path(kind, namespace, components).stat().st_size
    except OSError:
        return 0


def _store_write(kind):
    def after(tracer, args, _result, _state):
        tracer.count("trace.bytes_written", _entry_size(
            args[0], kind, args[1], args[2]))
    return after


def _count_fused(tracer, _args, fused_ids, _state):
    tracer.count("cord.fused_configs", len(fused_ids or ()))


def _supervisor_report(tracer, _args, result, _state):
    for out in result[1].outcomes:
        if out.path == "cache":
            continue
        tracer.count("supervisor.tasks")
        tracer.count("supervisor.retries", max(0, out.attempts - 1))
        if out.path == "serial":
            tracer.count("supervisor.serial_fallbacks")


def _submit_verdict(tracer, _args, reply, _state):
    from repro.service import protocol

    if not reply.get("ok") and reply.get("error") in protocol.RETRYABLE:
        tracer.count("admission.rejected")


def _replicated_bytes(tracer, args, ok, _state):
    if ok:
        tracer.count("replicate.bytes", _entry_size(*args[1:5]))


def _stage_layer(args, kwargs):
    payload = args[0] if args else kwargs["payload"]
    return "pipeline." + payload["stage"]


class _LeaseClock:
    """Queued -> granted -> completed times of remote stage tasks.

    Queue times come from the task lists handed to
    ``WorkerPool.run_tasks`` and from the ``submit`` callback it passes
    to ``on_result``; grant and completion times from ``lease`` and
    ``complete``.  Three measures come out:

    * ``pool.lease_wait_s`` -- queued -> granted, summed over leases
      (tasks queued together overlap, so this exceeds wall time);
    * ``pool.idle_wait`` spans -- the part of each wait during which
      the granting worker held no lease: the poll-timer and wake-up
      quantization, placed on the timeline for the attribution;
    * ``pool.lease_s`` -- granted -> completed (the worker's own spans
      cover that interval on the timeline).
    """

    def __init__(self, tracer: Tracer, pool_cls):
        self.tracer = tracer
        self.queued = {}
        self.granted = {}
        self.free_since = {}
        #: Each pool seen in a traced call, with its stats at that time
        #: (the set-up's leases are not the units').
        self.pools = {}
        run_tasks = pool_cls.run_tasks
        clock = self

        @functools.wraps(run_tasks)
        def traced_run_tasks(pool, job_id, tasks, run_local, *rest,
                             **kwargs):
            if not tracer.is_active():
                return run_tasks(pool, job_id, tasks, run_local, *rest,
                                 **kwargs)
            if pool not in clock.pools:
                clock.pools[pool] = dict(pool.stats)
            now = time.monotonic()
            for name, _payload in tasks:
                clock.queued[(job_id, name)] = now
            rest = list(rest)
            if rest:
                rest[0] = clock._on_result(job_id, rest[0])
            elif "on_result" in kwargs:
                kwargs["on_result"] = clock._on_result(
                    job_id, kwargs["on_result"])
            with tracer.span("pool.run_tasks"):
                return run_tasks(pool, job_id, tasks, run_local, *rest,
                                 **kwargs)

        pool_cls.run_tasks = traced_run_tasks

    def _on_result(self, job_id, on_result):
        if on_result is None:
            return None
        queued = self.queued

        def traced_on_result(name, value, submit):
            def traced_submit(task, payload):
                queued[(job_id, task)] = time.monotonic()
                return submit(task, payload)
            return on_result(name, value, traced_submit)

        return traced_on_result

    def lease(self, tracer, args, grant, _state):
        if not grant:
            return
        now = time.monotonic()
        queued = self.queued.pop((grant["job"], grant["task"]), now)
        idle_from = max(queued, self.free_since.get(args[1], queued))
        self.granted[grant["lease"]] = now
        tracer.count("pool.lease_wait_s", now - queued)
        tracer.record("pool.idle_wait", idle_from, now, now - idle_from,
                      thread="lease-queue")

    def complete(self, tracer, args, _result, _state):
        now = time.monotonic()
        self.free_since[args[1]] = now
        granted = self.granted.pop(args[2], None)
        if granted is not None:
            tracer.count("pool.lease_s", now - granted)

    def probe(self):
        def since_traced(key):
            return sum(pool.stats.get(key, 0) - base.get(key, 0)
                       for pool, base in self.pools.items())

        return {"pool.leases": since_traced("leases_granted"),
                "pool.reassigned": since_traced("tasks_requeued")}


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer boundary of the program; returns ``tracer``."""
    import repro.cord.fused as fused
    import repro.experiments as experiments
    import repro.experiments.figures as figures
    import repro.experiments.pipeline as pipeline
    import repro.injection.campaign as campaign
    from repro.cord.detector import CordDetector
    from repro.detectors.ideal import IdealDetector
    from repro.detectors.vector_cord import LimitedVectorDetector
    from repro.resilience.guard import GUARD_LOG
    from repro.resilience.journal import Journal
    from repro.resilience.supervisor import Supervisor
    from repro.service.client import ServiceClient
    from repro.service.jobs import JobRegistry
    from repro.service.workers import replicate
    from repro.service.workers.pool import WorkerPool
    from repro.trace.store import PackedTraceStore

    t = tracer
    # engine + injection sizing
    _patch(campaign, "run_program", t, "engine.record", _count_events)
    for module in (campaign, pipeline):
        _patch(module, "count_sync_instances", t, "injection.size")
    # trace store
    _patch(PackedTraceStore, "store_run", t, "trace.store_write",
           _store_write("trace"))
    _patch(PackedTraceStore, "store_value", t, "trace.store_write",
           _store_write("value"))
    for method in ("load_run", "load_value"):
        _patch(PackedTraceStore, method, t, "trace.store_read",
               _store_read, before=_quarantined_before)
    # analysis: detectors, CORD interpreters, soundness, the guard ladder
    _patch(IdealDetector, "run_packed", t, "detectors.ideal")
    _patch(LimitedVectorDetector, "run_packed", t, "detectors.vector")
    _patch(CordDetector, "run_packed", t, "cord.unfused",
           _counter("cord.unfused_configs"))
    _patch(fused, "fuse_cord_detectors", t, "cord.fused", _count_fused)
    for name in ("_check_soundness", "_soundness_one"):
        _patch(campaign, name, t, "injection.soundness",
               absorb=("injection.soundness",))
    for name in ("guarded_outcomes", "guarded_outcomes_batch"):
        _patch(campaign, name, t, "guard.analyze")
    # figures, timing model, replay
    _patch(figures, "estimate_overhead", t, "timingsim.overhead")
    for name in ("replay_trace", "verify_replay"):
        _patch(figures, name, t, "cord.replay")
    for name in ("table1", "figure10", "figure11", "figure12", "figure13",
                 "figure14", "figure15", "figure16", "figure17",
                 "order_recording_summary"):
        for module in (figures, experiments):
            if hasattr(module, name):
                _patch(module, name, t, "experiments.figures",
                       absorb=("experiments.figures",))
    # run-level pipeline, supervisor, journal
    _patch(pipeline, "run_stage_task", t, _stage_layer)
    for method in ("run", "run_stream"):
        _patch(Supervisor, method, t, "supervisor.wait", _supervisor_report)
    _patch(Journal, "append", t, "journal.append",
           _counter("journal.appends"), absorb=("jobs.wal_append",))
    # service: client, admission, job WAL
    _patch(ServiceClient, "submit", t, "client.submit", _submit_verdict,
           absorb=("service.warm_roundtrip",))
    _patch(ServiceClient, "result", t, "client.result",
           absorb=("service.warm_roundtrip",))
    for method in ("log_accepted", "log_state", "log_lease"):
        _patch(JobRegistry, method, t, "jobs.wal_append",
               _counter("jobs.wal_appends"))
    # service.workers: leases and replication
    clock = _LeaseClock(t, WorkerPool)
    _patch(WorkerPool, "lease", t, "pool.grant", clock.lease)
    _patch(WorkerPool, "complete", t, "pool.commit", clock.complete)
    t.on_flush(clock.probe)
    _patch(replicate, "pull_entry", t, "replicate.pull", _replicated_bytes)
    _patch(replicate, "push_entry", t, "replicate.push", _replicated_bytes)

    guard_base = [GUARD_LOG.count()]

    def reset_guard_base():
        guard_base[0] = GUARD_LOG.count()

    t.on_flush(lambda: {
        "guard.degraded": GUARD_LOG.count() - guard_base[0]})
    os.register_at_fork(after_in_child=t._after_fork)
    os.register_at_fork(after_in_child=reset_guard_base)
    atexit.register(t.flush)
    return t
