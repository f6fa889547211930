"""One benchmark session: a workload's set-up, then its units.

``python -m cordbench.session --workload W --seed N --units U ...``

Sessions run in a fresh interpreter so that set-up includes imports and
every lazy first-use cost.  With ``--setup-only`` the session stops
after set-up (``run.py`` repeats set-up this way and reports the
median).  With ``--trace-dir`` the layer wrappers are installed after
set-up, so only the units are traced.  The session writes its
measurements as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path


def effective_settings(jobs: int) -> dict:
    """The program's knobs as it will run them (all at their defaults)."""
    from repro.experiments import pipeline
    from repro.experiments.runner import default_scheduler
    from repro.resilience.checkpoint import fsync_enabled
    from repro.resilience.supervisor import default_max_retries
    from repro.service.admission import ServiceLimits
    from repro.service.workers.pool import PoolLimits
    from repro.trace.kernels import kernels_enabled
    from repro.trace.sharedmem import sharedmem_available
    from repro.trace.store import mmap_enabled

    limits = ServiceLimits.from_env()
    return {
        "jobs": jobs,
        "scheduler": default_scheduler(),
        "batch_runs": pipeline.default_batch_runs(),
        "max_retries": default_max_retries(),
        "fsync": fsync_enabled(),
        "numpy_kernels": kernels_enabled(),
        "mmap": mmap_enabled(),
        "shm": sharedmem_available(),
        "svc_queue_max": limits.queue_max,
        "svc_tenant_max": limits.tenant_max,
        "pool": PoolLimits.from_env().as_fields(),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)

    from cordbench.workloads import WORKLOADS, ServiceRemote

    root = Path(__file__).resolve().parent.parent
    kwargs = {}
    if args.workload == ServiceRemote.name and args.trace_dir:
        kwargs["launcher"] = [sys.executable, "-m", "cordbench.launch",
                              args.trace_dir]
    workload = WORKLOADS[args.workload](
        root, Path(args.work), args.seed, args.jobs, **kwargs)
    workload.setup_only = args.setup_only
    out = {"pid": os.getpid()}
    try:
        workload.setup(args.units)
        out["setup_s"] = workload.setup_seconds(
            time.monotonic() - args.spawned_at)
        out["settings"] = effective_settings(args.jobs)
        out["setup_notes"] = workload.setup_notes
        if args.setup_only:
            return 0
        if args.trace_dir:
            from cordbench import tracing

            workload.tracer = tracing.install(
                tracing.Tracer(args.trace_dir, "session"))
            gate = tracing.gate_path(args.trace_dir)
            gate.parent.mkdir(parents=True, exist_ok=True)
            gate.touch()
        units = []
        window = [time.monotonic(), None]
        for index in range(args.units):
            units.append(workload.unit(index).__dict__)
        window[1] = time.monotonic()
        if workload.tracer is not None:
            # The untimed checks below are not part of the traced units.
            workload.tracer.active = False
        out["units"] = units
        out["window"] = window
        out["problems"] = workload.verify()
    finally:
        workload.close()
        if workload.tracer is not None:
            workload.tracer.flush()
        Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
