"""Run a program module as ``__main__`` with the layer wrappers installed.

``python -m cordbench.launch <trace-dir> <module> [args...]``

This is how the traced run starts ``cord-serve`` (``repro.service``)
and ``cord-worker`` (``repro.service.workers.remote``): the tracer is
installed first, then the module runs exactly as ``python -m`` would
run it, and the spans are written home when the interpreter exits.
The wrappers stay inert until the session opens the trace gate at the
start of its units, so set-up work is not traced.
"""

from __future__ import annotations

import runpy
import sys


def main() -> None:
    trace_dir, module = sys.argv[1], sys.argv[2]
    from cordbench import tracing

    role = module.rsplit(".", 1)[-1]
    tracing.install(tracing.Tracer(trace_dir, role,
                                   gate=tracing.gate_path(trace_dir)))
    sys.argv = [module] + sys.argv[3:]
    runpy.run_module(module, run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
