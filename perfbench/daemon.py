"""Start the analysis daemon (:mod:`repro.service.app`) for the benchmark.

Usage: ``python3 perfbench/daemon.py WORK_DIR [TRACE_OUT]`` with
``PYTHONPATH=src``.  The daemon keeps its default of two workers and a
bounded admission queue; only the per-tenant token bucket is opened
(1e9/s), because a closed loop would otherwise measure the rate limiter
instead of the service.  With ``TRACE_OUT`` the service-layer wrappers
of :mod:`layers` are installed first, and their timestamped events are
written to that file as JSON once the daemon has shut down (SIGTERM).
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    from repro.service.app import serve

    work_dir = argv[0]
    trace_out = argv[1] if len(argv) > 1 else None
    tracer = None
    if trace_out is not None:
        from layers import Tracer, install_service_layers

        tracer = Tracer()
        install_service_layers(tracer)
    serve(work_dir=work_dir, port=0, tenant_rate=1e9, tenant_burst=1e9)
    if tracer is not None:
        with open(trace_out, "w") as fh:
            json.dump(tracer.samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
