#!/usr/bin/env python3
"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/serve_daemon.py [--trace-out FILE] serve --port 0 ...

Everything after the launcher's own options goes to ``repro``'s command
line unchanged.  With ``--trace-out`` the daemon runs with the
:class:`tracer.Tracer` wrappers (including the request-handler and job-runner
spans) and writes its spans and counters to FILE when it exits, after the
SIGTERM drain.  Without it the daemon is exactly ``python -m repro serve``.
"""

from __future__ import annotations

import atexit
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path.insert(0, str(HERE.parent / "src"))
    if trace_out is not None:
        from tracer import Tracer

        tracer = Tracer().install().install_serve()
        atexit.register(tracer.dump, trace_out)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
