"""Launch the scheduling service for the storm workloads.

    python3 perfbench/serve.py [--spans FILE] -- ARGS...

runs ``repro-bench serve ARGS...`` in this process.  With ``--spans``
it first arms the program's tracing (``REPRO_TRACE=1``, which the
forked workers inherit) and installs the benchmark's timing wrappers;
after the server has drained it writes the recorded spans, worker
spans included, to FILE as JSON.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list) -> int:
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]

    from repro.bench.cli import serve_main

    rec = None
    if spans_path is not None:
        import spans

        os.environ["REPRO_TRACE"] = "1"
        rec = spans.activate()
        spans.install_core(rec)
        spans.install_service(rec)
    code = serve_main(argv)
    if rec is not None:
        spans.dump(spans_path, rec.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
