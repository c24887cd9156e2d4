"""Traced stand-in for ``python -m rieszbounds.cli``.

Usage: python3 perfbench/cli_launcher.py SUMMARY_PATH SPANS_PATH CLI_ARGS...

Imports the CLI inside an import span, installs the same wrappers as the
in-process workloads, runs ``rieszbounds.cli.main(argv)`` and exits with
its status.  The span summary is written to SUMMARY_PATH and the spans to
SPANS_PATH.  The op latency itself is measured by the parent, from spawn
to exit, as for the untraced runs.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main() -> int:
    summary_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    # timed before the tracer is imported, since the tracer imports numpy
    t0 = time.perf_counter()
    import rieszbounds.cli
    t1 = time.perf_counter()
    import tracer
    rec = tracer.Recorder()
    rec.op = 0
    rec.spans.append(["import.rieszbounds.cli", "import", t0, t1, -1, 0, None, None])
    tracer.install(rec)
    try:
        code = rieszbounds.cli.main(argv)
    except SystemExit as exc:  # argparse refusals
        code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
    except Exception:
        # as under ``python -m``: traceback on stderr, exit 1; the summary
        # is still written, and the output check counts the op as failed
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    # the parent adds the op time, measured from spawn to exit
    summary = tracer.summarize(rec.spans, [{"kind": "cli", "t": 0.0}])
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
