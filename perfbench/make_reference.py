"""Rebuild ``reference.json``: the input pool and the library's outputs for it.

Run from the repository root:  PYTHONPATH=src python3 perfbench/make_reference.py

The stored outputs are what the library returns at the commit where this
is run; the benchmark compares later outputs with them at a relative
tolerance that allows last-digit moves.  An input that raises here is
stored with its error and no output; the benchmark still counts a raise
on it as a failed op.  Re-run only in a change that edits the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import workloads
from worker import call_op


def _cli_ref(argv: list[str]) -> dict:
    from rieszbounds.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"rc": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    os.environ.pop("RIESZBOUNDS_CACHE", None)
    import rieszbounds as rb
    pool = workloads.build_pool()
    for workload, entries in pool.items():
        for entry in entries:
            if workload == "cli-cold":
                entry["ref"] = _cli_ref(entry["args"])
                continue
            try:
                entry["ref"] = call_op(entry["kind"], entry["args"], rb)
            except Exception as exc:
                entry["ref"] = None
                entry["err"] = f"{type(exc).__name__}: {exc}"
                print(f"{workload} {entry['args']}: {entry['err']}", file=sys.stderr)
        print(f"{workload}: {len(entries)} entries", file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(pool, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
