"""The benchmark's stored CLI outputs, replayed in process.

``perfbench/reference.json`` stores the output of every ``cli-cold``
invocation the benchmark checks.  Each is run here through ``main`` and
compared as ``perfbench/checks.py`` compares it: a valid run field by
field, text exactly and numbers at relative 1e-8; a refusal by its exit
code (2 or 3) and its one stderr line.  So a change that moves a stored
value fails here instead of in a benchmark run.  The file is only read.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest

from rieszbounds.cli import main

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
REL_TOL = 1e-8


def _entries() -> list[dict]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)["cli-cold"]


def _same_field(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        g, w = float(got), float(want)
    except ValueError:
        return False
    return math.isfinite(g) and abs(g - w) <= REL_TOL * max(abs(w), 1e-300)


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: " ".join(e["args"]))
def test_stored_cli_output(entry):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(entry["args"]))
    out, err = stdout.getvalue(), stderr.getvalue()
    if entry["tag"][0] == "invalid":
        lines = err.splitlines()
        assert code in (2, 3) and out == "", (code, out)
        assert len(lines) == 1 and lines[0].startswith("rieszbounds:"), err
        return
    assert (code, err) == (0, "")
    got, want = out.splitlines(), entry["ref"]["stdout"].splitlines()
    assert len(got) == len(want) and got[:1] == want[:1], out
    for g, w in zip(got[1:], want[1:]):
        g_fields, w_fields = g.split(","), w.split(",")
        assert len(g_fields) == len(w_fields), (g, w)
        assert all(map(_same_field, g_fields, w_fields)), (g, w)
