"""The parts of the package that the benchmark's traced run relies on.

``perfbench/tracer.py`` wraps the functions it lists in ``TRACED`` and
reads ``QuadratureRule.weight_fallback`` and ``AsdBound.terms_used`` off
results; a rename or deletion in the package would break the traced run
(``perfbench/run.py --trace 1``) without failing any other test.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rieszbounds
from rieszbounds import cli, energy, lattices

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pair", _load_tracer().TRACED, ids="{0[0]}.{0[1]}".format)
def test_traced_names_resolve(pair):
    module_name, attr = pair
    module = importlib.import_module(f"rieszbounds.{module_name}")
    assert callable(getattr(module, attr))


def test_result_fields_read_by_tracer():
    assert "weight_fallback" in {f.name for f in dataclasses.fields(rieszbounds.QuadratureRule)}
    assert "terms_used" in rieszbounds.AsdBound._fields


@pytest.mark.parametrize("module", [rieszbounds, cli, energy, lattices],
                         ids=lambda m: m.__name__)
def test_public_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing


def test_import_loads_every_traced_module_and_no_numpy():
    # install() patches only modules already loaded: the worker imports
    # rieszbounds, the CLI launcher rieszbounds.cli, and then installs, so
    # a lazily importing package would leave those runs without spans
    traced = sorted({module for module, _ in _load_tracer().TRACED})
    probe = (
        "import sys, rieszbounds\n"
        f"traced = {traced!r}\n"
        "missing = [m for m in traced if m != 'cli' and f'rieszbounds.{m}' not in sys.modules]\n"
        "import rieszbounds.cli\n"
        "missing += [m for m in traced if f'rieszbounds.{m}' not in sys.modules]\n"
        "assert not missing, missing\n"
        "assert 'numpy' not in sys.modules\n"
    )
    src = str(Path(rieszbounds.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
