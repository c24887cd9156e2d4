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
