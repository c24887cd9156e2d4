"""The package's public surface: each name is stated once, in the ``__all__``
of the module that defines it, and the package re-exports those lists.

A deletion or rename of a public name fails here, so it is made as one
deliberate edit of ``PUBLIC``.
"""

import importlib
import types

import pytest

import rieszbounds

MODULES = ("errors", "special", "jacobi", "quadrature", "energy", "lattices")

PUBLIC = [
    "AsdBound", "BesselZeroTable", "DomainError", "EpsteinZeta", "GaussBound",
    "GaussianPotential", "LATTICES", "LatticeSpec", "NumericalError", "QuadratureRule",
    "ResourceError", "RieszPotential", "asd_bound", "ball_volume", "bd_ratio", "bessel_j",
    "bessel_zeros", "build_rule", "c_tilde", "cd_kernel", "dgs_bound", "epstein_zeta",
    "family_params", "gauss_bound", "hurwitz_zeta", "jacobi_values", "lambda_d",
    "largest_zero", "lev_branch", "lev_function", "norm_ratios", "packing_bound",
    "packing_density", "parse_potential", "solve_s_for_n", "theta_bound", "theta_coefficients",
    "ulb_energy", "unit_sphere_area", "verify_exactness", "xi_bound", "xi_flags",
]


def _module(name):
    return importlib.import_module(f"rieszbounds.{name}")


def test_package_exports_the_public_names():
    assert sorted(rieszbounds.__all__) == PUBLIC
    # submodules aside (cli joins them once imported), vars holds these names only
    public_vars = {k for k, v in vars(rieszbounds).items()
                   if not k.startswith("_") and not isinstance(v, types.ModuleType)}
    assert public_vars == set(PUBLIC)


def test_no_name_is_listed_twice():
    names = [n for m in (*MODULES, "cli") for n in _module(m).__all__]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("module", MODULES)
def test_package_names_are_the_module_objects(module):
    for name in _module(module).__all__:
        assert getattr(rieszbounds, name) is getattr(_module(module), name), name
