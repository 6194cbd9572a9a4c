"""Every identity of the `checks` registry on every small test geometry.

The registry is the one place each identity is written; `dualqed
check-maps` / `verify-all` run it, and this file runs it on the shared
test geometries with the CLI's sample counts."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from dualqed import checks, dualmap, greens, rational
from dualqed.lattice import Lattice

from conftest import GEOMETRIES, entry_test, geometry_id

CASES = [(check, lat) for check in checks.CHECKS for lat in GEOMETRIES if check.applies(lat)]


@pytest.mark.parametrize("check, lat", CASES, ids=[f"{c.name}-{lat.label()}" for c, lat in CASES])
def test_entry_holds(check, lat, rng):
    assert check.worst(lat, rng) <= check.tol


def test_every_entry_applies_somewhere_and_names_are_unique():
    names = [check.name for check in checks.CHECKS]
    assert len(set(names)) == len(names)
    assert {check.name for check, _ in CASES} == set(names)


KERNEL_CHECKS = ("dual_kernel_matches_constraint_count",)

# Sizes the old exact nullspace took seconds to tens of seconds on, and 3D
# tori where eliminating D itself would take seconds.
test_kernel_checks_at_scale = entry_test(
    *KERNEL_CHECKS,
    geometries=[
        Lattice(2, 16, "periodic"),
        Lattice(3, 4, "open"),
        Lattice(3, 4, "periodic"),
        Lattice(3, 6, "periodic"),
        Lattice(3, 8, "periodic"),
    ],
)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_dual_form_off_the_gram_matrix_fails_the_kernel_count(lat, rng, monkeypatch):
    """The count n - rank(emb) holds only for D = emb^T emb: D + e0 e0^T,
    whose kernel is smaller, must fail the entry."""
    build = dualmap.d_matrix
    bump = sp.csr_matrix(([1], ([0], [0])), shape=build(lat).shape, dtype=np.int64)
    monkeypatch.setattr(dualmap, "d_matrix", lambda lat: (build(lat) + bump).tocsr())
    assert checks.get("dual_kernel_matches_constraint_count").worst(lat, rng) > 0


def _mutated_constraints(monkeypatch, mutate):
    """Serve `dualmap.constraint_set` with its matrix passed through ``mutate``."""
    build = dualmap.constraint_set

    def constraint_set(lat):
        cons = build(lat)
        mat = mutate(cons.matrix.toarray())
        return dataclasses.replace(cons, matrix=sp.csr_matrix(mat), n_independent=rational.rank(mat))

    monkeypatch.setattr(dualmap, "constraint_set", constraint_set)


def _perturb_first_row(mat):
    mat = mat.copy()
    mat[0, -1] += 1  # a winding column on periodic lattices
    return mat


@pytest.mark.parametrize("lat", [g for g in GEOMETRIES if g.periodic or g.dim == 3], ids=geometry_id)
def test_constraint_row_off_the_kernel_fails_both_kernel_checks(lat, rng, monkeypatch):
    _mutated_constraints(monkeypatch, _perturb_first_row)
    for name in KERNEL_CHECKS:
        assert checks.get(name).worst(lat, rng) > 0, name


def test_constraints_short_of_the_kernel_fail_both_kernel_checks(rng, monkeypatch):
    """Dropping the total-flux row leaves rows that lie in the kernel but do
    not span it."""
    _mutated_constraints(monkeypatch, lambda mat: mat[1:])
    for name in KERNEL_CHECKS:
        assert checks.get(name).worst(Lattice(2, 2, "periodic"), rng) > 0, name


# Each kernel of the energy split, scaled by 1 + 1e-6.
SCALED_KERNELS = {
    "modified_greens": (dualmap, lambda table: table * (1 + 1e-6)),
    "greens_sites": (greens, lambda table: dataclasses.replace(table, values=table.values * (1 + 1e-6))),
}


@pytest.mark.parametrize("kernel", SCALED_KERNELS)
@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_scaled_kernel_fails_quadratic_form_equivalence(lat, kernel, rng, monkeypatch):
    """A relative error of 1e-6 in either the Coulomb table G or D+ breaks
    the split |E|^2 = rho^T G rho + f^T D+ f."""
    if kernel == "greens_sites" and lat.n_sites == 1:
        pytest.skip("one site carries no charge for G to weigh")
    module, scale = SCALED_KERNELS[kernel]
    build = getattr(module, kernel)
    monkeypatch.setattr(module, kernel, lambda lat: scale(build(lat)))
    check = checks.get("quadratic_form_equivalence")
    assert check.worst(lat, rng, draws=5) > check.tol
