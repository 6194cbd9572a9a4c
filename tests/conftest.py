"""Shared fixtures and the acceptance-summary reporter."""

import numpy as np
import pytest

from dualqed import checks, dualmap, hilbert
from dualqed.lattice import Lattice, divergence_matrix

# geometries small enough for exhaustive/dense checks
GEOMETRIES_2D = [Lattice(2, n, bc) for n in (1, 2, 3) for bc in ("open", "periodic")]
GEOMETRIES_3D = [Lattice(3, n, bc) for n in (1, 2) for bc in ("open", "periodic")]
GEOMETRIES = GEOMETRIES_2D + GEOMETRIES_3D


def geometry_id(lat: Lattice) -> str:
    return lat.label()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def assert_entries_hold(lat: Lattice, rng, *names: str, draws: int | None = None) -> None:
    """Every named `checks` entry that applies to ``lat`` passes its bound."""
    for check in map(checks.get, names):
        if check.applies(lat):
            assert check.worst(lat, rng, draws) <= check.tol, check.name


def gauss_residuals(basis) -> np.ndarray:
    """(n_sites, dim) integer div E - Q per basis state: the Gauss
    constraint without static charges, for a ``links_E`` basis."""
    div = divergence_matrix(basis.spec.lattice) @ hilbert.gauge_level_diagonals(basis)
    return div - hilbert.charge_diagonals(basis)


def integer_image_mask(snf, vecs: np.ndarray) -> np.ndarray:
    """Which columns of an integer array lie in the integer column lattice A·Z^m.

    `snf` is the (U, D, V) triple of `rational.smith_normal_form` of A; a
    column v is a member iff (U·v)_i is divisible by d_i for i <= rank and
    vanishes beyond.  Arithmetic stays in the dtype of `vecs` (int64, or
    object for Python ints).
    """
    assert vecs.dtype.kind in "iO", "integer image membership needs integer entries"
    u, d, _ = snf
    n_cols = len(d[0]) if d else 0
    w = np.array(u, dtype=vecs.dtype) @ vecs
    divisors = np.array([d[i][i] if i < n_cols else 0 for i in range(len(u))], dtype=vecs.dtype)
    pivots = divisors != 0
    return np.all(w[~pivots] == 0, axis=0) & np.all(w[pivots] % divisors[pivots, None] == 0, axis=0)


def in_flux_class(lat: Lattice, vec) -> bool:
    """Whether an integer flux/winding vector lies in the zero-offset class
    lattice D·Z^n, in Python-int arithmetic."""
    column = np.array([int(x) for x in vec], dtype=object)[:, None]
    return bool(integer_image_mask(dualmap._flux_class_snf(lat), column)[0])


def entry_test(*names: str, geometries=GEOMETRIES, draws: int | None = None):
    """A test of the named `checks` entries on each geometry: unit tests that
    only restated an identity run its entry and keep their old test ids."""

    @pytest.mark.parametrize("lat", geometries, ids=geometry_id)
    def test(lat, rng):
        assert_entries_hold(lat, rng, *names, draws=draws)

    return test


# --- acceptance report -------------------------------------------------------
# test_acceptance.py records one (criterion, passed, detail) triple per
# criterion; the hook below prints them as one line each at the end of the
# run so the verdicts survive output capture.

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_acceptance(criterion: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[criterion] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[criterion]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {criterion}: {verdict} — {detail}")
