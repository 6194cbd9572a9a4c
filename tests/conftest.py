"""Shared fixtures and the acceptance-summary reporter."""

import numpy as np
import pytest

from dualqed import checks
from dualqed.lattice import Lattice

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
