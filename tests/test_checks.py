"""Every identity of the `checks` registry on every small test geometry.

The registry is the one place each identity is written; `dualqed
check-maps` / `verify-all` run it, and this file runs it on the shared
test geometries with the CLI's sample counts."""

import pytest

from dualqed import checks

from conftest import GEOMETRIES

CASES = [(check, lat) for check in checks.CHECKS for lat in GEOMETRIES if check.applies(lat)]


@pytest.mark.parametrize("check, lat", CASES, ids=[f"{c.name}-{lat.label()}" for c, lat in CASES])
def test_entry_holds(check, lat, rng):
    assert check.worst(lat, rng) <= check.tol


def test_every_entry_applies_somewhere_and_names_are_unique():
    names = [check.name for check in checks.CHECKS]
    assert len(set(names)) == len(names)
    assert {check.name for check, _ in CASES} == set(names)
