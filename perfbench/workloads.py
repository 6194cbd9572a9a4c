"""The benchmark's workloads: the CLI ops of one pass and their correctness gates.

Every op is one ``dualqed`` command line; the benchmark appends ``--seed``
and ``--out``.  Each check takes the op's JSON report and returns the list of
problems found (empty when the output is correct).  Reference eigenvalues
were taken at the seed commit with BLAS pinned to one thread; the duality
itself is the oracle for ``compare_matched``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

MODEL = ("--g2", "1.3", "--t", "0.9", "--m", "0.4", "--k", "3")
EIGEN_TOL = 1e-9
RESIDUAL_TOL = 1e-9

COMPARE_ELECTRIC_DIMS = [25, 49, 73, 97]
FLUX_SECTOR_DIM = 465
FLUX_SECTOR_EIGENVALUES = [-3.164401993787135, -1.96629357510498, -1.810029256289933]
EIGENSOLVE_DIM = 1333
EIGENSOLVE_EIGENVALUES = [-0.4857899374506778, 0.4654335479925632, 0.46543354799257347]
DOF_2D_N16_PERIODIC = 257


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    ops: tuple[Op, ...]
    # Spans predicted to hold most of the pass wall time; the traced run
    # reports their measured share as ``trace.dominant_share``.
    dominant: tuple[str, ...]


def check_compare(report: dict) -> list[str]:
    problems = []
    if not report.get("final_max_difference", float("inf")) <= EIGEN_TOL:
        problems.append(f"final_max_difference {report.get('final_max_difference')} > {EIGEN_TOL}")
    dims = [row["original"]["dimension"] for row in report.get("cutoffs", [])]
    if dims != COMPARE_ELECTRIC_DIMS:
        problems.append(f"electric dimensions {dims} != {COMPARE_ELECTRIC_DIMS}")
    if report.get("passed") is not True:
        problems.append("comparison not passed")
    return problems


def spectrum_check(dimension: int, reference: list[float]) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        problems = []
        if report.get("dimension") != dimension:
            problems.append(f"sector dimension {report.get('dimension')} != {dimension}")
        values = report.get("eigenvalues", [])
        if len(values) != len(reference):
            problems.append(f"{len(values)} eigenvalues, expected {len(reference)}")
        for i, (got, want) in enumerate(zip(values, reference)):
            if not abs(got - want) <= EIGEN_TOL:
                problems.append(f"eigenvalue {i}: {got!r} differs from reference {want!r}")
        residuals = report.get("residuals", [])
        if len(residuals) != len(reference) or not all(r <= RESIDUAL_TOL for r in residuals):
            problems.append(f"residuals {residuals} not all <= {RESIDUAL_TOL}")
        return problems

    return check


def dof_check(physical_dof: int) -> Callable[[dict], list[str]]:
    def check(report: dict) -> list[str]:
        problems = []
        if report.get("match") is not True:
            problems.append("degree-of-freedom counts do not match")
        if report.get("physical_dof") != physical_dof:
            problems.append(f"physical_dof {report.get('physical_dof')} != {physical_dof}")
        return problems

    return check


def check_verify_all(report: dict) -> list[str]:
    failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
    if report.get("all_passed") is not True or failed or not report.get("checks"):
        return [f"invariant suite failed: {failed}"]
    return []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "compare_matched",
            "the paper's headline equivalence run: product-space electric builds and the compare thread pool",
            (
                Op(
                    ("compare", "--dim", "2", "--N", "1", "--bc", "open", "--matter", "staggered_fermion",
                     "--ratio", "4", "--schedule", "2,4,6,8") + MODEL,
                    check_compare,
                ),
            ),
            ("hamiltonian.h_original",),
        ),
        Workload(
            "flux_sector",
            "per-state flux-class membership loop, winding rotors and both Coulomb kernels of the flux description",
            (
                Op(
                    ("spectrum", "--dim", "2", "--N", "2", "--bc", "periodic", "--formulation", "flux",
                     "--matter", "staggered_fermion", "--cutoff", "2") + MODEL,
                    spectrum_check(FLUX_SECTOR_DIM, FLUX_SECTOR_EIGENVALUES),
                ),
            ),
            ("spectrum.flux_sector_basis",),
        ),
        Workload(
            "eigensolve",
            "dense complex eigh on a 1,333-state Gauss sector; the only workload where the eigensolver dominates",
            (
                Op(
                    ("spectrum", "--dim", "2", "--N", "2", "--bc", "periodic", "--formulation", "electric",
                     "--matter", "none", "--cutoff", "2") + MODEL,
                    spectrum_check(EIGENSOLVE_DIM, EIGENSOLVE_EIGENVALUES),
                ),
            ),
            ("spectrum.lowest_eigenvalues",),
        ),
        Workload(
            "classical_exact",
            "exact Fraction ranks and nullspaces of dof and verify-all; builds no Hilbert space",
            (
                Op(("dof", "--dim", "2", "--N", "16", "--bc", "periodic"), dof_check(DOF_2D_N16_PERIODIC)),
                Op(("verify-all", "--dim", "2", "--N", "8", "--bc", "periodic"), check_verify_all),
                Op(("verify-all", "--dim", "3", "--N", "3", "--bc", "periodic"), check_verify_all),
            ),
            ("rational.rank", "rational.nullspace"),
        ),
    )
}
