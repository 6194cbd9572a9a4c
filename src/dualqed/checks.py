"""The classical identities behind the duality, each written once.

Every entry of `CHECKS` names one identity of the lattice maps, says on
which lattices it holds, measures its residual and states the largest
residual that passes (0 means exact).  `dualqed check-maps` runs the
entries marked ``maps``, `dualqed verify-all` runs every entry, both in
table order, and the tests take their residuals from the same entries.

An entry that needs random input draws one sample from the generator it is
given per call; `Check.worst` takes the worst of several calls.  The CLI
takes ``draws`` samples per entry from one generator seeded by ``--seed``;
tests choose their own counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dualmap, greens, helmholtz, rational
from .lattice import (
    FieldVector,
    Lattice,
    cube_flux_matrix,
    curl_link_to_plaq_matrix,
    curl_plaq_to_link_matrix,
    divergence_matrix,
    gradient_matrix,
    laplacian_matrix,
)


@dataclass(frozen=True)
class Check:
    """One identity: where it applies, its residual, and the passing bound."""

    name: str
    applies: Callable[[Lattice], bool]
    fn: Callable[[Lattice, np.random.Generator], float]
    tol: float
    draws: int = 1  # samples the CLI takes; deterministic entries use 1
    maps: bool = False  # also run by check-maps

    def worst(self, lat: Lattice, rng: np.random.Generator, draws: int | None = None) -> float:
        """Largest residual over ``draws`` calls (default: the CLI's count)."""
        return max(float(self.fn(lat, rng)) for _ in range(self.draws if draws is None else draws))

    def report(self, lat: Lattice, rng: np.random.Generator) -> dict:
        """One row of a check report, residual taken over the CLI's ``draws``."""
        residual = self.worst(lat, rng)
        return {"name": self.name, "residual": residual, "tolerance": self.tol, "passed": residual <= self.tol}


def _random_field(lat: Lattice, rng: np.random.Generator) -> FieldVector:
    return FieldVector(lat, "link", rng.standard_normal(lat.n_links))


def _random_decomposition(lat: Lattice, rng: np.random.Generator) -> helmholtz.Decomposition:
    return helmholtz.helmholtz_decompose(lat, _random_field(lat, rng))


def _divergence_vs_gradient(lat, rng):
    return abs(divergence_matrix(lat) + gradient_matrix(lat).T).max()


def _backward_vs_forward_curl(lat, rng):
    return abs(curl_plaq_to_link_matrix(lat) - curl_link_to_plaq_matrix(lat).T).max()


def _curl_of_gradient_vanishes(lat, rng):
    return abs(curl_link_to_plaq_matrix(lat) @ gradient_matrix(lat)).max()


def _cube_flux_of_curl_vanishes(lat, rng):
    return abs(cube_flux_matrix(lat) @ curl_link_to_plaq_matrix(lat)).max()


def _helmholtz_round_trip(lat, rng):
    dec = _random_decomposition(lat, rng)
    return np.abs(dec.longitudinal.values + dec.transverse.values - dec.field.values).max()


def _transverse_is_divergence_free(lat, rng):
    return np.abs(divergence_matrix(lat) @ _random_decomposition(lat, rng).transverse.values).max()


def _longitudinal_is_curl_free(lat, rng):
    return np.abs(curl_link_to_plaq_matrix(lat) @ _random_decomposition(lat, rng).longitudinal.values).max()


def _interaction_matrix_symmetric(lat, rng):
    D = dualmap.d_matrix(lat)
    return abs(D - D.T).max()


def _quadratic_form_equivalence(lat, rng):
    """The electric energy of an integer link field E splits into its
    Coulomb and flux parts, |E|^2 = rho^T G rho + f^T D+ f with rho = div E
    and f = emb^T E; relative to max(1, |E|^2)."""
    E = rng.integers(-3, 4, lat.n_links).astype(float)
    rho = divergence_matrix(lat) @ E
    f = dualmap.flux_and_winding_map(lat) @ E
    energy = E @ E
    split = rho @ greens.greens_sites(lat).values @ rho + f @ dualmap.modified_greens(lat) @ f
    return abs(energy - split) / max(1.0, energy)


def _canonical_pairing_identity(lat, rng):
    return np.abs(helmholtz.canonical_pairing_matrix(lat) - np.eye(lat.n_plaqs)).max()


def _pairing_on_constraint_quotient(lat, rng):
    """Periodic pairing: plaquette block 1 - J/n_plaqs, zero flux-to-winding
    block, identity winding block, constant winding-to-flux rows."""
    P = helmholtz.canonical_pairing_matrix(lat)
    n = lat.n_plaqs
    return max(
        np.abs(P[:n, :n] - (np.eye(n) - 1.0 / n)).max(),
        np.abs(P[:n, n:]).max(),
        np.abs(P[n:, n:] - np.eye(lat.n_global_loops)).max(),
        np.abs(P[n:, :n] - P[n:, :1]).max(),
    )


def _degree_of_freedom_match(lat, rng):
    return 0.0 if dualmap.dof_report(lat)["match"] else 1.0


def _greens_inverts_laplacian(lat, rng):
    n = lat.n_sites
    G = greens.greens_sites(lat).values
    return np.abs(-(laplacian_matrix(lat, "site") @ G) - (np.eye(n) - 1.0 / n)).max()


def _potential_reconstruction(lat, rng):
    dec = _random_decomposition(lat, rng)
    return np.abs(helmholtz.reconstruct_transverse(dec.potential).values - dec.transverse.values).max()


def _shift_pairing(lat, rng):
    F = _random_field(lat, rng)
    via_shifts = helmholtz.transverse_component_via_shifts(lat, F)
    return np.abs(via_shifts - helmholtz.helmholtz_decompose(lat, F).transverse.values).max()


def _dual_kernel_count(lat, rng):
    """Zero iff the constraint rows C lie in ker D and span it.

    D = emb^T emb, so ker D = ker emb and dim ker D = n - rank(emb), counted
    by exact elimination of the sparse incidence matrix emb.  The residual
    is the first nonzero of: the largest entry of D - emb^T emb (the identity
    the count rests on), the largest entry of D·C^T (rows off the kernel),
    and |n - rank(emb) - n_independent| (rows short of the kernel)."""
    D = dualmap.d_matrix(lat)
    emb = dualmap.dual_embedding(lat).matrix
    cons = dualmap.constraint_set(lat)
    not_gram = np.abs((D - emb.T @ emb).data).max(initial=0)
    if not_gram:
        return not_gram
    off_kernel = np.abs((D @ cons.matrix.T).data).max(initial=0)
    if off_kernel:
        return off_kernel
    return abs(D.shape[1] - rational.rank(emb) - cons.n_independent)


def _positive_semidefinite(lat, rng):
    return max(0.0, -np.linalg.eigvalsh(dualmap.d_matrix(lat).toarray()).min())


def _always(lat):
    return True


def _three_d(lat):
    return lat.dim == 3


def _two_d_open(lat):
    return lat.dim == 2 and not lat.periodic


def _two_d_periodic(lat):
    return lat.dim == 2 and lat.periodic


CHECKS: tuple[Check, ...] = (
    Check("divergence_is_minus_gradient_transpose", _always, _divergence_vs_gradient, 0, maps=True),
    Check("backward_curl_is_forward_transpose", _always, _backward_vs_forward_curl, 0, maps=True),
    Check("curl_of_gradient_vanishes", _always, _curl_of_gradient_vanishes, 0, maps=True),
    Check("cube_flux_of_curl_vanishes", _three_d, _cube_flux_of_curl_vanishes, 0, maps=True),
    Check("helmholtz_round_trip", _always, _helmholtz_round_trip, 1e-12, maps=True),
    Check("transverse_is_divergence_free", _always, _transverse_is_divergence_free, 1e-12, maps=True),
    Check("longitudinal_is_curl_free", _always, _longitudinal_is_curl_free, 1e-12, maps=True),
    Check("interaction_matrix_symmetric", _always, _interaction_matrix_symmetric, 0, maps=True),
    Check("quadratic_form_equivalence", _always, _quadratic_form_equivalence, 1e-10, maps=True),
    Check("canonical_pairing_identity", _two_d_open, _canonical_pairing_identity, 1e-10, maps=True),
    Check(
        "canonical_pairing_identity_on_constraint_quotient",
        _two_d_periodic,
        _pairing_on_constraint_quotient,
        1e-10,
        maps=True,
    ),
    Check("degree_of_freedom_match", _always, _degree_of_freedom_match, 0, maps=True),
    Check("greens_site_inverts_laplacian_on_zero_sum", _always, _greens_inverts_laplacian, 1e-10),
    Check("transverse_reconstruction_from_potential", _always, _potential_reconstruction, 1e-10, draws=5),
    Check("shift_pairing_reproduces_transverse_part", _always, _shift_pairing, 1e-10, draws=5),
    Check("dual_kernel_matches_constraint_count", _always, _dual_kernel_count, 0),
    Check("positive_semidefinite", _always, _positive_semidefinite, 1e-10),
)


def get(name: str) -> Check:
    """The entry called ``name``."""
    return next(c for c in CHECKS if c.name == name)


def run(lat: Lattice, seed: int, maps_only: bool = False) -> list[dict]:
    """Report rows of the entries that apply to ``lat``, in table order."""
    rng = np.random.default_rng(seed)
    return [check.report(lat, rng) for check in CHECKS if check.applies(lat) and (check.maps or not maps_only)]
