"""Gauge-redundancy-free dual formulations of compact lattice QED.

Lattice vector calculus, Green's functions, Helmholtz decompositions and
shift tables, dual-variable maps, and exact-diagonalization Hamiltonians for
the electric-field and dual (plaquette / winding) descriptions, with matched
spectra at desk scale.
"""

from .dualmap import dof_report
from .greens import greens_table
from .hamiltonian import ModelParams, h_dual_thetam, h_original
from .helmholtz import helmholtz_decompose, link_shift_table
from .hilbert import HilbertSpec, gauss_sector_basis
from .lattice import (
    FieldVector,
    Lattice,
    LinearMap,
    curl_link_to_plaq,
    curl_plaq_to_link,
    cube_flux,
    divergence,
    gradient,
    laplacian,
)
from .spectrum import CompareConfig, compare_formulations, flux_sector_basis, lowest_eigenvalues

__all__ = [
    "CompareConfig",
    "FieldVector",
    "HilbertSpec",
    "Lattice",
    "LinearMap",
    "ModelParams",
    "compare_formulations",
    "curl_link_to_plaq",
    "curl_plaq_to_link",
    "cube_flux",
    "divergence",
    "dof_report",
    "flux_sector_basis",
    "gauss_sector_basis",
    "gradient",
    "greens_table",
    "h_dual_thetam",
    "h_original",
    "helmholtz_decompose",
    "laplacian",
    "link_shift_table",
    "lowest_eigenvalues",
]

__version__ = "0.1.0"
