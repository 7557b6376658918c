"""Entanglement harvesting from the field vacuum with hydrogenlike atoms.

Computes the leading-order negativity/concurrence harvested by two localized
two-level atoms under three light-matter couplings (Unruh-DeWitt scalar,
derivative scalar, electromagnetic dipole with hydrogenlike orbitals),
including the orientation dependence of the dipole case and spacelike
harvesting diagnostics.
"""

__version__ = "0.1.0"

from .angular import EulerAngles
from .atoms import AtomSpec, SwitchingKind
from .harvesting import (DetectorPair, HarvestTerms, ModelKind,
                         assemble_state, compute_terms, cross_noise_term,
                         local_term, nonlocal_term)
from .survey import Axis, ScanGrid, optimal_orientations, run_grid

__all__ = [
    "__version__",
    "EulerAngles",
    "AtomSpec",
    "SwitchingKind",
    "DetectorPair",
    "HarvestTerms",
    "ModelKind",
    "assemble_state",
    "compute_terms",
    "cross_noise_term",
    "local_term",
    "nonlocal_term",
    "Axis",
    "ScanGrid",
    "optimal_orientations",
    "run_grid",
]
