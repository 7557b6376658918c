"""Hydrogenlike orbital data: the atom and switching specifications and the
coefficients of the closed-form radial overlap integrals.

Natural units with c = 1 throughout; a0 is the generalized Bohr radius and
the energy gap Omega is an inverse length.  Only the levels that enter the
harvesting calculation are supported: 1s, 2s and 2p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .angular import EulerAngles

__all__ = [
    "AtomSpec",
    "SwitchingKind",
    "RADIAL_OVERLAP_L0_COEFF",
    "RADIAL_OVERLAP_L2_COEFF",
]

# read by ``oracle.radial_overlap``: int_0^inf r^3 R21 R10 j_l(kr) dr, u = (a0 k)^2
#   l=0: c0 * a0 * (9 - 4u) / (4u + 9)^4      c0 = 384 sqrt(6)
#   l=2: c2 * a0 * u / (4u + 9)^4             c2 = 3072 sqrt(6)
RADIAL_OVERLAP_L0_COEFF = 384.0 * math.sqrt(6.0)
RADIAL_OVERLAP_L2_COEFF = 3072.0 * math.sqrt(6.0)

# light contact is possible within |d - |t_BA|| < 8 sigma
LIGHTCONE_SIGMAS = 8.0


def _outside_lightcone(d, t_ba, sigma):
    # no light contact, |d - |t_BA|| >= 8 sigma: floats, or arrays term by term
    return abs(d - abs(t_ba)) >= LIGHTCONE_SIGMAS * sigma


@dataclass(frozen=True)
class SwitchingKind:
    """Gaussian switching, cropped at crop_sigmas for "cropped_gaussian".
    "auto" crops only pairs outside the lightcone band, where the Gaussian
    tails would otherwise be suspected of carrying the signal."""

    variant: str = "gaussian"
    crop_sigmas: float = 8.0

    def __post_init__(self):
        if self.variant not in ("gaussian", "cropped_gaussian", "auto"):
            raise ValueError(f"unknown switching variant {self.variant!r}")
        if not (self.crop_sigmas > 0):
            raise ValueError("crop_sigmas must be positive")

    def resolve(self, d: float, t_ba: float, sigma: float) -> "SwitchingKind":
        """The concrete switching of a pair at separation d and delay t_ba."""
        if self.variant != "auto":
            return self
        if _outside_lightcone(d, t_ba, sigma):
            return SwitchingKind("cropped_gaussian", self.crop_sigmas)
        return SwitchingKind()


@dataclass(frozen=True)
class AtomSpec:
    """One static hydrogenlike atom with a Gaussian interaction window."""

    a0: float
    omega: float
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)
    switching_center: float = 0.0
    switching_width: float = 1.0  # T of exp(-(t - t0)^2 / T^2); sigma = T/sqrt(2)
    orientation: EulerAngles = field(default_factory=EulerAngles)

    def __post_init__(self):
        for name in ("a0", "omega", "switching_width", "switching_center"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not (self.a0 > 0):
            raise ValueError("a0 must be positive")
        if not (self.omega > 0):
            raise ValueError("omega must be positive")
        if not (self.switching_width > 0):
            raise ValueError("switching_width must be positive")
        if len(self.position) != 3 or not all(map(math.isfinite, self.position)):
            raise ValueError("position must be three finite numbers")

