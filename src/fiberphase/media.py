"""Gyrotropic-medium dispersion and selective suppression of circular modes.

For on-axis propagation the two circular polarizations see refractive
indices squared  n2_pm = (eps1 +- eps2)(mu1 +- mu2); a sign choice of the
tensor parameters can make one of them negative (evanescent), and a finite
chamber additionally expels modes whose wave vector falls below pi / a.
Either mechanism removes one circular mode together with its zero-point
field, leaving an uncancelled vacuum phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import Ordering, _weight
from .geometry import SphericalAngles
from .spin import _check_polarization

__all__ = [
    "GyrotropicMedium",
    "ModeStatus",
    "NetVacuumPhase",
    "refractive_indices_squared",
    "mode_status",
    "casimir_cutoff",
    "effective_wave_vector",
    "net_vacuum_phase",
]


@dataclass(frozen=True)
class GyrotropicMedium:
    """Transverse tensor parameters of a gyrotropic medium (dimensionless).

    The on-axis dispersion along the third axis involves only these
    transverse components, so the axial ones are not held.
    """

    eps1: float
    eps2: float
    mu1: float = 1.0
    mu2: float = 0.0

    def __post_init__(self):
        for name in ("eps1", "eps2", "mu1", "mu2"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class ModeStatus(NamedTuple):
    n2_plus: float
    n2_minus: float
    plus_propagates: bool
    minus_propagates: bool


class NetVacuumPhase(NamedTuple):
    """Uncancelled zero-point phase and which circular modes survived."""

    phase: float
    plus_survives: bool
    minus_survives: bool

    @property
    def no_propagating_modes(self) -> bool:
        return not (self.plus_survives or self.minus_survives)


def refractive_indices_squared(medium: GyrotropicMedium):
    """(n2_plus, n2_minus) = ((eps1+eps2)(mu1+mu2), (eps1-eps2)(mu1-mu2))."""
    return (
        (medium.eps1 + medium.eps2) * (medium.mu1 + medium.mu2),
        (medium.eps1 - medium.eps2) * (medium.mu1 - medium.mu2),
    )


def mode_status(medium: GyrotropicMedium) -> ModeStatus:
    """Sign test of the two indices; n^2 = 0 counts as non-propagating."""
    n2p, n2m = refractive_indices_squared(medium)
    return ModeStatus(n2p, n2m, n2p > 0.0, n2m > 0.0)


def casimir_cutoff(k, chamber_length) -> bool:
    """True when a mode of wave vector ``k`` is expelled from the chamber.

    Inside a region of scale ``chamber_length`` = a, zero-point modes with
    k strictly below pi / a cannot form; k = pi / a exactly still propagates.
    ``chamber_length`` must be finite; an overflowed k = inf is not expelled.
    """
    if not k > 0:
        raise ValueError(f"wave vector must be positive, got {k!r}")
    if not 0 < chamber_length < np.inf:
        raise ValueError(f"chamber_length must be positive and finite, got {chamber_length!r}")
    return k < np.pi / chamber_length


def effective_wave_vector(medium: GyrotropicMedium, k0, polarization):
    """In-medium wave vector n_pm * k0, or None when the mode is evanescent; ``k0`` must be positive and finite."""
    if not 0 < k0 < np.inf:
        raise ValueError(f"k0 must be positive and finite, got {k0!r}")
    n2p, n2m = refractive_indices_squared(medium)
    n2 = n2p if _check_polarization(polarization) == +1 else n2m
    if n2 <= 0.0:
        return None
    return float(np.sqrt(n2) * k0)


def _survives(medium: GyrotropicMedium, k0, chamber_length, polarization) -> bool:
    """Whether the ``polarization`` mode propagates and, given a chamber length, is not expelled."""
    k_eff = effective_wave_vector(medium, k0, polarization)
    # an evanescent mode's chamber length is checked too: casimir_cutoff never expels k = inf
    expelled = chamber_length is not None and casimir_cutoff(np.inf if k_eff is None else k_eff, chamber_length)
    return k_eff is not None and not expelled


def net_vacuum_phase(
    medium: GyrotropicMedium,
    k0,
    angles: SphericalAngles,
    chamber_length=None,
    ordering=Ordering.SYMMETRIC,
) -> NetVacuumPhase:
    """Sum of the final zero-point phases of the circular modes that survive.

    A mode survives when its index squared is positive and, if a chamber
    length is given, its in-medium wave vector is not expelled.  Both modes
    surviving gives exact cancellation (phase 0); exactly one surviving
    leaves +-W/2, with W the swept solid angle at the last sample; none
    surviving gives 0 with ``no_propagating_modes`` set.  Under normal
    ordering there is no zero-point term, so the phase is 0 whichever modes
    survive.
    """
    surv = {pol: _survives(medium, k0, chamber_length, pol) for pol in (+1, -1)}
    phase = 0.0 + _weight(0, Ordering.coerce(ordering)) * float(angles.solid_angle[-1]) * (surv[+1] - surv[-1])
    return NetVacuumPhase(phase=phase, plus_survives=surv[+1], minus_survives=surv[-1])
