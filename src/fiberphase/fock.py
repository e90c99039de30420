"""Occupation-number and zero-point phases of the two circular modes.

The phase accumulated over a swept solid angle W is diagonal in the two-mode
occupation basis: the left-handed mode contributes -weight_L(n_L) * W and the
right-handed mode +weight_R(n_R) * W, where the weight per mode is n under
normal ordering and n + 1/2 under symmetric (Weyl) ordering.  The +-1/2
pieces are the zero-point contribution; they cancel in the sum, which is why
the per-mode phases are exposed separately and never only as a total.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .geometry import SphericalAngles, _check_cone_angle, _is_integer
from .spin import _check_polarization

__all__ = [
    "Ordering",
    "FockLadder",
    "cyclic_phases",
    "quantal_geometric_phase",
    "vacuum_phase",
    "phase_spectrum",
]


class Ordering(enum.Enum):
    """Operator-ordering choice for the mode weights."""

    NORMAL = "normal"        # weight(n) = n: zero-point term deleted
    SYMMETRIC = "symmetric"  # weight(n) = n + 1/2: zero-point term kept

    @classmethod
    def coerce(cls, value) -> "Ordering":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(f"ordering must be 'normal' or 'symmetric', got {value!r}") from None


def _weight(n, ordering: Ordering) -> float:
    if ordering is Ordering.SYMMETRIC:
        return n + 0.5
    return float(n)


def _check_occupation(n, name) -> int:
    """``n`` as an int if it is an integer in [0, 2**52); from 2**52 on, n + 1/2 is not exact in float64."""
    if not (_is_integer(n) and 0 <= n < 2**52):
        raise ValueError(f"{name}: expected a nonnegative integer below 2**52, got {n!r}")
    return int(n)


@dataclass(frozen=True)
class FockLadder:
    """Two-mode (left/right circular) occupation space truncated at ``n_max``.

    Basis states |n_left, n_right> are indexed n_left * (n_max + 1) + n_right,
    giving dimension (n_max + 1)^2.  Truncation only bounds the sweep tables;
    the phase weights are exact in n.
    """

    n_max: int = 8
    ordering: Ordering = Ordering.SYMMETRIC

    def __post_init__(self):
        if not (_is_integer(self.n_max) and self.n_max >= 1):
            raise ValueError(f"n_max must be an integer of at least 1, got {self.n_max!r}")
        object.__setattr__(self, "ordering", Ordering.coerce(self.ordering))

    @property
    def dim(self) -> int:
        return (self.n_max + 1) ** 2

    def labels(self):
        """(n_left, n_right) pairs in basis order."""
        per = self.n_max + 1
        return [(nl, nr) for nl in range(per) for nr in range(per)]


def cyclic_phases(n_left, n_right, cone_angle, ordering=Ordering.SYMMETRIC):
    """Per-mode phases after one full cone cycle of half-angle ``cone_angle``.

    Returns (phi_left, phi_right) with
    phi_left  = -weight(n_left)  * 2 pi (1 - cos cone_angle)
    phi_right = +weight(n_right) * 2 pi (1 - cos cone_angle).
    """
    n_left = _check_occupation(n_left, "n_left")
    n_right = _check_occupation(n_right, "n_right")
    _check_cone_angle(cone_angle)
    ordering = Ordering.coerce(ordering)
    cycle = 2.0 * np.pi * (1.0 - np.cos(cone_angle))
    return -_weight(n_left, ordering) * cycle, +_weight(n_right, ordering) * cycle


def quantal_geometric_phase(n_left, n_right, angles: SphericalAngles):
    """Occupation-difference phase series (n_right - n_left) * W(t).

    W is the cumulative swept solid angle of the trajectory; the zero-point
    halves cancel in this difference, so ordering does not enter.  Adding
    0.0 writes no sample as -0.0.
    """
    n_left = _check_occupation(n_left, "n_left")
    n_right = _check_occupation(n_right, "n_right")
    return (n_right - n_left) * angles.solid_angle + 0.0


def vacuum_phase(polarization, angles: SphericalAngles, ordering=Ordering.SYMMETRIC):
    """Zero-point phase series sigma * W(t) / 2 of one circular mode.

    The two polarizations carry opposite halves, so their sum vanishes
    identically; isolating one of them is the point of the gyrotropic
    suppression scheme in :mod:`fiberphase.media`.  Normal ordering deletes
    the zero-point term (its weight is 0), so the phase is then 0.0 at
    every sample; adding 0.0 writes no sample as -0.0.
    """
    return _check_polarization(polarization) * _weight(0, Ordering.coerce(ordering)) * angles.solid_angle + 0.0


def phase_spectrum(ladder: FockLadder, cone_angle) -> np.ndarray:
    """Cyclic phases for every basis state, as a structured table.

    Columns: n_left, n_right, phi_left, phi_right, phi_total, in basis order
    (n_left outer, n_right inner).
    """
    rows = np.zeros(
        ladder.dim,
        dtype=[
            ("n_left", int),
            ("n_right", int),
            ("phi_left", float),
            ("phi_right", float),
            ("phi_total", float),
        ],
    )
    for b, (nl, nr) in enumerate(ladder.labels()):
        pl, pr = cyclic_phases(nl, nr, cone_angle, ladder.ordering)
        rows[b] = (nl, nr, pl, pr, pl + pr)
    return rows
