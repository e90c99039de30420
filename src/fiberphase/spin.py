"""Spin-1 operator algebra and helicity eigenstructure, hbar = 1.

Matrices are given in the angular-momentum basis (|m=+1>, |m=0>, |m=-1>), so
s3 is diagonal; the Cartesian representation (S_i)_{jk} = -i eps_{ijk} is
unitarily equivalent via ``CARTESIAN_FROM_ANGULAR`` (documented, not a second
code path).  The helicity eigenstates are Wigner D^1 columns in closed form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _is_integer

__all__ = [
    "SpinTriple",
    "HelicityBasis",
    "spin1_matrices",
    "helicity_operator",
    "helicity_eigenstates",
    "CARTESIAN_FROM_ANGULAR",
]

_SQ = 1.0 / np.sqrt(2.0)

# Unitary taking angular-momentum components to Cartesian ones: its columns
# are the spherical unit vectors -(x+iy)/sqrt2, z, (x-iy)/sqrt2, so
# v_cart = CARTESIAN_FROM_ANGULAR @ v_ang and conjugation maps the matrices
# below onto (S_i)_{jk} = -i eps_{ijk}.
CARTESIAN_FROM_ANGULAR = np.array(
    [
        [-_SQ, 0.0, _SQ],
        [-1j * _SQ, 0.0, -1j * _SQ],
        [0.0, 1.0, 0.0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class SpinTriple:
    """The three spin-1 matrices (s1, s2, s3), each 3x3 complex Hermitian."""

    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    def along(self, direction):
        """Contract with a 3-vector: direction[0]*s1 + direction[1]*s2 + direction[2]*s3."""
        d = np.asarray(direction, dtype=float)
        return d[0] * self.s1 + d[1] * self.s2 + d[2] * self.s3


@dataclass(frozen=True)
class HelicityBasis:
    """Orthonormal eigentriple of the helicity operator along a direction.

    ``e_minus``, ``e_zero``, ``e_plus`` carry eigenvalues -1, 0, +1 of
    direction . S; in each, the component of largest magnitude is real and
    positive, exact magnitude ties breaking toward the lowest index.
    """

    e_minus: np.ndarray
    e_zero: np.ndarray
    e_plus: np.ndarray

    def state(self, eigenvalue):
        """Return the eigenvector for spin projection ``eigenvalue``, the Python or numpy integer -1, 0 or +1."""
        if not (_is_integer(eigenvalue) and eigenvalue in (-1, 0, 1)):
            raise ValueError(f"spin projection must be the integer -1, 0 or +1, got {eigenvalue!r}")
        return (self.e_minus, self.e_zero, self.e_plus)[eigenvalue + 1]


def spin1_matrices() -> SpinTriple:
    """Spin-1 matrices in the angular-momentum basis, s3 = diag(1, 0, -1).

    They satisfy S x S = iS componentwise and s1^2 + s2^2 + s3^2 = 2*I.
    """
    s1 = np.array([[0, _SQ, 0], [_SQ, 0, _SQ], [0, _SQ, 0]], dtype=complex)
    s2 = np.array([[0, -1j * _SQ, 0], [1j * _SQ, 0, -1j * _SQ], [0, 1j * _SQ, 0]], dtype=complex)
    s3 = np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex)
    return SpinTriple(s1, s2, s3)


def _check_polarization(polarization) -> int:
    """``polarization`` as an int if it is the Python or numpy integer +1 (right) or -1 (left).

    Its photon's spin projection onto k_hat is -polarization; the helicity-0
    state is unphysical for transverse light.
    """
    if not (_is_integer(polarization) and polarization in (-1, 1)):
        raise ValueError(f"polarization must be the integer +1 (right) or -1 (left), got {polarization!r}")
    return int(polarization)


def _check_unit(direction) -> np.ndarray:
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError(f"direction must be a 3-vector, got shape {d.shape}")
    norm = np.linalg.norm(d)
    if not abs(norm - 1.0) <= 1e-9:  # also rejects a NaN or infinite component
        raise ValueError(f"direction must be finite and of unit length (|v| = {norm!r})")
    return d / norm  # so that eigenstates built from it are normalised to rounding


def helicity_operator(direction) -> np.ndarray:
    """Projection of the spin onto a unit propagation direction.

    Returns the Hermitian 3x3 matrix d . S of :func:`spin1_matrices`, d the
    normalised ``direction``, with eigenvalues {-1, 0, +1}; rejects a non-unit one.
    """
    return spin1_matrices().along(_check_unit(direction))


def _fix_gauge(vec: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximum, which is the lowest-index tie-break.
    j = int(np.argmax(np.abs(vec)))
    out = vec * (vec[j].conjugate() / abs(vec[j]))
    out[j] = np.abs(out).max()  # the product can round a tied partner one ulp above the chosen component
    return out


def helicity_eigenstates(direction) -> HelicityBasis:
    """Orthonormal eigenbasis of :func:`helicity_operator` along ``direction``, deterministically phased.

    The -1, 0, +1 states are the m' = -1, 0, +1 columns of D^1(phi, theta, 0)
    for the normalised ``direction`` (x, y, z): cos(theta) = z and e^{i phi} =
    (x + iy)/sin(theta), or 1 at a pole.  The 0 state's tied outer components
    are the conjugate pair -+(x -+ iy)/sqrt2, of bitwise-equal magnitude.  Each
    state's largest-magnitude component is made real and positive, exact ties
    going to the lowest index; identical inputs give bitwise-identical outputs.
    """
    x, y, z = _check_unit(direction)
    sin = np.hypot(x, y)
    phase = complex(x / sin, y / sin) if sin else 1.0 + 0.0j  # e^{i phi}
    up, down, tilt, back = (1.0 + z) / 2.0, (1.0 - z) / 2.0, sin * _SQ, phase.conjugate()
    columns = ([back * down, -tilt, phase * up], [complex(-x, y) * _SQ, z, complex(x, y) * _SQ], [back * up, tilt, phase * down])
    return HelicityBasis(*(_fix_gauge(np.array(c, dtype=complex)) for c in columns))
