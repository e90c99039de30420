"""Spin-1 operator algebra and helicity eigenstructure.

Matrices are given in the angular-momentum basis (|m=+1>, |m=0>, |m=-1>),
so the z component is diagonal.  hbar = 1 throughout.  The Cartesian
(antisymmetric) representation (S_i)_{jk} = -i eps_{ijk} is unitarily
equivalent via ``CARTESIAN_FROM_ANGULAR``; it is documented here but not a
second code path.
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
    positive, magnitude ties breaking toward the lowest index.
    """

    e_minus: np.ndarray
    e_zero: np.ndarray
    e_plus: np.ndarray

    def state(self, eigenvalue):
        """Return the eigenvector for spin projection -1, 0 or +1."""
        if eigenvalue == -1:
            return self.e_minus
        if eigenvalue == 0:
            return self.e_zero
        if eigenvalue == +1:
            return self.e_plus
        raise ValueError(f"spin projection must be -1, 0 or +1, got {eigenvalue}")


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
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"direction must be unit length (|v| = {norm!r})")
    return d


def helicity_operator(direction) -> np.ndarray:
    """Projection of the spin onto a unit propagation direction.

    Returns the Hermitian 3x3 matrix d . S of :func:`spin1_matrices`, with
    eigenvalues {-1, 0, +1}.  Rejects non-unit ``direction``.
    """
    return spin1_matrices().along(_check_unit(direction))


def _fix_gauge(vec: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximum, which is the lowest-index tie-break.
    j = int(np.argmax(np.abs(vec)))
    return vec * (vec[j].conjugate() / abs(vec[j]))


def helicity_eigenstates(direction) -> HelicityBasis:
    """Orthonormal eigenbasis of :func:`helicity_operator` along ``direction``, deterministically phased.

    In each eigenvector the component of largest magnitude is made real and
    positive, magnitude ties breaking toward the lowest component index (of
    ``eigh``'s rounded output, so at an exact tie its rounding picks the
    component).  Identical inputs give bitwise-identical outputs.
    """
    w, v = np.linalg.eigh(helicity_operator(direction))  # ascending eigenvalues ~ (-1, 0, +1)
    if np.max(np.abs(w - np.array([-1.0, 0.0, 1.0]))) > 1e-9:
        raise ValueError(f"helicity spectrum deviates from (-1, 0, 1): {w!r}")
    return HelicityBasis(*(_fix_gauge(v[:, i]) for i in range(3)))
