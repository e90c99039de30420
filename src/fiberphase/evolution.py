"""Spin transport along a wave-vector trajectory and phase bookkeeping.

The driving generator is  H(t) = (k x k_dot)/k^2 . S ; a state prepared in an
eigenstate of the spin projection k_hat . S stays in it exactly (the
projection solves the Liouville-von Neumann equation for this H), so the
projection is conserved and the accumulated phase splits into a dynamical
part -Int <H> dt (identically zero here, since the generator's coefficient
vector is orthogonal to k_hat) and a geometric remainder.

Polarization convention (receiver/optics handedness): ``polarization`` = +1
labels right-handed and -1 left-handed circular light, and the spin
projection onto k_hat of a polarization-sigma photon is **-sigma**.  With
this labeling a right-handed photon on a counterclockwise cone of half-angle
c gains +2 pi (1 - cos c) per cycle, matching the occupation-number phase
formulas in :mod:`fiberphase.fock`.

Because h . S lies in so(3), every kernel here works on 3-vectors, not on
3x3 matrices: in the Cartesian representation (S_i)_jk = -i eps_ijk the
step exp(-i theta n . S) is the real rotation by theta about n (closed-form
Rodrigues formula), <psi|S|psi> = 2 Re psi x Im psi, and the residual
follows from [a . S, b . S] = i (a x b) . S with ||v . S||_F = sqrt(2) |v|.
States are stored in the angular-momentum basis of :mod:`fiberphase.spin`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import FiberPath, SphericalAngles, _read_only, solid_angle_series
from .spin import CARTESIAN_FROM_ANGULAR, helicity_eigenstates

__all__ = [
    "SpinorTrajectory",
    "PhaseDecomposition",
    "OrthogonalPassageWarning",
    "hamiltonian_coefficients",
    "evolve",
    "invariant_residual_series",
    "phase_decomposition",
    "analytic_noncyclic_phase",
    "helicity_expectations",
]

OVERLAP_FLOOR = 1e-9  # below this |<psi0|psi>|, the total phase is flagged


class OrthogonalPassageWarning(UserWarning):
    """The running state passed (nearly) orthogonal to the initial one."""


@dataclass(frozen=True)
class SpinorTrajectory:
    """Evolved 3-component spinor along a path.

    ``polarization`` is the circular-polarization label (+1 right, -1 left);
    the conserved spin projection onto k_hat equals ``-polarization``.
    """

    times: np.ndarray
    states: np.ndarray
    polarization: int

    @property
    def spin_projection(self) -> int:
        return -self.polarization

    @cached_property
    def spin_vectors(self) -> np.ndarray:
        """<psi|S|psi> at every sample, shape (n, 3), computed once and read-only.

        With psi in Cartesian form, psi^dagger S_i psi = -i (psi* x psi)_i
        = 2 (Re psi x Im psi)_i.
        """
        cart = self.states @ CARTESIAN_FROM_ANGULAR.T
        out = _cross(cart.real, cart.imag)
        del cart
        out *= 2.0
        return _read_only(out)


@dataclass(frozen=True)
class PhaseDecomposition:
    """Unwrapped phase record along a trajectory (radians).

    total      : arg <psi(0)|psi(t)>, continuous branch
    dynamical  : -Int_0^t <psi|H|psi> dt'
    geometric  : total - dynamical
    flagged    : samples where |<psi(0)|psi(t)>| < OVERLAP_FLOOR; their phases
                 are interpolated from neighbours and untrustworthy
    """

    times: np.ndarray
    total: np.ndarray
    dynamical: np.ndarray
    geometric: np.ndarray
    flagged: np.ndarray


def hamiltonian_coefficients(path: FiberPath) -> np.ndarray:
    """Coefficient vectors h(t_i) = (k x k_dot)/k^2 at every sample, shape (n, 3).

    This is the path's cached, read-only :attr:`FiberPath.h`.  The
    finite-rotation route, ``geometry.rotation_vectors(path) / path.dt``,
    agrees with ``h[:-1]`` to first order in dt.
    """
    return path.h


def _cross(a, b):
    """``np.cross(a, b)`` over the last axis (length 3), without copying the operands.

    Component i is a_j b_k - a_k b_j with the same float operations as
    ``np.cross``, so the result is bitwise equal; the only scratch is one
    component-sized array.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    tmp = np.empty(out.shape[:-1])
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(a[..., j], b[..., k], out=out[..., i])
        np.multiply(a[..., k], b[..., j], out=tmp)
        out[..., i] -= tmp
    return out


def _rotate(x, axis, sin, vers):
    """Rodrigues rotation x + sin (n x x) + (1 - cos) n x (n x x) about unit n.

    ``sin`` and ``vers`` = 1 - cos of the angle carry a trailing length-1
    axis so they broadcast against ``x``.  Adding only the small corrections
    to ``x`` keeps per-step rounding relative to the angle, and a zero axis
    is the exact identity.
    """
    turn = np.cross(axis, x)
    return x + turn * sin + np.cross(axis, turn) * vers


def evolve(path: FiberPath, polarization: int = +1) -> SpinorTrajectory:
    """Propagate a circularly polarized photon spinor along the path.

    The initial state is the gauge-fixed eigenstate of k_hat(t0) . S with
    eigenvalue ``-polarization`` (receiver handedness convention).  Each step
    applies the exact unitary exp(-i H_mid dt) with H_mid built from the
    midpoint-interpolated coefficient vector h_mid.  In the Cartesian
    representation (S_i)_jk = -i eps_ijk that unitary is the real rotation by
    |h_mid| dt about h_mid (closed-form Rodrigues formula), so norms are
    preserved to rounding.  The steps are composed by a two-level scan over
    about sqrt(n) blocks of sqrt(n) steps: the block rotations are built
    across all blocks at once, the state is carried over the block starts,
    and then every block is filled in at once.
    """
    if polarization not in (-1, +1):
        raise ValueError(
            f"polarization must be +1 (right) or -1 (left), got {polarization!r}; "
            "helicity-0 photon states are unphysical for transverse light"
        )
    h = hamiltonian_coefficients(path)
    h_mid = 0.5 * (h[:-1] + h[1:])
    n_steps = len(h_mid)
    size = int(np.ceil(np.sqrt(n_steps)))
    n_blocks = -(-n_steps // size)

    # per-step axis and angle, padded with identity steps to fill the last block;
    # each per-step array is freed as soon as its last reader has run
    rate = np.linalg.norm(h_mid, axis=1)
    axis = np.zeros((n_blocks * size, 3))
    np.divide(h_mid, rate[:, None], out=axis[:n_steps], where=rate[:, None] > 0.0)
    del h_mid
    angle = np.zeros((n_blocks * size, 1))
    angle[:n_steps, 0] = rate * path.dt
    del rate
    sin = np.sin(angle)
    vers = 2.0 * np.sin(0.5 * angle) ** 2
    del angle
    axis, sin, vers = (a.reshape(n_blocks, size, -1) for a in (axis, sin, vers))

    # block rotations: row k of frames[b] is the image of the unit vector e_k
    frames = np.broadcast_to(np.eye(3), (n_blocks, 3, 3)).copy()
    for j in range(size):
        frames = _rotate(frames, axis[:, j, None], sin[:, j, None], vers[:, j, None])

    start = helicity_eigenstates(path.k_hat[0]).state(-polarization)
    states = np.empty((n_blocks * size + 1, 3), dtype=complex)
    blocks = states[:-1].reshape(n_blocks, size, 3)
    current = CARTESIAN_FROM_ANGULAR @ start
    for b in range(n_blocks):
        blocks[b, 0] = current
        current = current @ frames[b]
    states[-1] = current
    for j in range(size - 1):
        blocks[:, j + 1] = _rotate(blocks[:, j], axis[:, j], sin[:, j], vers[:, j])
    del axis, sin, vers

    # back to the angular-momentum basis: psi_ang = C^dagger psi_cart
    states = states[: path.n_samples] @ CARTESIAN_FROM_ANGULAR.conj()
    return SpinorTrajectory(times=path.times, states=states, polarization=polarization)


def invariant_residual_series(path: FiberPath, scale: float = 1.0) -> np.ndarray:
    """Residuals at all interior samples (length n-2); ``scale`` multiplies H.

    From [a . S, b . S] = i (a x b) . S and ||v . S||_F = sqrt(2) |v|, the
    residual is sqrt(2) |D k_hat + k_hat x (scale h)| with D the central
    difference.  ``scale`` != 1 is a negative control: any generator other
    than the effective one leaves an O(1) residual.  The float operations are
    those of the whole-array expression, done in place.
    """
    kh = path.k_hat
    turn = _cross(kh[1:-1], scale * hamiltonian_coefficients(path)[1:-1])
    vec = np.subtract(kh[2:], kh[:-2])
    vec /= 2.0 * path.dt
    vec += turn
    del turn
    np.square(vec, out=vec)
    residual = np.add.reduce(vec, axis=1)
    del vec
    np.sqrt(residual, out=residual)
    residual *= np.sqrt(2.0)
    return residual


def helicity_expectations(traj: SpinorTrajectory, path: FiberPath) -> np.ndarray:
    """<psi | k_hat . S | psi> at every sample; conserved at -polarization."""
    return np.einsum("ni,ni->n", path.k_hat, traj.spin_vectors)


def _unwrap_with_flags(overlaps: np.ndarray):
    """Continuously unwrapped arg of the overlaps, interpolating flagged dips."""
    flagged = np.abs(overlaps) < OVERLAP_FLOOR
    if flagged.all():
        raise ValueError("every overlap is numerically zero; cannot define a phase")
    good = ~flagged
    idx = np.arange(len(overlaps))
    unwrapped_good = np.unwrap(np.angle(overlaps[good]))
    total = np.interp(idx, idx[good], unwrapped_good)
    if flagged.any():
        warnings.warn(
            f"{int(flagged.sum())} sample(s) passed within {OVERLAP_FLOOR:g} of orthogonality; "
            "their total phase is interpolated from neighbours",
            OrthogonalPassageWarning,
            stacklevel=3,
        )
    return total, flagged


def phase_decomposition(traj: SpinorTrajectory, path: FiberPath) -> PhaseDecomposition:
    """Split the accumulated phase into total, dynamical and geometric parts.

    The total is the unwrapped overlap phase arg <psi(0)|psi(t)>; the
    dynamical part integrates -<H> = -h . <S> by the trapezoidal rule on the
    shared grid; the geometric part is their difference.  Samples passing
    nearly orthogonal to the initial state are flagged and bridged by
    interpolation (an :class:`OrthogonalPassageWarning` is emitted).
    """
    if traj.states.shape[0] != path.n_samples:
        raise ValueError("trajectory and path do not share a time grid")
    overlaps = traj.states @ traj.states[0].conj()
    total, flagged = _unwrap_with_flags(overlaps)
    total = total - total[0]

    energy = np.einsum("ni,ni->n", hamiltonian_coefficients(path), traj.spin_vectors)
    dt = path.dt
    dynamical = np.empty_like(energy)
    dynamical[0] = 0.0
    np.cumsum((energy[1:] + energy[:-1]) * (-0.5 * dt), out=dynamical[1:])

    return PhaseDecomposition(
        times=path.times,
        total=total,
        dynamical=dynamical,
        geometric=total - dynamical,
        flagged=flagged,
    )


def analytic_noncyclic_phase(angles: SphericalAngles, polarization: int):
    """Closed-form transport phase series  sigma * Int_0^t azimuth_rate (1 - cos polar) dt'.

    Reduces to sigma * 2 pi (1 - cos c) per full cycle of a cone of
    half-angle c.
    """
    if polarization not in (-1, +1):
        raise ValueError(f"polarization must be +1 or -1, got {polarization!r}")
    return polarization * solid_angle_series(angles)
