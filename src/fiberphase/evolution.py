"""Spin transport along a wave-vector trajectory and phase bookkeeping.

The driving generator is  H(t) = (k x k_dot)/k^2 . S = (k_hat x k_hat_dot) . S,
built from k_hat alone, so it does not depend on |k|; a state prepared in an
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

Because h . S lies in so(3), every kernel here works on 3-vectors: in the
Cartesian representation (S_i)_jk = -i eps_ijk, exp(-i theta n . S) is the
real rotation by theta about n, <psi|S|psi> = 2 Re psi x Im psi, and the
residual follows from [a . S, b . S] = i (a x b) . S with ||v . S||_F =
sqrt(2) |v|.  Between two samples the transport follows the geodesic, along
which H is constant, so its exact step is the paper's finite rotation
between the samples (``geometry.rotation_vectors``).  :func:`evolve`
composes these steps and measures every series from the states; the
results columns read the same transport in closed form, from the swept
areas (``_fan`` and ``_unwrapped``).
"""
from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from . import geometry
from .geometry import FiberPath, SphericalAngles, _cross, _read_only
from .spin import CARTESIAN_FROM_ANGULAR, _check_polarization, helicity_eigenstates

__all__ = [
    "SpinorTrajectory",
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
    """Per-sample observables of the spinor evolved along ``path``.

    ``polarization`` is the circular-polarization label (+1 right, -1 left);
    the conserved spin projection onto k_hat equals ``-polarization``.
    :func:`evolve` measures each series from the transported states, as
    read-only arrays: ``total`` = arg <psi(0)|psi>, unwrapped, ``flagged``
    where |<psi(0)|psi>| < OVERLAP_FLOOR (their total is interpolated from
    neighbours and untrustworthy), ``dynamical`` = -Int h . <S> dt,
    ``helicity`` = k_hat . <S> and ``norms`` = ||psi||; :attr:`geometric` =
    total - dynamical is taken on every read.  The states themselves are
    transported again on first use of :attr:`states`.
    """

    path: FiberPath
    polarization: int
    total: np.ndarray
    flagged: np.ndarray
    dynamical: np.ndarray
    helicity: np.ndarray
    norms: np.ndarray

    @property
    def geometric(self) -> np.ndarray:
        return self.total - self.dynamical

    @cached_property
    def states(self) -> np.ndarray:
        """The evolved states in the angular-momentum basis, shape (n, 3), computed once and read-only."""
        states = np.empty((self.path.n_samples, 3), dtype=complex)
        for rows, psi in _chord_columns(self.path.k_hat, _start(self.path, self.polarization)):
            states[rows] = psi
        return _read_only(states @ CARTESIAN_FROM_ANGULAR.conj())  # psi_ang = C^dagger psi_cart, row by row


def hamiltonian_coefficients(path: FiberPath) -> np.ndarray:
    """Coefficient vectors h(t_i) = k_hat x k_hat_dot = (k x k_dot)/k^2 at every sample, shape (n, 3), read-only.

    A new array on every call, built a chunk of rows at a time; no stage
    calls it: :func:`evolve`'s dynamical phase and the invariant residual
    build their rows with the same kernel, ``geometry._stencil``.  The
    finite-rotation route, ``geometry.rotation_vectors(path) / path.dt``,
    agrees with ``h[:-1]`` to first order in dt.
    """
    h = np.empty((path.n_samples, 3))
    for rows, _, k_hat, lo in geometry._windows(path):
        rate = geometry._stencil(k_hat, rows.start - lo, rows.stop - rows.start, path.dt)[0]
        h[rows] = _cross(k_hat[rows.start - lo : rows.stop - lo], rate)
    return _read_only(h)


def _dot(a, b):
    """a . b over the last axis (length 3), one product per component, summed in order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _rotate(x, v, inv):
    """x + v x x + inv v x (v x x): the rotation taking unit a onto unit b, for v = a x b and inv = 1 / (1 + a . b).

    That is c x + v x x + v (v . x) / (1 + c) with c = a . b, with no
    arccos.  Adding only the small corrections to ``x`` keeps per-step
    rounding relative to the angle, and a zero ``v`` is the exact identity.
    """
    turn = _cross(v, x)
    out = x + turn
    turn = _cross(v, turn)
    turn *= inv
    out += turn
    return out


def _start(path: FiberPath, polarization: int) -> np.ndarray:
    """Cartesian form of the gauge-fixed closed-form eigenstate of k_hat(t0) . S with eigenvalue -polarization."""
    return CARTESIAN_FROM_ANGULAR @ helicity_eigenstates(path.rows(0, 1)[1][0]).state(-_check_polarization(polarization))


def _chord_columns(k_hat: np.ndarray, start: np.ndarray):
    """(rows, states) of the Cartesian states carried from ``start`` along the chords of ``k_hat``; a generator.

    The samples form about sqrt(n) blocks of sqrt(n).  The block rotations
    (row k of frames[b] is the image of e_k) are composed across the blocks
    at once, one polar Newton-Schulz step, F <- 1.5 F - 0.5 F F^T F
    (Higham, Functions of Matrices, ch. 8), keeps the carry over the block
    starts from chaining their rounding, and then column j of every block
    is filled from column j - 1.  A step past the last sample is the identity.
    """
    n = len(k_hat)
    size = int(np.ceil(np.sqrt(n)))
    firsts = np.arange(0, n, size)

    def steps(j):
        a, b = (k_hat.take(firsts + i, axis=0, mode="clip") for i in (j, j + 1))
        return _cross(a, b), 1.0 / (1.0 + _dot(a, b))[:, None]

    frames = np.broadcast_to(np.eye(3), (len(firsts), 3, 3)).copy()
    for j in range(size):
        v, inv = steps(j)
        frames = _rotate(frames, v[:, None], inv[:, None])
    gram = np.einsum("bij,bkj->bik", frames, frames)
    frames = 1.5 * frames - 0.5 * np.einsum("bik,bkl->bil", gram, frames)
    columns = np.empty((len(firsts), 3), dtype=complex)
    for b, frame in enumerate(frames):
        columns[b] = start
        start = start @ frame
    for j in range(size):
        rows = firsts + j
        yield rows[rows < n], columns[rows < n]
        if j + 1 < size:
            columns = _rotate(columns, *steps(j))


def _passage_warning(count: int) -> OrthogonalPassageWarning:
    return OrthogonalPassageWarning(f"{count} sample(s) passed within {OVERLAP_FLOOR:g} of orthogonality; "
                                    "their total phase is interpolated from neighbours")


def evolve(path: FiberPath, polarization: int = +1) -> SpinorTrajectory:
    """Propagate a circularly polarized photon spinor along the path: the reference integrator of H.

    The initial state is the eigenstate of k_hat(t0) . S with eigenvalue
    ``-polarization``.  Step i is H's exact propagator along the geodesic
    from k_hat_i to k_hat_(i+1), a real rotation, so norms are preserved to
    rounding.  Each series is measured from the states, a column of blocks
    at a time, with h from the stencil; the overlap angles are unwrapped,
    and those of samples passing nearly orthogonal to the initial state
    flagged and interpolated, in place in chunks of ``total`` by
    ``_unwrapped``, with an :class:`OrthogonalPassageWarning`.  No run path
    calls it: the results columns read the closed form of ``_fan``.
    """
    k_hat, dt = path.k_hat, path.dt
    start = _start(path, polarization)
    total, flagged, energy, helicity, norms = (np.empty(len(k_hat), dtype) for dtype in (float, bool, float, float, float))
    for rows, psi in _chord_columns(k_hat, start):
        overlap = _dot(psi, start.conj())
        total[rows] = np.angle(overlap)
        flagged[rows] = np.abs(overlap) < OVERLAP_FLOOR
        spin = 2.0 * _cross(psi.real, psi.imag)  # <S> = 2 Re psi x Im psi
        rate, k_rows = geometry._stencil(k_hat, rows, 1, dt)
        energy[rows] = _dot(_cross(k_rows[:, 0], rate[:, 0]), spin)
        helicity[rows] = _dot(k_rows[:, 0], spin)
        norms[rows] = np.linalg.norm(psi, axis=1)
    del k_hat
    energy[1:] = (energy[1:] + energy[:-1]) * (-0.5 * dt)  # trapezoid i of -h . <S>, then their running sum
    energy[0] = 0.0
    dynamical = np.cumsum(energy, out=energy)
    deque(_unwrapped((total[rows], flagged[rows], rows) for rows in geometry._row_slices(0, len(total))), maxlen=0)
    if count := int(np.count_nonzero(flagged)):
        warnings.warn(_passage_warning(count), stacklevel=2)
    return SpinorTrajectory(path, polarization, *map(_read_only, (total, flagged, dynamical, helicity, norms)))


_FAR = -0.5  # below this k0 . k_hat, a triangle of the fan takes an apex perpendicular to k0


def _area(p, a, b):
    """Signed area 2 atan2(p . (a x b), 1 + p . a + p . b + a . b) of the geodesic triangle (p, a, b) of unit vectors.

    Van Oosterom & Strackee, IEEE Trans. Biomed. Eng. BME-30, 125 (1983).
    """
    return 2.0 * np.arctan2(_dot(p, _cross(a, b)), 1.0 + _dot(p, a) + _dot(p, b) + _dot(a, b))


def _fan(windows, polarization: int):
    """(wrapped overlap angle, flags, window) of the chord transport, per window of ``geometry._windows``; a generator.

    Each chord step turns psi about k_i x k_(i+1), perpendicular to <S> =
    -sigma k_hat, and keeps it a unit helicity eigenstate, so <psi_0|psi_i>
    = (1 + k0 . k_i) / 2 exp(i sigma fan_i), with fan_i the signed area of
    the polygon k0 .. k_i closed by the geodesic back to k0 (Samuel &
    Bhandari, PRL 60, 2339 (1988)): the sum of the triangles (k0, k_j,
    k_(j+1)), j < i, the first one exactly 0.  Near -k0 such a triangle is
    ill-conditioned, and its rounding would stay in every later row, so one
    with a vertex where k0 . k < ``_FAR`` is split about an apex p
    perpendicular to k0, as (p, a, b) + (p, b, k0) - (p, a, k0), whose
    closing triangles cancel from one step to the next.  The angle is sigma
    fan_i wrapped to [-pi, pi), and a row is flagged where (1 + k0 . k_i) /
    2 < ``OVERLAP_FLOOR``; the fan's sum carries from chunk to chunk.
    """
    sign, fan = _check_polarization(polarization), 0.0
    for window in windows:
        rows, _, k_hat, lo = window
        if rows.start == 0:
            k0 = k_hat[0]
            apex = _cross(k0, np.eye(3)[np.argmin(np.abs(k0))])
            apex = apex / np.linalg.norm(apex)
        k_hat = k_hat[max(rows.start - 1, 0) - lo : rows.stop - lo]  # the triangles that end at the chunk's rows
        a, b = k_hat[:-1], k_hat[1:]
        area, height = _area(k0, a, b), _dot(k_hat, k0)
        split = (height[:-1] < _FAR) | (height[1:] < _FAR)
        area[split] = _area(apex, a[split], b[split]) + _area(apex, b[split], k0) - _area(apex, a[split], k0)
        if rows.start <= 1:
            area[:1] = 0.0  # the degenerate triangle (k0, k0, k1)
        if rows.start == 0:
            area = np.concatenate([[0.0], area])  # row 0
        area[0] += fan  # where a whole-array cumsum adds it
        np.cumsum(area, out=area)
        fan = area[-1]
        angle = np.remainder(sign * area + np.pi, 2.0 * np.pi) - np.pi
        yield angle, (1.0 + height[len(height) - len(area) :]) * 0.5 < OVERLAP_FLOOR, window


def _unwrapped(pieces):
    """The (wrapped angle, flagged, tag) pieces, in order, each angle replaced in place by the total phase; a generator.

    The unflagged angles are unwrapped as one sequence (``geometry._Unwrap``)
    as each piece arrives, and the flagged ones interpolated between their
    unflagged neighbours: bit for bit ``np.interp`` over ``np.unwrap`` of
    the whole series.  As np.interp's value at a row reads only the two
    unflagged rows around it, the pieces are held until one ends on an
    unflagged row, or the pieces have ended; the flagged rows held are then
    interpolated over the held rows and the last row handed on.
    """
    unwrap, held, last = geometry._Unwrap(), [], []  # last: the total of the last row handed on, unflagged
    for piece in chain(pieces, [None]):
        if piece is not None:
            angle, flags, _ = piece
            angle[~flags] = unwrap(angle[~flags])
            held.append(piece)
        if held and (piece is None or not flags[-1]):
            if any(flags.any() for _, flags, _ in held):
                total = np.concatenate([last, *(angle for angle, _, _ in held)])
                flagged = np.concatenate([np.zeros(len(last), bool), *(flags for _, flags, _ in held)])
                total[flagged] = np.interp(np.flatnonzero(flagged), np.flatnonzero(~flagged), total[~flagged])
                for (angle, _, _), part in zip(held, np.split(total[len(last) :], np.cumsum([len(a) for a, _, _ in held]))):
                    angle[:] = part
            yield from held
            last, held = [held[-1][0][-1]], []


def invariant_residual_series(path: FiberPath, scale: float = 1.0) -> np.ndarray:
    """Residuals at all interior samples (length n-2); ``scale`` multiplies H.

    From [a . S, b . S] = i (a x b) . S and ||v . S||_F = sqrt(2) |v|, the
    residual is sqrt(2) |D k_hat + k_hat x (scale h)| with D the central
    difference.  ``scale`` != 1 is a negative control: any generator other
    than the effective one leaves an O(1) residual.  These are the rows
    1 .. n-2 of ``geometry._invariant_residual``, whose n rows a results
    column reads a chunk at a time.
    """
    return np.concatenate([geometry._invariant_residual(path, window, scale) for window in geometry._windows(path)])[1:-1]


def _check_grid(traj: SpinorTrajectory, path: FiberPath) -> None:
    """Raise ValueError unless ``traj``'s path has ``path``'s sample count, first time and step."""
    grids = [(p.n_samples, p.rows(0, 1)[0][0], p.dt) for p in (traj.path, path)]
    if grids[0] != grids[1]:
        raise ValueError("trajectory and path do not share a time grid")


def helicity_expectations(traj: SpinorTrajectory, path: FiberPath) -> np.ndarray:
    """<psi | k_hat . S | psi> at every sample (read-only), conserved at -polarization; ``path`` must share traj's grid."""
    _check_grid(traj, path)
    return traj.helicity


def phase_decomposition(traj: SpinorTrajectory, path: FiberPath) -> SpinorTrajectory:
    """Split the accumulated phase into total, dynamical and geometric parts: the trajectory itself.

    :func:`evolve` computed the unwrapped total arg <psi(0)|psi(t)>, the
    trapezoidal -Int h . <S> dt and the flags along the trajectory's own
    path, which must share ``path``'s grid; after that check ``traj`` itself
    is returned, and its geometric part is taken when it is read.
    """
    _check_grid(traj, path)
    return traj


def analytic_noncyclic_phase(angles: SphericalAngles, polarization: int):
    """Closed-form transport phase series  sigma * Int_0^t azimuth_rate (1 - cos polar) dt'.

    Reduces to sigma * 2 pi (1 - cos c) per full cycle of a cone of
    half-angle c.  Adding 0.0 writes no sample as -0.0.
    """
    return _check_polarization(polarization) * angles.solid_angle + 0.0
