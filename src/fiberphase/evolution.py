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

Because h . S lies in so(3), every kernel here works on 3-vectors, not on
3x3 matrices: in the Cartesian representation (S_i)_jk = -i eps_ijk the
step exp(-i theta n . S) is the real rotation by theta about n (closed-form
Rodrigues formula), <psi|S|psi> = 2 Re psi x Im psi, and the residual
follows from [a . S, b . S] = i (a x b) . S with ||v . S||_F = sqrt(2) |v|.
The scan and its reduction work on the Cartesian states; only the stored
states of :attr:`SpinorTrajectory.states` are in the angular-momentum basis
of :mod:`fiberphase.spin`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .geometry import FiberPath, SphericalAngles, _cross, _read_only
from .spin import _SQ, CARTESIAN_FROM_ANGULAR, _check_polarization, helicity_eigenstates

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
    :func:`evolve` reduces each state to what the phases and drifts read, as
    read-only series: ``total`` = arg <psi(0)|psi>, unwrapped, ``flagged``
    where |<psi(0)|psi>| < OVERLAP_FLOOR (their total is interpolated from
    neighbours and untrustworthy), ``dynamical`` = -Int h . <S> dt,
    ``helicity`` = k_hat . <S> and ``norms`` = ||psi||; :attr:`geometric` =
    total - dynamical is taken on every read.  The states themselves are
    rebuilt on first use of :attr:`states` by running the same scan again.
    """

    path: FiberPath
    polarization: int
    total: np.ndarray
    flagged: np.ndarray
    dynamical: np.ndarray
    helicity: np.ndarray
    norms: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.path.times

    @property
    def geometric(self) -> np.ndarray:
        return self.total - self.dynamical

    @cached_property
    def states(self) -> np.ndarray:
        """The evolved states in the angular-momentum basis, shape (n, 3), computed once and read-only."""
        states = np.empty((self.path.n_samples, 3), dtype=complex)

        def store(rows, cart, h, k_hat):
            states[rows] = _angular(cart)

        list(_scan(self.path, _start(self.path, self.polarization), store))  # every tile
        return _read_only(states)


def hamiltonian_coefficients(path: FiberPath) -> np.ndarray:
    """Coefficient vectors h(t_i) = k_hat x k_hat_dot = (k x k_dot)/k^2 at every sample, shape (n, 3), read-only.

    A new array on every call, built a chunk of rows at a time; no stage
    calls it: :func:`evolve` and the invariant residual build their rows
    with the same kernel, ``geometry._stencil``.  The finite-rotation route,
    ``geometry.rotation_vectors(path) / path.dt``, agrees with ``h[:-1]`` to
    first order in dt.
    """
    h = np.empty((path.n_samples, 3))
    for rows in geometry._stencil_slices(0, path.n_samples):
        k_hat, lo = geometry._path_window(path, rows.start, rows.stop)
        rate = geometry._stencil(k_hat, rows.start - lo, rows.stop - rows.start, path.dt)[0]
        h[rows] = _cross(k_hat[rows.start - lo : rows.stop - lo], rate)
    return _read_only(h)


def _rotate(x, axis, sin, vers):
    """Rodrigues rotation x + sin (n x x) + (1 - cos) n x (n x x) about unit n.

    ``sin`` and ``vers`` = 1 - cos of the angle carry a trailing length-1
    axis so they broadcast against ``x``.  Adding only the small corrections
    to ``x`` keeps per-step rounding relative to the angle, and a zero axis
    is the exact identity.
    """
    turn = _cross(axis, x)
    out = turn * sin
    out += x
    turn = _cross(axis, turn)
    turn *= vers
    out += turn
    return out


def _angular(cart):
    """psi_ang = C^dagger psi_cart (C = ``CARTESIAN_FROM_ANGULAR``), skipping C's exact zeros.

    Element by element on the last axis (length 3), not a matrix product:
    BLAS rounds a product differently for different operand shapes, and a
    slab of the scan must give the bits of the whole trajectory.
    """
    out = np.empty(cart.shape, dtype=complex)
    x = cart[..., 0] * _SQ
    y = cart[..., 1] * (1j * _SQ)
    np.subtract(y, x, out=out[..., 0])
    out[..., 1] = cart[..., 2]
    np.add(x, y, out=out[..., 2])
    return out


def _start(path: FiberPath, polarization: int) -> np.ndarray:
    """Cartesian form of the gauge-fixed closed-form eigenstate of k_hat(t0) . S with eigenvalue -polarization."""
    return CARTESIAN_FROM_ANGULAR @ helicity_eigenstates(path.rows(0, 1)[1][0]).state(-_check_polarization(polarization))


_SLAB = 16  # columns of the scan whose steps and states are handled in one set of array operations
_TILE = 1 << 15  # steps of the scan per tile, at most about; a tile's states are handed over before the next is filled
_REDUCE_ROWS = 1 << 11  # states a reader reduces in one set of array operations


def _tiling(n_steps: int):
    """Block size, blocks and blocks per tile: k = ceil(n_steps / _TILE) tiles of ~sqrt(n) blocks of sqrt(n) / k steps.

    Each of the scan's ~2 sqrt(n) rotations acts on ~sqrt(n) rows; one tile keeps blocks of ceil(sqrt(n)) steps.
    """
    n_tiles = -(-n_steps // _TILE)
    size = int(np.ceil(np.sqrt(n_steps) / n_tiles))
    n_blocks = -(-n_steps // size)
    return size, n_blocks, -(-n_blocks // n_tiles)


def _slab_steps(k_hat: np.ndarray, lo: int, first: np.ndarray, width: int, dt: float):
    """h and k_hat at the samples first + i (i = 0 .. width) for each entry of ``first``, and axis, sin and 1 - cos of its steps.

    ``k_hat`` holds the path's rows from sample ``lo`` on that the stencil
    reads (``geometry._path_window``).  The h rows are bitwise those of
    :func:`hamiltonian_coefficients`, and zero past the path's end, where
    k_hat repeats the last sample.  Step i is the rotation by |h_mid| dt
    about h_mid = (h_i + h_(i+1)) / 2, with the float operations of the
    whole-array forms; the steps past the path's end lead only to states
    never handed over.
    """
    rate, k_hat = geometry._stencil(k_hat, first - lo, width + 1, dt)
    h = _cross(k_hat, rate)
    del rate  # before the steps' temporaries
    h_mid = np.add(h[:, :-1], h[:, 1:])
    h_mid *= 0.5
    squares = np.square(h_mid)
    rate = squares[..., 0] + squares[..., 1]
    rate += squares[..., 2]
    del squares
    np.sqrt(rate, out=rate)
    angle = (rate * dt)[..., None]
    still = rate == 0.0
    rate[still] = 1.0
    axis = np.divide(h_mid, rate[..., None], out=h_mid)
    axis[still] = 0.0
    return h, k_hat, axis, np.sin(angle), 2.0 * np.sin(0.5 * angle) ** 2


def _scan(path: FiberPath, start: np.ndarray, consume):
    """Propagate the Cartesian state ``start`` along the path, handing its states to ``consume``; a generator.

    Each tile of consecutive blocks (``_tiling``) is a two-level scan: the
    block rotations are composed across its blocks at once, the state is
    carried over the block starts, and the blocks are filled in one column
    at a time, ``_SLAB`` columns per set of array operations (see
    ``_slab_steps``).  A tile reads its rows of the path once, as one
    window of k_hat.  Each slab's states go to ``consume(rows, cart, h,
    k_hat)``: the sample indices, shape (blocks, columns), and views of the
    slab's (blocks, columns, 3) Cartesian states, which the scan overwrites
    afterwards, and of their h and k_hat rows.  Once a tile
    has handed over each of its samples [first, stop) once, the scan yields
    (first, stop) and carries the state at ``stop`` into the next tile.
    """
    n_samples = path.n_samples
    n_steps = n_samples - 1
    size, n_blocks, per_tile = _tiling(n_steps)
    slabs = [(j0, min(_SLAB, size - j0)) for j0 in range(0, size, _SLAB)]
    current, dt = start, path.dt
    for b0 in range(0, n_blocks, per_tile):
        starts = np.arange(b0, min(b0 + per_tile, n_blocks)) * size  # the tile's block starts
        # the rows around the samples whose h the slabs read, starts[0] .. starts[-1] + size
        k_hat, lo = geometry._path_window(path, int(starts[0]), int(starts[-1]) + size + 1)
        # block rotations: row k of frames[b] is the image of the unit vector e_k
        frames = np.broadcast_to(np.eye(3), (len(starts), 3, 3)).copy()
        for j0, width in slabs:
            axis, sin, vers = _slab_steps(k_hat, lo, starts + j0, width, dt)[2:]
            for t in range(width):
                frames = _rotate(frames, axis[:, t, None], sin[:, t, None], vers[:, t, None])
        # one polar Newton-Schulz step, F <- 1.5 F - 0.5 F F^T F (Higham, Functions of Matrices, ch. 8), takes
        # each frame back to the nearest rotation, to second order in its rounding, so the carry does not chain
        # that rounding; einsum, not a BLAS product, whose first call raises a sweep point's peak RSS by ~0.1 MB
        gram = np.einsum("bij,bkj->bik", frames, frames)
        frames = 1.5 * frames - 0.5 * np.einsum("bik,bkl->bil", gram, frames)

        columns = np.empty((len(starts), _SLAB, 3), dtype=complex)
        for b in range(len(starts)):
            columns[b, 0] = current
            current = current @ frames[b]
        del frames
        full = int(starts[-1])  # the last block's start
        stop = min(n_samples, full + size)  # samples from here on are the next tile's, padding, or the closing one
        for j0, width in slabs:
            h, k_rows, axis, sin, vers = _slab_steps(k_hat, lo, starts + j0, width, dt)
            for t in range(width - 1):
                columns[:, t + 1] = _rotate(columns[:, t], axis[:, t], sin[:, t], vers[:, t])
            # the next slab starts one step on
            following = _rotate(columns[:, -1], axis[:, -1], sin[:, -1], vers[:, -1]) if j0 + width < size else None
            del axis, sin, vers  # before the states are handed over
            consume(starts[:-1, None] + np.arange(j0, j0 + width), columns[:-1, :width], h[:-1, :width],
                    k_rows[:-1, :width])
            tail = np.arange(full + j0, min(full + j0 + width, stop))
            consume(tail[None], columns[-1:, : len(tail)], h[-1:, : len(tail)], k_rows[-1:, : len(tail)])
            if following is not None:
                columns[:, 0] = following
            elif stop == n_steps:  # the last slab's rows end at this sample, the path's last
                consume(np.array([[stop]]), current[None, None], h[-1:, -1:], k_rows[-1:, -1:])
                stop = n_samples
            del h, k_rows  # before the next slab's are built
        del k_hat, columns  # the tile's scratch goes before its rows are used
        yield int(starts[0]), stop


def _passage_warning(count: int) -> OrthogonalPassageWarning:
    return OrthogonalPassageWarning(f"{count} sample(s) passed within {OVERLAP_FLOOR:g} of orthogonality; "
                                    "their total phase is interpolated from neighbours")


class _TrajectoryRows(geometry._OrderedRows):
    """Rows of the results series of the scan's states, scanned a tile at a time as they are read.

    A read gives total, flagged, dynamical, geometric = total - dynamical
    and the drifts |norms - 1| and |helicity - hel0| (hel0 at row 0).  Each
    pass from row 0 runs the scan once, and each tile's states go into a
    window of the five series of :class:`SpinorTrajectory` that keeps one
    tile and the rows still read.  Between tiles it carries the phase's
    ``geometry._Unwrap``, the trapezoids' last energy and sum, and a flagged
    run waiting for its next unflagged neighbour.  Every row is bitwise the
    whole-array form of the scan's states.
    """

    def __init__(self, path: FiberPath, polarization: int):
        self.path, self.start = path, _start(path, polarization)
        self.ref = self.start.conj()
        size, _, per_tile = _tiling(path.n_samples - 1)
        self.tile = min(size * per_tile + 1, path.n_samples)  # samples of one tile, at most

    def _restart(self):
        self.tiles = _scan(self.path, self.start, self._reduce)
        self.unwrap = geometry._Unwrap()
        # the window holds rows lo .. hi - 1, final below ready; last is the unshifted total at row ready - 1
        self.lo = self.hi = self.ready = self.last = 0
        dtypes = (float, bool, float, float, float)  # total, flagged, dynamical (the energy at first), helicity, norms
        self.window = tuple(np.empty(0, dtype) for dtype in dtypes)

    def _reduce(self, rows, cart, h, k_hat):
        # each row is reduced on its own (einsum too, whatever the strides): the whole-array forms' bits,
        # in pieces of whole blocks, about _REDUCE_ROWS rows, whose temporaries stay below the tile's window of k_hat
        total, flagged, energy, helicity, norms = self.window
        blocks = max(_REDUCE_ROWS // max(rows.shape[1], 1), 1)  # a tail slab may have no columns
        for part in geometry._row_slices(0, len(rows), blocks):
            at, psi = rows[part] - self.lo, cart[part]
            overlap = psi[..., 0] * self.ref[0] + psi[..., 1] * self.ref[1] + psi[..., 2] * self.ref[2]
            flagged[at] = np.abs(overlap) < OVERLAP_FLOOR
            total[at] = np.angle(overlap)  # unwrapped, and the energy integrated, when the tile is done
            norms[at] = np.linalg.norm(psi, axis=-1)
            spin = _cross(psi.real, psi.imag)  # <S> = 2 Re psi x Im psi
            spin *= 2.0
            energy[at] = np.einsum("...i,...i->...", h[part], spin)
            helicity[at] = np.einsum("...i,...i->...", k_hat[part], spin)

    def _next_tile(self, keep: int):
        """Scan the next tile into the window, which keeps the rows from ``keep`` and the last final one on."""
        lo = max(min(keep, self.ready - 1), self.lo)
        kept = slice(lo - self.lo, self.hi - self.lo)
        self.window = tuple(np.concatenate([part[kept], np.empty(self.tile, part.dtype)]) for part in self.window)
        self.lo = lo
        first, stop = next(self.tiles)
        lo, ready, n, self.hi = self.lo, self.ready, self.path.n_samples, stop
        self.tiles = None if stop == n else self.tiles  # the scan's frame refers to the reader
        total, flagged, dynamical = self.window[:3]
        for rows in geometry._row_slices(first - lo, stop - lo):  # bitwise np.unwrap of the unflagged angles
            kept = np.flatnonzero(~flagged[rows]) + rows.start
            total[kept] = self.unwrap(total[kept])
        # trapezoid i, (E_i + E_(i-1)) (-dt/2), in chunks from the top down (each reads the energy below it
        # before that goes); the sum so far enters the tile's first term, where a whole-array cumsum adds it
        energy, scale, head = dynamical[stop - 1 - lo], -0.5 * self.path.dt, first - lo
        for rows in reversed(list(geometry._row_slices(head + 1, stop - lo))):
            dynamical[rows] = (dynamical[rows] + dynamical[rows.start - 1 : rows.stop - 1]) * scale
        dynamical[head] = (dynamical[head] + self.energy) * scale + self.sum if first else 0.0
        terms = dynamical[max(first, 1) - lo : stop - lo]
        np.cumsum(terms, out=terms)
        self.energy, self.sum = energy, dynamical[stop - 1 - lo] if stop > 1 else -0.0  # adding -0.0 changes no bit
        self.hel0 = self.window[3][0] if first == 0 else self.hel0
        # np.interp's value at a point reads only the two nodes around it: a flagged run waits for its next
        # unflagged neighbour, and those nodes (in order, no np.unique: its first call adds ~1.7 MB RSS) give its bits
        clear = ~flagged[ready - lo : stop - lo][::-1]
        last = int(np.argmax(clear))
        self.ready = stop if stop == n else stop - last if clear[last] else ready
        hits = np.flatnonzero(flagged[ready - lo : self.ready - lo]) + ready
        if len(hits):
            nodes = np.clip(np.add.outer(hits, (-1, 1)).ravel(), lo, stop - 1)  # -1 and n land on flagged ends
            nodes = nodes[~flagged[nodes - lo]]  # the unflagged neighbours, in order
            if not len(nodes):
                raise ValueError("every overlap is numerically zero; cannot define a phase")
            nodes = nodes[np.diff(nodes, prepend=-1) > 0]  # a sample between two flagged ones neighbours both
            values = total[nodes - lo]
            values[nodes == ready - 1] = self.last  # that row is final, and shifted
            total[hits - lo] = np.interp(hits, nodes, values)
        if self.ready > ready:  # the rows that became final start at 0, as arg <psi(0)|psi(0)> does
            self.last = total[self.ready - 1 - lo]
            self.total0 = total[0] if ready == 0 else self.total0
            total[ready - lo : self.ready - lo] -= self.total0

    def _next(self, start: int, stop: int):
        while self.ready < stop:
            self._next_tile(start)
        total, flagged, dynamical, helicity, norms = (part[start - self.lo : stop - self.lo] for part in self.window)
        return total, flagged, dynamical, total - dynamical, np.abs(norms - 1.0), np.abs(helicity - self.hel0)


def evolve(path: FiberPath, polarization: int = +1) -> SpinorTrajectory:
    """Propagate a circularly polarized photon spinor along the path.

    The initial state is the gauge-fixed eigenstate of k_hat(t0) . S with
    eigenvalue ``-polarization`` (receiver handedness convention).  Each step
    applies the exact unitary exp(-i H_mid dt) with H_mid built from the
    midpoint-interpolated coefficient vector h_mid.  In the Cartesian
    representation (S_i)_jk = -i eps_ijk that unitary is the real rotation by
    |h_mid| dt about h_mid (closed-form Rodrigues formula), so norms are
    preserved to rounding.  One pass of a ``_TrajectoryRows`` runs the tiled
    scan (:func:`_scan`) and reduces its states on the spot; the rows each
    tile makes final are copied out of its window into the five series.
    Samples passing nearly orthogonal to the initial state are flagged and
    their total phase is interpolated (an :class:`OrthogonalPassageWarning`
    is emitted).
    """
    reader, n = _TrajectoryRows(path, polarization), path.n_samples
    reader._restart()
    series = tuple(np.empty(n, part.dtype) for part in reader.window)
    while (ready := reader.ready) < n:
        reader._next_tile(ready)
        final = slice(ready - reader.lo, reader.ready - reader.lo)
        for i, out in enumerate(series):  # no name is left bound to a window, which goes with the next tile
            out[ready : reader.ready] = reader.window[i][final]
    if count := int(np.count_nonzero(series[1])):
        warnings.warn(_passage_warning(count), stacklevel=2)
    return SpinorTrajectory(path, polarization, *map(_read_only, series))


def invariant_residual_series(path: FiberPath, scale: float = 1.0) -> np.ndarray:
    """Residuals at all interior samples (length n-2); ``scale`` multiplies H.

    From [a . S, b . S] = i (a x b) . S and ||v . S||_F = sqrt(2) |v|, the
    residual is sqrt(2) |D k_hat + k_hat x (scale h)| with D the central
    difference.  ``scale`` != 1 is a negative control: any generator other
    than the effective one leaves an O(1) residual.  These are the rows
    1 .. n-2 of ``geometry._ResidualRows``, whose n rows a results column
    reads a chunk at a time.
    """
    return geometry._ResidualRows(path, scale).read(0, path.n_samples)[0][1:-1]


def _check_grid(traj: SpinorTrajectory, path: FiberPath) -> None:
    """Raise ValueError unless ``traj``'s path has ``path``'s sample count, first time and step."""
    grids = [(p.n_samples, p.rows(0, 1)[0][0], p.dt) for p in (traj.path, path)]
    if grids[0] != grids[1]:
        raise ValueError("trajectory and path do not share a time grid")


def helicity_expectations(traj: SpinorTrajectory, path: FiberPath) -> np.ndarray:
    """<psi | k_hat . S | psi> at every sample (read-only); conserved at -polarization.

    ``evolve`` reduced it along the trajectory's own path, which must share
    ``path``'s grid.
    """
    _check_grid(traj, path)
    return traj.helicity


def phase_decomposition(traj: SpinorTrajectory, path: FiberPath) -> SpinorTrajectory:
    """Split the accumulated phase into total, dynamical and geometric parts: the trajectory itself.

    The total is the unwrapped overlap phase arg <psi(0)|psi(t)>; the
    dynamical part integrates -<H> = -h . <S> by the trapezoidal rule on the
    shared grid; the geometric part is their difference, taken when it is
    read (see :attr:`SpinorTrajectory.geometric`).  :func:`evolve` computed
    the first two and the flags along the trajectory's own path, which must
    share ``path``'s grid; after that check ``traj`` itself is returned.
    """
    _check_grid(traj, path)
    return traj


def analytic_noncyclic_phase(angles: SphericalAngles, polarization: int):
    """Closed-form transport phase series  sigma * Int_0^t azimuth_rate (1 - cos polar) dt'.

    Reduces to sigma * 2 pi (1 - cos c) per full cycle of a cone of
    half-angle c.  Adding 0.0 writes no sample as -0.0.
    """
    return _check_polarization(polarization) * angles.solid_angle + 0.0
