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
Stored states are in the angular-momentum basis of :mod:`fiberphase.spin`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .geometry import FiberPath, SphericalAngles, _read_only, solid_angle_series
from .spin import _SQ, CARTESIAN_FROM_ANGULAR, helicity_eigenstates

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
    """Per-sample observables of the spinor evolved along ``path``.

    ``polarization`` is the circular-polarization label (+1 right, -1 left);
    the conserved spin projection onto k_hat equals ``-polarization``.
    :func:`evolve` reduces each state to what the phases and drifts read, as
    read-only series: ``overlaps`` = <psi(0)|psi>, ``energy`` = h . <S>,
    ``helicity`` = k_hat . <S> and ``norms`` = ||psi||.  The states themselves
    are rebuilt on first use of :attr:`states` by running the same scan again.
    """

    path: FiberPath
    polarization: int
    overlaps: np.ndarray
    energy: np.ndarray
    helicity: np.ndarray
    norms: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.path.times

    @property
    def spin_projection(self) -> int:
        return -self.polarization

    @cached_property
    def states(self) -> np.ndarray:
        """The evolved states in the angular-momentum basis, shape (n, 3), computed once and read-only."""
        states = np.empty((self.path.n_samples, 3), dtype=complex)

        def store(rows, cart, h):
            states[rows] = _angular(cart)

        _scan(self.path, _start(self.path, self.polarization), store)
        return _read_only(states)

    @cached_property
    def spin_vectors(self) -> np.ndarray:
        """<psi|S|psi> at every sample, shape (n, 3), computed once and read-only.

        Derived from :attr:`states` ``_CHUNK_ROWS`` samples at a time with the
        kernel :func:`evolve` applies to each slab of the scan, so it is
        bitwise the vectors behind ``energy`` and ``helicity``.
        """
        states = self.states
        out = np.empty((len(states), 3))
        chunk = geometry._CHUNK_ROWS
        for start in range(0, len(states), chunk):
            out[start : start + chunk] = _spin_vectors(states[start : start + chunk])
        return _read_only(out)


@dataclass(frozen=True)
class PhaseDecomposition:
    """Unwrapped phase record along a trajectory (radians).

    total      : arg <psi(0)|psi(t)>, continuous branch
    dynamical  : -Int_0^t <psi|H|psi> dt'
    geometric  : total - dynamical, computed on every read
    flagged    : samples where |<psi(0)|psi(t)>| < OVERLAP_FLOOR; their phases
                 are interpolated from neighbours and untrustworthy
    """

    times: np.ndarray
    total: np.ndarray
    dynamical: np.ndarray
    flagged: np.ndarray

    @property
    def geometric(self) -> np.ndarray:
        return self.total - self.dynamical


def _generator(k, rate, k_mag):
    """Rows of h = (k x k_dot)/k^2 from rows of k and k_dot; each row is computed on its own."""
    return np.cross(k, rate) / k_mag**2


def hamiltonian_coefficients(path: FiberPath) -> np.ndarray:
    """Coefficient vectors h(t_i) = (k x k_dot)/k^2 at every sample, shape (n, 3), read-only.

    A new array on every call, built one chunk of ``k_dot`` at a time (see
    ``geometry._k_dot_chunks``) with the float operations of the
    whole-array form; nothing caches it, and no stage calls it:
    :func:`evolve` builds each slab's rows from ``k_hat`` (see
    ``_slab_generator``), and the invariant residual forms each chunk's
    rows itself.  The finite-rotation route,
    ``geometry.rotation_vectors(path) / path.dt``, agrees with ``h[:-1]`` to
    first order in dt.
    """
    h = np.empty((path.n_samples, 3))
    for rows, k, rate in geometry._k_dot_chunks(path):
        h[rows] = _generator(k, rate, path.k_mag)
    return _read_only(h)


def _cross(a, b):
    """``np.cross(a, b)`` over the last axis (length 3), without copying the operands.

    Component i is a_j b_k - a_k b_j with the same float operations as
    ``np.cross``, so the result is bitwise equal; the only scratch is one
    component-sized array.
    """
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    tmp = np.empty(out.shape[:-1], dtype=out.dtype)
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
    turn = _cross(axis, x)
    out = turn * sin
    out += x
    turn = _cross(axis, turn)
    turn *= vers
    out += turn
    return out


# The two basis changes act on the last axis (length 3) element by element,
# not as matrix products: BLAS rounds a product differently for different
# operand shapes, and they must give the same bits on a slab of the scan as on
# the whole trajectory.

def _angular(cart):
    """psi_ang = C^dagger psi_cart (C = ``CARTESIAN_FROM_ANGULAR``), skipping C's exact zeros."""
    out = np.empty(cart.shape, dtype=complex)
    x = cart[..., 0] * _SQ
    y = cart[..., 1] * (1j * _SQ)
    np.subtract(y, x, out=out[..., 0])
    out[..., 1] = cart[..., 2]
    np.add(x, y, out=out[..., 2])
    return out


def _spin_vectors(ang):
    """<psi|S|psi> of angular-basis states: 2 Re psi x Im psi of psi_cart = C psi_ang."""
    cart = np.empty(ang.shape, dtype=complex)
    np.subtract(ang[..., 2], ang[..., 0], out=cart[..., 0])
    cart[..., 0] *= _SQ
    np.add(ang[..., 0], ang[..., 2], out=cart[..., 1])
    cart[..., 1] *= -1j * _SQ
    cart[..., 2] = ang[..., 1]
    out = _cross(cart.real, cart.imag)
    out *= 2.0
    return out


def _start(path: FiberPath, polarization: int) -> np.ndarray:
    """Cartesian form of the gauge-fixed eigenstate of k_hat(t0) . S with eigenvalue -polarization."""
    if polarization not in (-1, +1):
        raise ValueError(
            f"polarization must be +1 (right) or -1 (left), got {polarization!r}; "
            "helicity-0 photon states are unphysical for transverse light"
        )
    return CARTESIAN_FROM_ANGULAR @ helicity_eigenstates(path.k_hat[0]).state(-polarization)


_SLAB = 16  # columns of the scan whose steps and states are handled in one set of array operations


def _slab_generator(path: FiberPath, size: int, j0: int, width: int) -> np.ndarray:
    """h at the samples b size + j0 + i (i = 0 .. width) of every block b, shape (n_blocks, width + 1, 3).

    One gather of the ``k_hat`` window j0 - 1 .. j0 + width + 1 of every
    block, clipped to the path, gives each sample its central difference;
    the end samples 0 and n - 1 take ``derivative_uniform``'s one-sided
    stencils.  The float operations are those of ``derivative_uniform`` and
    ``_generator``, so the row of every sample of the path is bitwise that
    of :func:`hamiltonian_coefficients`; the rows past the path's end are
    zero.
    """
    n, dt = path.n_samples, path.dt
    n_blocks = -(-(n - 1) // size)
    samples = np.arange(0, n_blocks * size, size)[:, None] + np.arange(j0 - 1, j0 + width + 2)
    k = path.k_hat.take(samples, axis=0, mode="clip")  # about 4x faster than k_hat[clipped samples]
    k *= path.k_mag
    rate = np.subtract(k[:, 2:], k[:, :-2])
    rate /= 2.0 * dt
    if j0 == 0:
        rate[0, 0] = geometry.derivative_uniform(path.k_mag * path.k_hat[:3], dt)[0]
    end = n - 1 - (n_blocks - 1) * size - j0  # the place of sample n - 1 in the last block's rows
    if 0 <= end <= width:
        rate[-1, end] = geometry.derivative_uniform(path.k_mag * path.k_hat[-3:], dt)[-1]
    h = _cross(k[:, 1:-1], rate)
    h /= path.k_mag**2
    return h


def _slab_steps(path: FiberPath, size: int, j0: int, width: int):
    """The slab's h rows (see ``_slab_generator``), and axis, sin and 1 - cos of its steps.

    Each of the last three is (n_blocks, width, .) for the steps j0 .. j0 +
    width - 1 of every block.  Step i is the rotation by |h_mid| dt about
    h_mid = (h_i + h_(i+1)) / 2; the steps past the path's end, which fill
    the last block, lead only to states that are never handed over.  Every
    value is computed with the float operations of the whole-array forms
    (``np.linalg.norm`` for the rate), so it does not depend on the slab.
    """
    h = _slab_generator(path, size, j0, width)
    h_mid = np.add(h[:, :-1], h[:, 1:])
    h_mid *= 0.5
    squares = np.square(h_mid)
    rate = squares[..., 0] + squares[..., 1]
    rate += squares[..., 2]
    np.sqrt(rate, out=rate)
    angle = (rate * path.dt)[..., None]
    still = rate == 0.0
    rate[still] = 1.0
    axis = h_mid / rate[..., None]
    axis[still] = 0.0
    return h, axis, np.sin(angle), 2.0 * np.sin(0.5 * angle) ** 2


def _scan(path: FiberPath, start: np.ndarray, consume) -> None:
    """Propagate the Cartesian state ``start`` along the path, handing its states to ``consume``.

    A two-level scan over about sqrt(n) blocks of sqrt(n) steps: the block
    rotations are composed across all blocks at once, the state is carried
    over the block starts, and then the blocks are filled in one column at a
    time; column j holds the states at samples j, j + size, ...  The columns
    go ``_SLAB`` at a time: each slab's generator rows and step rotations
    are rebuilt from ``k_hat`` in each pass (see ``_slab_steps``), so no
    per-step or per-sample array is held, and its states go to
    ``consume(rows, cart, h)``, with ``rows`` the sample indices, ``cart``
    the (len(rows), 3) Cartesian states, which the scan overwrites
    afterwards, and ``h`` their generator rows.  Every sample is handed over
    exactly once.
    """
    n_samples = path.n_samples
    n_steps = n_samples - 1
    size = int(np.ceil(np.sqrt(n_steps)))
    n_blocks = -(-n_steps // size)
    full = (n_blocks - 1) * size  # samples of every block but the last
    slabs = [(j0, min(_SLAB, size - j0)) for j0 in range(0, size, _SLAB)]

    # block rotations: row k of frames[b] is the image of the unit vector e_k
    frames = np.broadcast_to(np.eye(3), (n_blocks, 3, 3)).copy()
    for j0, width in slabs:
        _, axis, sin, vers = _slab_steps(path, size, j0, width)
        for t in range(width):
            frames = _rotate(frames, axis[:, t, None], sin[:, t, None], vers[:, t, None])

    columns = np.empty((n_blocks, _SLAB, 3), dtype=complex)
    current = start
    for b in range(n_blocks):
        columns[b, 0] = current
        current = current @ frames[b]
    del frames
    rows = np.arange(0, full, size)[:, None]  # block starts, but the last
    last = min(n_samples, n_blocks * size)  # samples from here on are padding, or the block-closing one
    for j0, width in slabs:
        h, axis, sin, vers = _slab_steps(path, size, j0, width)
        for t in range(width - 1):
            columns[:, t + 1] = _rotate(columns[:, t], axis[:, t], sin[:, t], vers[:, t])
        consume((rows + np.arange(j0, j0 + width)).ravel(), columns[:-1, :width].reshape(-1, 3),
                h[:-1, :width].reshape(-1, 3))
        tail = np.arange(full + j0, min(full + j0 + width, last))
        consume(tail, columns[-1, : len(tail)], h[-1, : len(tail)])
        if j0 + width < size:  # the next slab starts one step on
            columns[:, 0] = _rotate(columns[:, -1], axis[:, -1], sin[:, -1], vers[:, -1])
    if last < n_samples:  # the last slab's rows end at this sample
        consume(np.array([last]), current[None], h[-1, -1:])


def evolve(path: FiberPath, polarization: int = +1) -> SpinorTrajectory:
    """Propagate a circularly polarized photon spinor along the path.

    The initial state is the gauge-fixed eigenstate of k_hat(t0) . S with
    eigenvalue ``-polarization`` (receiver handedness convention).  Each step
    applies the exact unitary exp(-i H_mid dt) with H_mid built from the
    midpoint-interpolated coefficient vector h_mid.  In the Cartesian
    representation (S_i)_jk = -i eps_ijk that unitary is the real rotation by
    |h_mid| dt about h_mid (closed-form Rodrigues formula), so norms are
    preserved to rounding.  The steps are composed by the two-level scan of
    :func:`_scan`, and each slab of states it fills is reduced on the spot
    to the trajectory's overlaps, energies, helicities and norms; no (n, 3)
    state array is built (see :attr:`SpinorTrajectory.states`).  Nor is an
    (n, 3) array of generator coefficients: the scan builds each slab's
    rows of ``h`` from ``k_hat`` and hands them over with the states.
    """
    start = _start(path, polarization)
    ref = _angular(start).conj()
    k_hat = path.k_hat
    n = path.n_samples
    overlaps = np.empty(n, dtype=complex)
    energy, helicity, norms = np.empty(n), np.empty(n), np.empty(n)

    def reduce(rows, cart, h):
        # each row is reduced on its own (einsum too, whatever the strides), so
        # these are bitwise the whole-array forms of the stored states
        ang = _angular(cart)
        overlaps[rows] = ang[:, 0] * ref[0] + ang[:, 1] * ref[1] + ang[:, 2] * ref[2]
        norms[rows] = np.linalg.norm(ang, axis=1)
        spin = _spin_vectors(ang)
        energy[rows] = np.einsum("ni,ni->n", h, spin)
        helicity[rows] = np.einsum("ni,ni->n", k_hat[rows], spin)

    _scan(path, start, reduce)
    return SpinorTrajectory(
        path=path,
        polarization=polarization,
        overlaps=_read_only(overlaps),
        energy=_read_only(energy),
        helicity=_read_only(helicity),
        norms=_read_only(norms),
    )


def _invariant_residual_rows(path: FiberPath, start: int, stop: int, scale: float = 1.0) -> np.ndarray:
    """Rows [start, stop) of the invariant residual with one value per sample; ``scale`` multiplies H.

    Row i is the residual at the interior sample nearest it, min(max(i, 1),
    n - 2): the central difference has no value at the two end samples,
    which repeat their neighbours'.  The rows come from the path's ``k_hat``
    window around them: each chunk's ``h`` is formed from the chunk of
    ``k_dot`` that ``geometry._k_dot_chunks`` yields, so the float operations
    are those of the whole-array expression (see
    :func:`invariant_residual_series`).
    """
    n = path.n_samples
    if stop <= start:
        return np.empty(0)
    lo, hi = min(max(start, 1), n - 2), min(max(stop, 2), n - 1)  # the interior samples read
    kh = path.k_hat
    residual = np.empty(hi - lo)
    for rows, k, rate in geometry._k_dot_chunks(path, lo, hi):
        turn = _cross(kh[rows], scale * _generator(k, rate, path.k_mag))
        vec = np.subtract(kh[rows.start + 1 : rows.stop + 1], kh[rows.start - 1 : rows.stop - 1])
        vec /= 2.0 * path.dt
        vec += turn
        np.square(vec, out=vec)
        out = residual[rows.start - lo : rows.stop - lo]
        np.add.reduce(vec, axis=1, out=out)
        np.sqrt(out, out=out)
        out *= np.sqrt(2.0)
    if (lo, hi) == (start, stop):
        return residual
    return residual[np.clip(np.arange(start, stop), 1, n - 2) - lo]  # rows 0 and n - 1 repeat their neighbours


def invariant_residual_series(path: FiberPath, scale: float = 1.0) -> np.ndarray:
    """Residuals at all interior samples (length n-2); ``scale`` multiplies H.

    From [a . S, b . S] = i (a x b) . S and ||v . S||_F = sqrt(2) |v|, the
    residual is sqrt(2) |D k_hat + k_hat x (scale h)| with D the central
    difference.  ``scale`` != 1 is a negative control: any generator other
    than the effective one leaves an O(1) residual.  These are the rows
    1 .. n-2 of ``_invariant_residual_rows``, which does the float
    operations of the whole-array expression in place, one
    ``geometry._k_dot_chunks`` chunk at a time, with each chunk's ``h``
    built on the spot; a scenario's results column reads all n rows of it a
    chunk at a time.
    """
    return _invariant_residual_rows(path, 1, path.n_samples - 1, scale)


def _check_grid(traj: SpinorTrajectory, path: FiberPath) -> None:
    if len(traj.overlaps) != path.n_samples:
        raise ValueError("trajectory and path do not share a time grid")


def helicity_expectations(traj: SpinorTrajectory, path: FiberPath) -> np.ndarray:
    """<psi | k_hat . S | psi> at every sample (read-only); conserved at -polarization.

    ``evolve`` reduced it along the trajectory's own path, which must share
    ``path``'s grid.
    """
    _check_grid(traj, path)
    return traj.helicity


def _unwrapped_angle(values: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """``np.unwrap(np.angle(values[~flagged]))`` at the unflagged samples' own places.

    The flagged places are left unset.  Each block of ``_CHUNK_ROWS``
    samples hands the angles of its unflagged samples (``np.angle`` is this
    arctan2) to one ``geometry._Unwrap``, so the result is bitwise the
    whole-array one.
    """
    out = np.empty(len(values))
    unwrap = geometry._Unwrap()
    for start in range(0, len(values), geometry._CHUNK_ROWS):
        kept = np.flatnonzero(~flagged[start : start + geometry._CHUNK_ROWS]) + start
        chunk = values[kept]
        out[kept] = unwrap(np.arctan2(chunk.imag, chunk.real))
    return out


def _next_unflagged(flagged: np.ndarray, start: int):
    """Index of the first unflagged sample from ``start`` on, or None."""
    for lo in range(start, len(flagged), geometry._CHUNK_ROWS):
        block = flagged[lo : lo + geometry._CHUNK_ROWS]
        if not block.all():
            return lo + int(np.argmin(block))
    return None


def _interpolate_flagged(total: np.ndarray, flagged: np.ndarray) -> None:
    """Set ``total`` at the flagged samples by np.interp over the unflagged ones, a chunk at a time.

    Each chunk interpolates over its own unflagged samples and the nearest
    one on each side of it.  np.interp's value at a point depends only on
    the two samples around it, or beyond the ends on the end one, so this is
    bitwise ``np.interp(idx, idx[good], total[good])`` over the whole array.
    """
    before = []  # the last unflagged sample before the chunk
    for start in range(0, len(total), geometry._CHUNK_ROWS):
        stop = start + geometry._CHUNK_ROWS
        hits = np.flatnonzero(flagged[start:stop]) + start
        inner = np.flatnonzero(~flagged[start:stop]) + start
        if len(hits):
            after = _next_unflagged(flagged, stop)
            nodes = np.concatenate([before, inner, [] if after is None else [after]]).astype(np.intp)
            total[hits] = np.interp(hits, nodes, total[nodes])
        if len(inner):
            before = inner[-1:]


def _unwrap_with_flags(overlaps: np.ndarray):
    """Continuously unwrapped arg of the overlaps, interpolating flagged dips.

    The flags, the unwrap and the interpolation go ``_CHUNK_ROWS`` samples
    at a time, so beyond its outputs only one chunk of scratch is held.
    """
    flagged = np.empty(len(overlaps), dtype=bool)
    for start in range(0, len(overlaps), geometry._CHUNK_ROWS):
        rows = slice(start, start + geometry._CHUNK_ROWS)
        np.less(np.abs(overlaps[rows]), OVERLAP_FLOOR, out=flagged[rows])
    if flagged.all():
        raise ValueError("every overlap is numerically zero; cannot define a phase")
    total = _unwrapped_angle(overlaps, flagged)
    if flagged.any():
        _interpolate_flagged(total, flagged)
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
    shared grid; the geometric part is their difference, taken when it is
    read (see :attr:`PhaseDecomposition.geometric`).  Samples passing
    nearly orthogonal to the initial state are flagged and bridged by
    interpolation (an :class:`OrthogonalPassageWarning` is emitted).  The
    overlaps and energies are the trajectory's, reduced by :func:`evolve`
    along its own path, which must share ``path``'s grid.
    """
    _check_grid(traj, path)
    total, flagged = _unwrap_with_flags(traj.overlaps)
    total -= total[0]

    energy = traj.energy
    dynamical = np.empty_like(energy)
    dynamical[0] = 0.0
    np.add(energy[1:], energy[:-1], out=dynamical[1:])
    dynamical[1:] *= -0.5 * path.dt
    np.cumsum(dynamical[1:], out=dynamical[1:])

    return PhaseDecomposition(times=path.times, total=total, dynamical=dynamical, flagged=flagged)


def analytic_noncyclic_phase(angles: SphericalAngles, polarization: int):
    """Closed-form transport phase series  sigma * Int_0^t azimuth_rate (1 - cos polar) dt'.

    Reduces to sigma * 2 pi (1 - cos c) per full cycle of a cone of
    half-angle c.  Adding 0.0 writes no sample as -0.0.
    """
    if polarization not in (-1, +1):
        raise ValueError(f"polarization must be +1 or -1, got {polarization!r}")
    return polarization * solid_angle_series(angles) + 0.0
