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
    read-only series: ``total`` = arg <psi(0)|psi>, unwrapped, ``flagged``
    (see :class:`PhaseDecomposition`), ``dynamical`` = -Int h . <S> dt,
    ``helicity`` = k_hat . <S> and ``norms`` = ||psi||.  The states themselves
    are rebuilt on first use of :attr:`states` by running the same scan again.
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
        rate, k_hat = geometry._stencil(path.k_hat, rows.start, rows.stop - rows.start, path.dt)
        h[rows] = _cross(k_hat, rate)
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


def _slab_steps(path: FiberPath, size: int, j0: int, width: int):
    """h at the samples b size + j0 + i (i = 0 .. width) of every block b, and axis, sin and 1 - cos of its steps.

    The h rows are bitwise those of :func:`hamiltonian_coefficients`, and
    zero past the path's end.  Each of the last three is (n_blocks, width,
    .) for the steps j0 .. j0 + width - 1 of every block: step i is the
    rotation by |h_mid| dt about h_mid = (h_i + h_(i+1)) / 2, with the float
    operations of the whole-array forms (``np.linalg.norm`` for the rate).
    The steps past the path's end lead only to states never handed over.
    """
    n_blocks = -(-(path.n_samples - 1) // size)
    rate, k_hat = geometry._stencil(path.k_hat, np.arange(n_blocks) * size + j0, width + 1, path.dt)
    h = _cross(k_hat, rate)
    del rate, k_hat  # the gathered window goes before the steps' temporaries
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
    go ``_SLAB`` at a time, each slab's h rows and step rotations rebuilt in
    each pass (see ``_slab_steps``), and its states go to ``consume(rows,
    cart, h)``: the sample indices, the (len(rows), 3) Cartesian states,
    which the scan overwrites afterwards, and their h rows.  Every sample is
    handed over exactly once.
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
    to its overlap phases and flags, energies h . <S>, helicities and norms
    (the scan hands each slab's rows of ``h`` over with its states); no
    (n, 3) array of states or of ``h`` is built.  The phases are unwrapped
    and the energies integrated in place.  Samples passing nearly orthogonal
    to the initial state are flagged and their total phase is interpolated
    (an :class:`OrthogonalPassageWarning` is emitted).
    """
    start = _start(path, polarization)
    ref = _angular(start).conj()
    k_hat = path.k_hat
    n = path.n_samples
    total, dynamical, helicity, norms = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    flagged = np.empty(n, dtype=bool)

    def reduce(rows, cart, h):
        # each row is reduced on its own (einsum too, whatever the strides), so
        # these are bitwise the whole-array forms of the stored states
        ang = _angular(cart)
        overlap = ang[:, 0] * ref[0] + ang[:, 1] * ref[1] + ang[:, 2] * ref[2]
        flagged[rows] = np.abs(overlap) < OVERLAP_FLOOR
        total[rows] = np.angle(overlap)
        norms[rows] = np.linalg.norm(ang, axis=1)
        spin = _spin_vectors(ang)
        dynamical[rows] = np.einsum("ni,ni->n", h, spin)  # the energy, integrated below
        helicity[rows] = np.einsum("ni,ni->n", k_hat[rows], spin)

    _scan(path, start, reduce)
    _unwrap_with_flags(total, flagged)
    total -= total[0]
    # trapezoid i, (E_i + E_(i-1)) (-dt/2), with the float operations of the whole-array
    # form; the chunks go from the top down, so each reads the energy below it before that goes
    for rows in reversed(list(geometry._row_slices(1, n))):
        dynamical[rows] = (dynamical[rows] + dynamical[rows.start - 1 : rows.stop - 1]) * (-0.5 * path.dt)
    dynamical[0] = 0.0
    np.cumsum(dynamical[1:], out=dynamical[1:])
    return SpinorTrajectory(path, polarization, *map(_read_only, (total, flagged, dynamical, helicity, norms)))


def _invariant_residual_rows(path: FiberPath, start: int, stop: int, scale: float = 1.0) -> np.ndarray:
    """Rows [start, stop) of the invariant residual with one value per sample; ``scale`` multiplies H.

    Row i is the residual at the interior sample nearest it, min(max(i, 1),
    n - 2): the central difference has no value at the two end samples,
    which repeat their neighbours'.  Each chunk of rows forms its ``h``
    from the D k_hat and k_hat of ``geometry._stencil``, with the float
    operations of the whole-array expression.
    """
    n = path.n_samples
    lo, hi = min(max(start, 1), n - 2), min(max(stop, 2), n - 1)  # the interior samples read
    residual = np.empty(hi - lo)
    for rows in geometry._stencil_slices(lo, hi):
        rate, k_hat = geometry._stencil(path.k_hat, rows.start, rows.stop - rows.start, path.dt)
        vec = _cross(k_hat, scale * _cross(k_hat, rate))
        vec += rate
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
    1 .. n-2 of ``_invariant_residual_rows``, whose n rows a results column
    reads a chunk at a time.
    """
    return _invariant_residual_rows(path, 1, path.n_samples - 1, scale)


def _check_grid(traj: SpinorTrajectory, path: FiberPath) -> None:
    if len(traj.norms) != path.n_samples:
        raise ValueError("trajectory and path do not share a time grid")


def helicity_expectations(traj: SpinorTrajectory, path: FiberPath) -> np.ndarray:
    """<psi | k_hat . S | psi> at every sample (read-only); conserved at -polarization.

    ``evolve`` reduced it along the trajectory's own path, which must share
    ``path``'s grid.
    """
    _check_grid(traj, path)
    return traj.helicity


def _unwrap_with_flags(total: np.ndarray, flagged: np.ndarray) -> None:
    """Unwrap the overlap angles ``total`` in place along the unflagged samples, interpolating the flagged ones.

    One pass over chunks of samples hands each chunk's unflagged angles to
    one ``geometry._Unwrap``, so those places become bitwise
    ``np.unwrap(angles[~flagged])``; the flagged ones are interpolated
    between them.
    """
    unwrap = geometry._Unwrap()
    for rows in geometry._row_slices(0, len(total)):
        kept = np.flatnonzero(~flagged[rows]) + rows.start
        total[kept] = unwrap(total[kept])
    if flagged.all():
        raise ValueError("every overlap is numerically zero; cannot define a phase")
    if flagged.any():
        # np.interp's value at a point reads only the two nodes around it (or
        # the end one past an end), so interpolating from the unflagged
        # neighbours of the flagged samples is bitwise np.interp over all the
        # unflagged ones, with O(flagged) scratch.  The nodes come in order
        # without a sort: the first np.unique of a process loads modules that
        # add about 1.7 MB to its peak RSS (numpy 2.4).
        hits = np.flatnonzero(flagged)
        nodes = np.clip(np.add.outer(hits, (-1, 1)).ravel(), 0, len(total) - 1)  # -1 and n land on flagged ends
        nodes = nodes[~flagged[nodes]]  # the unflagged neighbours, in order
        nodes = nodes[np.diff(nodes, prepend=-1) > 0]  # a sample between two flagged ones neighbours both
        total[hits] = np.interp(hits, nodes, total[nodes])
        warnings.warn(
            f"{int(flagged.sum())} sample(s) passed within {OVERLAP_FLOOR:g} of orthogonality; "
            "their total phase is interpolated from neighbours",
            OrthogonalPassageWarning,
            stacklevel=3,
        )


def phase_decomposition(traj: SpinorTrajectory, path: FiberPath) -> PhaseDecomposition:
    """Split the accumulated phase into total, dynamical and geometric parts.

    The total is the unwrapped overlap phase arg <psi(0)|psi(t)>; the
    dynamical part integrates -<H> = -h . <S> by the trapezoidal rule on the
    shared grid; the geometric part is their difference, taken when it is
    read (see :attr:`PhaseDecomposition.geometric`).  :func:`evolve` computed
    the first two and the flags along the trajectory's own path, which must
    share ``path``'s grid; they are returned as read-only views, not copied.
    """
    _check_grid(traj, path)
    return PhaseDecomposition(times=path.times, total=traj.total[:], dynamical=traj.dynamical[:],
                              flagged=traj.flagged[:])


def analytic_noncyclic_phase(angles: SphericalAngles, polarization: int):
    """Closed-form transport phase series  sigma * Int_0^t azimuth_rate (1 - cos polar) dt'.

    Reduces to sigma * 2 pi (1 - cos c) per full cycle of a cone of
    half-angle c.  Adding 0.0 writes no sample as -0.0.
    """
    if polarization not in (-1, +1):
        raise ValueError(f"polarization must be +1 or -1, got {polarization!r}")
    return polarization * solid_angle_series(angles) + 0.0
