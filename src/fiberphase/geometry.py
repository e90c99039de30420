"""Wave-vector trajectories on the unit sphere and their discrete calculus.

A trajectory is a uniformly sampled unit-vector path k_hat(t) together with a
constant wave-vector magnitude.  Everything downstream (transport, phases)
reads the sampled form a window of rows at a time, whether the rows are
evaluated from a helix's closed form or held after a file was loaded.
"""
from __future__ import annotations

import warnings
from array import array
from collections.abc import Callable
from functools import partial
from itertools import islice
from math import isfinite
from typing import NamedTuple

import numpy as np

__all__ = [
    "FiberPath",
    "SphericalAngles",
    "helix_path",
    "spherical_angles",
    "k_dot",
    "motion_residual",
    "rotation_vectors",
    "load_path",
]

POLE_SIN_TOL = 1e-9  # below this sin(polar), the azimuth is held constant
_CHUNK_ROWS = 1 << 12  # rows per chunk of a row-wise pass; bounds its temporaries, of up to about 150 B per row
_PARSE_LINES = 1 << 13  # lines per parse block of load_path; bounds the lines held at once


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values`` with writing switched off, so a cached series can be shared."""
    values.flags.writeable = False
    return values


def _row_slices(start: int, stop: int, step: int | None = None):
    """The slices of rows [start, stop) in steps of ``step`` (``_CHUNK_ROWS``, read at each call, by default).

    Every chunked pass steps through its rows here, so it holds one chunk of
    temporaries at a time; each reduces rows on their own, so its result is
    bitwise that of the whole-array form.
    """
    step = _CHUNK_ROWS if step is None else step
    for lo in range(start, stop, step):
        yield slice(lo, min(lo + step, stop))


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)``, a chunk of rows at a time."""
    out = np.empty(len(x))
    for rows in _row_slices(0, len(out)):
        out[rows] = np.linalg.norm(x[rows], axis=1)
    return out


class FiberPath:
    """Sampled wave-vector direction trajectory with constant magnitude.

    FiberPath(times, k_hat, k_mag) holds the samples it is given:
    times      : strictly increasing, uniformly spaced sample instants
    k_hat      : (n, 3) array of unit vectors
    k_mag      : positive wave-vector magnitude (inverse length)

    Every stage reads the samples through :meth:`rows`, a window of rows at
    a time.  A path built from arrays hands out read-only views of them; a
    :func:`helix_path` holds only its parameters and evaluates the rows from
    its closed form on each read.  ``times`` and ``k_hat`` give every row at
    once, for callers of the API.

    Construction checks ``k_mag`` first, then the samples in one pass over
    chunks of rows: finite, a strictly increasing uniform grid, unit
    vectors within 1e-9 and adjacent steps below 0.5.  A non-finite sample
    raises at once and the other checks after the pass, the first failed
    one in that order.  The path keeps the grid step ``dt`` and nothing
    else derived, and the arrays of a held path must not be modified once
    a stage has read them.  A path is a plain read-only object: assigning or
    deleting an attribute raises AttributeError, and it equals only itself.

    The transport's closed form (the swept areas) and :func:`evolve
    <fiberphase.evolution.evolve>` agree to about 1e-13 only on rows that
    are unit to rounding: rows off unit by up to the accepted 1e-9 gave
    final phases 1.2e-9 apart at 1e5 steps.  ``load_path`` and
    ``helix_path`` give rows unit to rounding.
    """

    n_samples: int
    k_mag: float
    dt: float  # the grid step, times[1] - times[0]
    _rows: Callable[[int, int], tuple]

    def __init__(self, times, k_hat, k_mag):
        t = np.asarray(times, dtype=float)
        kh = np.asarray(k_hat, dtype=float)
        n = len(t) if t.ndim == 1 else 0
        if n >= 3 and kh.shape != (n, 3):
            raise ValueError(f"k_hat shape {kh.shape} does not match {n} samples")
        self._build(partial(_held_rows, t, kh), n, k_mag)

    @classmethod
    def _evaluated(cls, rows: Callable[[int, int], tuple], n_samples: int, k_mag) -> FiberPath:
        """A path of ``n_samples`` samples whose rows [lo, hi) are ``rows(lo, hi)``, evaluated on each read."""
        path = cls.__new__(cls)
        path._build(rows, n_samples, k_mag)
        return path

    def _build(self, rows, n_samples, k_mag):
        if n_samples < 3:
            raise ValueError("path needs at least 3 samples")
        object.__setattr__(self, "n_samples", n_samples)
        object.__setattr__(self, "k_mag", k_mag)
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "dt", self._check())

    def _check(self) -> float:
        """The sample checks: ``k_mag`` before any row is read, then one pass over chunks of rows; the grid step.

        Each chunk, with one row of overlap for the steps, is reduced to its shortest step, largest |dt - dt0|,
        largest |norm - 1| and largest adjacent step; a non-finite chunk raises at once, the rest after the pass.
        """
        if not (np.isfinite(self.k_mag) and self.k_mag > 0):
            raise ValueError(f"k_mag must be a positive finite number, got {self.k_mag!r}")
        shortest, spread, off_unit, jump = np.inf, 0.0, 0.0, 0.0
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed step or norm fails, or passes, as in whole arrays
            dt0 = np.diff(self.rows(0, 2)[0])[0]
            for rows in _row_slices(0, self.n_samples):
                lo = max(rows.start - 1, 0)
                t, kh = self.rows(lo, rows.stop)
                if not (np.all(np.isfinite(t)) and np.all(np.isfinite(kh))):
                    raise ValueError("times and k_hat must be finite")
                dt = np.diff(t)
                shortest = min(shortest, np.min(dt, initial=np.inf))
                spread = max(spread, np.max(np.abs(dt - dt0), initial=0.0))
                off_unit = max(off_unit, np.max(np.abs(np.linalg.norm(kh[rows.start - lo :], axis=1) - 1.0), initial=0.0))
                jump = max(jump, np.max(np.linalg.norm(np.diff(kh, axis=0), axis=1), initial=0.0))
        if shortest <= 0:
            raise ValueError("times must be strictly increasing")
        if spread > 1e-6 * dt0:
            raise ValueError("time grid must be uniform")
        if off_unit > 1e-9:
            raise ValueError("k_hat samples must be unit vectors (within 1e-9)")
        if jump >= 0.5:
            raise ValueError("adjacent k_hat samples differ by >= 0.5; grid too coarse for finite differencing")
        return float(dt0)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a FiberPath is read-only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"FiberPath(n_samples={self.n_samples!r}, k_mag={self.k_mag!r}, dt={self.dt!r})"

    def rows(self, lo: int, hi: int):
        """``(times, k_hat)`` of the samples [lo, hi), clipped to [0, n): contiguous, shapes (m,) and (m, 3)."""
        lo = min(max(lo, 0), self.n_samples)
        return self._rows(lo, min(max(hi, lo), self.n_samples))

    @property
    def times(self) -> np.ndarray:
        return self.rows(0, self.n_samples)[0]

    @property
    def k_hat(self) -> np.ndarray:
        return self.rows(0, self.n_samples)[1]


def _held_rows(times, k_hat, lo, hi):
    """Rows [lo, hi) of a path's held arrays, as read-only views."""
    return _read_only(times[lo:hi]), _read_only(k_hat[lo:hi])


class SphericalAngles(NamedTuple):
    """Polar/azimuthal decomposition of a direction trajectory.

    polar       : angle from the +z axis, in [0, pi]
    azimuth     : unwrapped azimuthal angle (continuous branch, jump < pi per step)
    solid_angle : cumulative swept solid angle W(t_i) = Int_0^t d(azimuth)/dt' (1 - cos polar) dt',
                  read-only: the trapezoidal rule with the azimuth rate from
                  ``derivative_uniform``, the common kernel of the transport,
                  occupation-number and vacuum phases
    times       : the originating sample grid
    """

    times: np.ndarray
    polar: np.ndarray
    azimuth: np.ndarray
    solid_angle: np.ndarray


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_cone_angle(cone_angle) -> None:
    if not 0.0 <= cone_angle <= np.pi:
        raise ValueError(f"cone_angle must lie in [0, pi], got {cone_angle!r}")


def helix_path(cone_angle, omega, k_mag, n_cycles, n_steps) -> FiberPath:
    """Uniform helix: k_hat(t) = (sin c cos wt, sin c sin wt, cos c).

    ``n_steps``, a Python or numpy integer below 2**53 (past it the sample
    times i * step are no longer exact), counts time steps (n_steps + 1
    samples) over ``n_cycles`` full turns of the azimuth; at least 16 steps
    per cycle are required.  ``omega`` may be negative for clockwise
    winding.  The path holds only these parameters: its rows are evaluated
    on each read (see ``_HelixRows``).
    """
    _check_cone_angle(cone_angle)
    if not (np.isfinite(omega) and omega != 0):
        raise ValueError(f"omega must be finite and nonzero, got {omega!r}")
    if not 0 < n_cycles < np.inf:
        raise ValueError(f"n_cycles must be positive and finite, got {n_cycles!r}")
    if not _is_integer(n_steps):
        raise ValueError(f"n_steps must be an integer, got {n_steps!r}")
    n_steps = int(n_steps)
    if n_steps >= 2**53:
        raise ValueError(f"n_steps must be below 2**53, got {n_steps!r}")
    if n_steps < 16 * n_cycles:
        raise ValueError("need at least 16 steps per cycle")
    duration = 2.0 * np.pi * n_cycles / abs(omega)
    rows = _HelixRows(n_steps, duration, omega, np.sin(cone_angle), np.cos(cone_angle))
    return FiberPath._evaluated(rows, n_steps + 1, float(k_mag))


class _HelixRows(NamedTuple):
    """Rows of a helix's samples, bitwise those of ``np.linspace(0, duration, n_steps + 1)`` and its closed form.

    The times are linspace's: sample i is i * step + 0.0 with step =
    duration / n_steps, or (i / n_steps) * duration when that step
    underflows to 0, and the last sample is ``duration`` itself.  k_hat is
    (s cos(omega t), s sin(omega t), c), each turn evaluated in one
    contiguous scratch column; every float operation acts on one sample, so
    a window of rows is bitwise the slice of the whole-array form.
    """

    n_steps: int
    duration: float
    omega: float
    sin_c: float
    cos_c: float

    def __call__(self, lo: int, hi: int):
        t = np.arange(lo, hi, dtype=float)
        step = self.duration / self.n_steps
        if step == 0:
            t /= self.n_steps
            t *= self.duration
        else:
            t *= step
        t += 0.0
        if hi == self.n_steps + 1 and hi > lo:
            t[-1] = self.duration
        kh, column = np.empty((len(t), 3)), np.empty(len(t))
        for i, turn in enumerate((np.cos, np.sin)):
            np.multiply(self.sin_c, turn(np.multiply(self.omega, t, out=column), out=column), out=kh[:, i])
        kh[:, 2] = self.cos_c
        return t, kh


class _Unwrap:
    """``np.unwrap`` (period 2 pi) of a sequence handed over in consecutive pieces.

    Each call unwraps the next piece in place and returns it.  Between
    pieces it carries the last raw value, from which the next piece's first
    step is taken, and the running total of np.unwrap's branch corrections,
    which enters the piece's first correction before the cumsum, where
    np.unwrap's own cumsum adds it (adding it afterwards changes the last
    bits, and so the branch of a later step of exactly pi).  The pieces are
    thus bitwise the matching slices of np.unwrap of the whole sequence.
    """

    def __init__(self):
        self.last = None  # raw value of the last sample before the piece
        self.total = 0.0  # running total of the corrections (none is -0.0, so adding 0.0 first changes no bit)

    def __call__(self, piece: np.ndarray) -> np.ndarray:
        dd = np.diff(piece) if self.last is None else np.diff(piece, prepend=self.last)
        self.last = piece[-1] if len(piece) else self.last
        if len(dd):
            correction = np.mod(dd + np.pi, 2 * np.pi) - np.pi  # np.unwrap's corrections, with its float operations
            np.copyto(correction, np.pi, where=(correction == -np.pi) & (dd > 0))
            correction -= dd
            np.copyto(correction, 0, where=np.abs(dd) < np.pi)
            correction[0] += self.total
            np.cumsum(correction, out=correction)
            self.total = correction[-1]
            piece[len(piece) - len(correction) :] += correction
        return piece


class _Azimuth:
    """The azimuth of raw azimuths handed over in consecutive nonempty pieces, each replaced in place.

    Over the off-pole raw azimuths ``q`` the whole-array form is ``q + 2 pi
    round((prior - q) / 2 pi)`` with ``prior = [0, np.unwrap(q[:-1])]``:
    np.unwrap picks the branches, and rounding once more against the
    previous unwrapped sample rebuilds the sequential rule azimuth_i = q_i +
    2 pi round((azimuth_{i-1} - q_i) / 2 pi) from 0, bit for bit (only a
    step within rounding of pi could round differently).  Each piece
    unwraps its off-pole values with one ``_Unwrap``, rounds them so, and
    fills its pole samples with the last azimuth up to them (0 before any).
    """

    def __init__(self):
        self.unwrap = _Unwrap()
        self.prior = self.last = 0.0  # np.unwrap's value at the last off-pole sample so far, and the last azimuth

    def __call__(self, raw: np.ndarray, off_pole: np.ndarray) -> np.ndarray:
        q = raw[off_pole]
        azimuth = np.concatenate([[self.prior], self.unwrap(q.copy())])
        self.prior = azimuth[-1]
        azimuth = azimuth[:-1]  # each sample's prior, which becomes its azimuth in place
        azimuth -= q
        azimuth /= 2.0 * np.pi
        np.round(azimuth, out=azimuth)
        azimuth *= 2.0 * np.pi
        azimuth += q
        if len(q) < len(raw):
            azimuth = np.concatenate([[self.last], azimuth])[np.cumsum(off_pole)]
        raw[:] = azimuth
        self.last = raw[-1]
        return raw


def spherical_angles(path: FiberPath) -> SphericalAngles:
    """Polar angle, continuously unwrapped azimuth and swept solid angle of the path.

    At samples where the direction is (anti)parallel to z within
    ``POLE_SIN_TOL`` the azimuth is held at its previous value (0 before the
    first off-pole sample); elsewhere the branch nearest the previous sample
    is taken, so steps stay below pi.  The three series are one pass of
    ``_Angles``.
    """
    n, angles = path.n_samples, _Angles(path.dt)
    polar, azimuth, w = series = (np.empty(n), np.empty(n), np.empty(n))
    for window in _windows(path):
        for out, part in zip(series, angles(window)):
            out[window[0]] = part
    return SphericalAngles(times=path.times, polar=polar, azimuth=azimuth, solid_angle=_read_only(w))


class _Angles:
    """The polar angle, azimuth and W of each chunk of rows, called with the chunks' ``_windows`` in turn.

    The azimuth unwrap (``_Azimuth``), the last W and the at most 3 samples
    the next chunk's rates read carry from call to call; each row's angles
    are computed once.
    """

    def __init__(self, dt: float):
        self.dt, self.turns, self.last_w = dt, _Azimuth(), None
        self.lo, self.hi, self.held = 0, 0, (np.empty(0), np.empty(0))  # polar angle and azimuth of samples lo .. hi - 1

    def __call__(self, window):
        rows, _, k_hat, first_row = window
        start, stop, dt = rows.start, rows.stop, self.dt
        # trapezoid i spans samples i and i + 1, so the one ending at row start
        # reads the rate at start - 1, from samples start - 2 .. start; W
        # before it enters its term, where a whole-array cumsum adds it
        keep, first = max(start - 2, 0), max(start - 1, 0)
        k_hat = k_hat[self.hi - first_row :]  # the rate at row stop - 1 reads sample stop, and row 0's samples 1 and 2
        polar = np.clip(k_hat[:, 2], -1.0, 1.0)
        np.arccos(polar, out=polar)
        azimuth = np.arctan2(k_hat[:, 1], k_hat[:, 0])
        if len(azimuth):
            self.turns(azimuth, np.hypot(k_hat[:, 0], k_hat[:, 1]) >= POLE_SIN_TOL)
        polar, azimuth = self.held = tuple(np.concatenate([part[keep - self.lo :], new]) for part, new in zip(self.held, (polar, azimuth)))
        self.lo, self.hi = keep, self.hi + len(k_hat)
        rate = _stencil(azimuth, first - keep, stop - first, dt)[0]
        rate *= 1.0 - np.cos(polar[first - keep : stop - keep])
        w = (rate[1:] + rate[:-1]) * (0.5 * dt)
        if first > 0:
            w[0] += self.last_w
        np.cumsum(w, out=w)
        if start == 0:
            w = np.concatenate([[0.0], w])  # W is 0 at row 0
        self.last_w = w[-1]
        return polar[start - keep : stop - keep], azimuth[start - keep : stop - keep], w


def derivative_uniform(values, dt) -> np.ndarray:
    """Second-order derivative on a uniform grid along axis 0.

    Central differences at interior samples, one-sided three-point stencils at
    the two ends.
    """
    y = np.asarray(values, dtype=float)
    if len(y) < 3:
        raise ValueError("need at least 3 samples to differentiate")
    d = np.empty_like(y)
    d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dt)
    d[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * dt)
    d[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * dt)
    return d


def _stencil(values: np.ndarray, first, width: int, dt: float, scale: float = 1.0):
    """``derivative_uniform(scale * values, dt)`` and ``scale * values`` at the samples first + i, i < width.

    ``first`` is a sample index, or an array of them whose shape leads the
    shape of the two results.  One gather of the window first - 1 .. first
    + width, clipped to the series, gives each sample its central
    difference; samples 0 and n - 1 take the one-sided stencils.  The float
    operations are those of ``derivative_uniform``, so every row is bitwise
    the whole-array one.  A sample past the series' end reads the last
    sample three times, so its rate is zero.

    ``values`` may be a window of a longer series, indexed from its own
    first row: its first and last rows are then taken as the series' ends,
    so it must hold every sample the gather reads, and three samples at an
    end of the series that it reaches (``_path_window`` reads such windows).
    """
    samples = np.reshape(first, (-1, 1)) + np.arange(-1, width + 1)
    window = values.take(samples, axis=0, mode="clip")  # about 4x faster than values[clipped samples]
    window *= scale
    rate = np.subtract(window[:, 2:], window[:, :-2])
    rate /= 2.0 * dt
    if (at_start := samples[:, 1:-1] == 0).any():
        rate[at_start] = derivative_uniform(scale * values[:3], dt)[0]
    if (at_end := samples[:, 1:-1] == len(values) - 1).any():
        rate[at_end] = derivative_uniform(scale * values[-3:], dt)[-1]
    shape = np.shape(first) + rate.shape[1:]
    return rate.reshape(shape), window[:, 1:-1].reshape(shape)


def _path_window(path: FiberPath, start: int, stop: int) -> tuple[int, int]:
    """The rows [lo, hi) of the path that ``_stencil`` reads for the samples [start, stop).

    One row on either side of them, and three rows at an end of the path,
    for its one-sided stencil.
    """
    n = path.n_samples
    lo, hi = max(start - 1, 0), min(stop + 1, n)
    lo = min(lo, n - 3) if hi == n else lo
    hi = max(hi, 3) if lo == 0 else hi
    return lo, hi


def _windows(path: FiberPath):
    """(rows, times, k_hat, lo) of each chunk of rows, from one ``rows`` read each: a pass's reads; a generator.

    ``times`` are the chunk's; ``k_hat`` holds the rows from ``lo`` that its
    stencils read (``_path_window``), for every kernel of the pass.
    """
    for rows in _row_slices(0, path.n_samples):
        lo, hi = _path_window(path, rows.start, rows.stop)
        t, k_hat = path.rows(lo, hi)
        yield rows, t[rows.start - lo : rows.stop - lo], k_hat, lo


def k_dot(path: FiberPath) -> np.ndarray:
    """Time derivative of the full wave vector k(t) = k_mag k_hat(t), shape (n, 3)."""
    return derivative_uniform(path.k_mag * path.k_hat, path.dt)


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


def _motion_residual(path: FiberPath, window):
    """The rows of :func:`motion_residual`, |k_hat . D(k_mag k_hat)|, of a window (see ``_windows``)."""
    rows, _, k_hat, lo = window
    rate = _stencil(k_hat, rows.start - lo, rows.stop - rows.start, path.dt, path.k_mag)[0]
    return np.abs(np.einsum("ni,ni->n", k_hat[rows.start - lo : rows.stop - lo], rate))


def _invariant_residual(path: FiberPath, window, scale: float = 1.0):
    """The rows of the invariant residual, sqrt(2) |D k_hat + k_hat x (scale h)|, of a window.

    Row i is at the interior sample min(max(i, 1), n - 2) (``evolution.invariant_residual_series``); both
    residuals take their rates from ``_stencil`` on the window, with the whole-array forms' float operations.
    """
    rows, _, k_hat, lo = window
    n = path.n_samples
    first, last = min(max(rows.start, 1), n - 2), min(max(rows.stop, 2), n - 1)  # the interior samples read
    rate, centre = _stencil(k_hat, first - lo, last - first, path.dt)[0], k_hat[first - lo : last - lo]
    vec = _cross(centre, scale * _cross(centre, rate))
    vec += rate
    np.square(vec, out=vec)
    invariant = np.add.reduce(vec, axis=1)
    np.sqrt(invariant, out=invariant)
    invariant *= np.sqrt(2.0)
    if (first, last) != (rows.start, rows.stop):  # rows 0 and n - 1 repeat their neighbours
        invariant = invariant[np.clip(np.arange(rows.start, rows.stop), 1, n - 2) - first]
    return invariant


def motion_residual(path: FiberPath) -> np.ndarray:
    """Per-sample norm of  k_dot + k x ((k x k_dot)/k^2),  computed as |k_hat . k_dot|.

    The bracket is an identity for any constant-magnitude path, so this
    measures only the discretization error of the derivative; it vanishes to
    stencil order under grid refinement.  Expanding the double cross product,
    k_dot + k x (k x k_dot)/k^2 = k_hat (k_hat . k_dot): the residual is the
    radial part of the stencil derivative, taken without cancelling two
    O(|k_dot|) vectors against each other.  These are the rows of
    ``_motion_residual``, which the ``n_steps`` sweep reads a chunk at a time.
    """
    return np.concatenate([_motion_residual(path, window) for window in _windows(path)])


def rotation_vectors(path: FiberPath) -> np.ndarray:
    """Infinitesimal rotation vectors k_hat_i x k_hat_{i+1} of every step, shape (n-1, 3).

    Row i points along the axis taking k_hat(t_i) into k_hat(t_{i+1}) and its
    norm approximates the angle between them to third order in dt.  Like
    the generator, it does not depend on ``k_mag``.
    """
    return np.cross(path.k_hat[:-1], path.k_hat[1:])


def _parse_records(filename, lines, lineno, times, vecs):
    """Parse ``lines`` record by record, appending to ``times`` and ``vecs``.

    ``lineno`` is the number of lines before them in the file.  This is the
    only place that decides which tokens are accepted and that words an
    error.
    """
    for lineno, line in enumerate(lines, start=lineno + 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ValueError(f"{filename}:{lineno}: expected 4 fields 't kx ky kz', got {len(parts)}")
        try:
            rec = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"{filename}:{lineno}: {exc}") from None
        if not all(map(isfinite, rec)):
            token = next(p for p, v in zip(parts, rec) if not isfinite(v))
            raise ValueError(f"{filename}:{lineno}: non-finite value {token!r}")
        times.append(rec[0])
        vecs.extend(rec[1:])


def _fast_block(lines):
    """``np.loadtxt``'s parse of ``lines``, if it is a finite (m, 4) array; else None.

    np.loadtxt accepts a subset of what ``float`` accepts (it rejects
    ``1_0`` and non-ASCII digits) and splits on the same whitespace, so a
    block it parses holds the values ``_parse_records`` would give; any
    other block goes to ``_parse_records``, which accepts or rejects it.
    """
    with warnings.catch_warnings():
        # a block of comments and blank lines is no error here
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            block = np.loadtxt(lines, comments="#", ndmin=2)
        except ValueError:
            return None
    if block.shape[1] != 4 or not np.isfinite(block).all():
        return None
    return block


def _read_records(filename):
    """The file's times and vectors as two flat float64 buffers, read one block of lines at a time."""
    times, vecs = array("d"), array("d")
    with open(filename, encoding="utf-8", errors="surrogateescape") as fh:  # any byte in a comment, whatever the locale
        lineno = 0
        while lines := list(islice(fh, _PARSE_LINES)):
            block = _fast_block(lines)
            if block is None:
                _parse_records(filename, lines, lineno, times, vecs)
            else:
                times.frombytes(block[:, 0].tobytes())
                vecs.frombytes(block[:, 1:].tobytes())
            lineno += len(lines)
            del lines, block  # before the next block is read
    return times, vecs


def load_path(filename) -> FiberPath:
    """Read a trajectory from a line-oriented text file.

    Each record holds four whitespace-separated floats ``t kx ky kz``;
    ``#`` starts a comment, which may hold any bytes: the file is read as
    UTF-8 whatever the locale.  Every value must be finite.  The magnitude is
    inferred from the first record and every subsequent vector norm must
    match it within 1e-6 (relative); a nonzero vector whose norm overflows
    to inf or underflows to 0 in float64 is rejected, and one whose |k|^2 is
    subnormal is scaled by its largest component for its norm.  The file is
    read ``_PARSE_LINES`` lines at a time; ``np.loadtxt`` parses each block, and
    a block it cannot parse into finite records goes through the per-line
    parser ``_parse_records``, so every accepted token and every message is
    that parser's.  The two float64 buffers of times and vectors become
    ``times`` and ``k_hat`` (normalised in place), so nothing is held twice.
    """
    times, vecs = _read_records(filename)
    if len(times) < 3:
        raise ValueError(f"{filename}: path needs at least 3 samples, got {len(times)}")
    k_hat = np.frombuffer(vecs, dtype=float).reshape(-1, 3)  # the wave vectors, normalised below
    with np.errstate(over="ignore"):  # an overflowed norm is rejected just below
        norms = _row_norms(k_hat)
    odd = np.flatnonzero(np.isinf(norms) | (norms < 2.0**-511))  # overflowed, or |k|^2 below the normal range
    scale = np.abs(k_hat[odd]).max(axis=1)
    short = (0.0 < norms[odd]) & (norms[odd] < np.inf)  # |k|^2 subnormal: the norm lost bits, so scale first
    norms[odd[short]] = scale[short] * np.linalg.norm(k_hat[odd[short]] / scale[short, None], axis=1)
    lost = odd[(scale > 0) & ~short]  # a zero vector is no underflow
    if len(lost):
        raise ValueError(f"{filename}: sample {lost[0]}: |k| is outside the range of float64 norms")
    k_mag = float(norms[0])
    if k_mag <= 0:
        raise ValueError(f"{filename}: first sample has zero wave vector")
    deviation = np.subtract(norms, k_mag)
    np.abs(deviation, out=deviation)
    if np.max(deviation) > 1e-6 * k_mag:
        j = int(np.argmax(deviation))
        raise ValueError(
            f"{filename}: |k| varies along the path (sample {j}: {float(norms[j])!r} vs {k_mag!r}); "
            "only constant-magnitude trajectories are supported"
        )
    del deviation
    k_hat /= norms[:, None]
    del norms
    return FiberPath(times=np.frombuffer(times, dtype=float), k_hat=k_hat, k_mag=k_mag)
