"""Wave-vector trajectories on the unit sphere and their discrete calculus.

A trajectory is a uniformly sampled unit-vector path k_hat(t) together with a
constant wave-vector magnitude.  Everything downstream (transport, phases)
consumes the sampled form, whether the path was generated analytically or
loaded from a file.
"""
from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from math import isfinite

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
    "solid_angle_series",
    "derivative_uniform",
]

POLE_SIN_TOL = 1e-9  # below this sin(polar), the azimuth is held constant
_CHUNK_ROWS = 1 << 14  # rows per chunk of a row-wise pass; bounds its temporaries
_PARSE_LINES = 1 << 13  # lines per parse block of load_path; bounds the lines held at once


def _read_only(values: np.ndarray) -> np.ndarray:
    """``values`` with writing switched off, so a cached series can be shared."""
    values.flags.writeable = False
    return values


def _row_norms(x: np.ndarray, adjacent: bool = False) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)``, or of ``np.diff(x, axis=0)`` when ``adjacent``.

    Computed ``_CHUNK_ROWS`` rows at a time (with a one-row overlap for the
    differences), so only one chunk of temporaries exists at once.  Each row
    is reduced on its own, so the result is bitwise that of the whole-array
    form.
    """
    lag = int(adjacent)
    out = np.empty(len(x) - lag)
    for start in range(0, len(out), _CHUNK_ROWS):
        rows = x[start : start + _CHUNK_ROWS + lag]
        if adjacent:
            rows = np.diff(rows, axis=0)
        out[start : start + _CHUNK_ROWS] = np.linalg.norm(rows, axis=1)
    return out


@dataclass(frozen=True)
class FiberPath:
    """Sampled wave-vector direction trajectory with constant magnitude.

    times      : strictly increasing, uniformly spaced sample instants
    k_hat      : (n, 3) array of unit vectors
    k_mag      : positive wave-vector magnitude (inverse length)

    Construction checks the samples: finite, a strictly increasing uniform
    grid, unit vectors within 1e-9 and adjacent steps below 0.5.  Beyond
    one float and a few bools per sample, the checks hold only one chunk of
    temporaries: the row norms go in chunks (see ``_row_norms``) and the
    grid check works in place.

    The path holds nothing derived: the generator coefficients ``h`` are
    built by ``evolution.hamiltonian_coefficients`` for the stage that reads
    them, and the residual columns are computed from ``k_hat`` when read.
    The path's arrays must not be modified once a stage has read them.
    """

    times: np.ndarray
    k_hat: np.ndarray
    k_mag: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        kh = np.asarray(self.k_hat, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "k_hat", kh)
        if t.ndim != 1 or len(t) < 3:
            raise ValueError("path needs at least 3 samples")
        if kh.shape != (len(t), 3):
            raise ValueError(f"k_hat shape {kh.shape} does not match {len(t)} samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(kh))):
            raise ValueError("times and k_hat must be finite")
        if not (np.isfinite(self.k_mag) and self.k_mag > 0):
            raise ValueError(f"k_mag must be a positive finite number, got {self.k_mag!r}")
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise ValueError("times must be strictly increasing")
        dt0 = dt[0]
        np.subtract(dt, dt0, out=dt)
        if np.max(np.abs(dt, out=dt)) > 1e-6 * dt0:
            raise ValueError("time grid must be uniform")
        del dt
        norms = _row_norms(kh)
        norms -= 1.0
        if np.max(np.abs(norms, out=norms)) > 1e-9:
            raise ValueError("k_hat samples must be unit vectors (within 1e-9)")
        del norms
        if np.max(_row_norms(kh, adjacent=True)) >= 0.5:
            raise ValueError(
                "adjacent k_hat samples differ by >= 0.5; grid too coarse for finite differencing"
            )

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_samples(self) -> int:
        return len(self.times)

    def k_vectors(self) -> np.ndarray:
        """Full wave vectors k_mag * k_hat, shape (n, 3)."""
        return self.k_mag * self.k_hat


@dataclass(frozen=True)
class SphericalAngles:
    """Polar/azimuthal decomposition of a direction trajectory.

    polar   : angle from the +z axis, in [0, pi]
    azimuth : unwrapped azimuthal angle (continuous branch, jump < pi per step)
    times   : the originating sample grid

    The swept solid angle is computed on first use and cached.
    """

    times: np.ndarray
    polar: np.ndarray
    azimuth: np.ndarray

    @cached_property
    def solid_angle(self) -> np.ndarray:
        """Cumulative swept solid angle W(t_i), read-only; see :func:`solid_angle_series`.

        Built ``_CHUNK_ROWS`` samples at a time: each block takes the
        azimuth rate over its ``_halo`` window, and the running total enters
        the block's first trapezoid term, which is where a whole-array cumsum
        adds it.  The result is bitwise that of the whole-array form.
        """
        dt = float(self.times[1] - self.times[0])
        n = len(self.polar)
        out = np.empty(n)
        out[0] = 0.0
        for start in range(1, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            lo, hi = _halo(start - 1, stop, n)  # the integrand is needed at samples start-1 .. stop-1
            rate = derivative_uniform(self.azimuth[lo:hi], dt)[start - 1 - lo : stop - lo]
            integrand = rate * (1.0 - np.cos(self.polar[start - 1 : stop]))
            terms = (integrand[1:] + integrand[:-1]) * (0.5 * dt)
            if start > 1:
                terms[0] += out[start - 1]
            np.cumsum(terms, out=out[start:stop])
        return _read_only(out)


def helix_path(cone_angle, omega, k_mag, n_cycles, n_steps) -> FiberPath:
    """Uniform helix: k_hat(t) = (sin c cos wt, sin c sin wt, cos c).

    ``n_steps`` counts time steps (n_steps + 1 samples) over ``n_cycles`` full
    turns of the azimuth; at least 16 steps per cycle are required.  ``omega``
    may be negative for clockwise winding.
    """
    if not 0.0 <= cone_angle <= np.pi:
        raise ValueError(f"cone_angle must lie in [0, pi], got {cone_angle!r}")
    if not (np.isfinite(omega) and omega != 0):
        raise ValueError(f"omega must be finite and nonzero, got {omega!r}")
    if not 0 < n_cycles < np.inf:
        raise ValueError(f"n_cycles must be positive and finite, got {n_cycles!r}")
    n_steps = int(n_steps)
    if n_steps < 16 * n_cycles:
        raise ValueError("need at least 16 steps per cycle")
    duration = 2.0 * np.pi * n_cycles / abs(omega)
    t = np.linspace(0.0, duration, n_steps + 1)
    s, c = np.sin(cone_angle), np.cos(cone_angle)
    kh = np.stack([s * np.cos(omega * t), s * np.sin(omega * t), np.full_like(t, c)], axis=1)
    return FiberPath(times=t, k_hat=kh, k_mag=float(k_mag))


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


def _azimuth_in_place(raw: np.ndarray, off_pole: np.ndarray) -> None:
    """Replace the raw azimuths ``raw`` by the azimuth, in one pass of ``_CHUNK_ROWS`` samples.

    Over the off-pole raw azimuths ``q`` the whole-array form is ``q + 2 pi
    round((prior - q) / 2 pi)`` with ``prior = [0, np.unwrap(q[:-1])]``:
    np.unwrap picks the branches, and rounding once more against the
    previous unwrapped sample rebuilds the sequential rule azimuth_i = q_i +
    2 pi round((azimuth_{i-1} - q_i) / 2 pi) from 0, bit for bit (only a
    step within rounding of pi could round differently).  Each block
    unwraps its off-pole values with one ``_Unwrap``, rounds them so, and
    fills its pole samples with the last azimuth up to them (0 before any).
    """
    unwrap = _Unwrap()
    prior = last = 0.0  # np.unwrap's value at the last off-pole sample before the block, and the last azimuth
    for start in range(0, len(raw), _CHUNK_ROWS):
        block, flags = raw[start : start + _CHUNK_ROWS], off_pole[start : start + _CHUNK_ROWS]
        q = block[flags]
        azimuth = np.concatenate([[prior], unwrap(q.copy())])
        prior = azimuth[-1]
        azimuth = azimuth[:-1]  # each sample's prior, which becomes its azimuth in place
        azimuth -= q
        azimuth /= 2.0 * np.pi
        np.round(azimuth, out=azimuth)
        azimuth *= 2.0 * np.pi
        azimuth += q
        if len(q) < len(block):
            azimuth = np.concatenate([[last], azimuth])[np.cumsum(flags)]
        block[:] = azimuth
        last = block[-1]


def spherical_angles(path: FiberPath) -> SphericalAngles:
    """Polar angle and continuously unwrapped azimuth of the path.

    At samples where the direction is (anti)parallel to z within
    ``POLE_SIN_TOL`` the azimuth is held at its previous value (0 before the
    first off-pole sample); elsewhere the branch nearest the previous sample
    is taken, so steps stay below pi.  The raw azimuth buffer becomes the
    azimuth in place (see ``_azimuth_in_place``); beyond the two outputs
    this holds one bool per sample and one chunk of temporaries.
    """
    kh = path.k_hat
    polar = np.clip(kh[:, 2], -1.0, 1.0)
    np.arccos(polar, out=polar)
    raw = np.hypot(kh[:, 0], kh[:, 1])  # sin(polar) first, then the raw azimuth
    off_pole = raw >= POLE_SIN_TOL
    np.arctan2(kh[:, 1], kh[:, 0], out=raw)
    _azimuth_in_place(raw, off_pole)
    return SphericalAngles(times=path.times, polar=polar, azimuth=raw)


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


def k_dot(path: FiberPath) -> np.ndarray:
    """Time derivative of the full wave vector k(t), shape (n, 3)."""
    return derivative_uniform(path.k_vectors(), path.dt)


def _halo(start: int, stop: int, n: int) -> tuple[int, int]:
    """Bounds [lo, hi) of the window that differentiates rows [start, stop) of an n-sample series.

    The window reaches one sample past each side of the rows (and holds at
    least 3 samples), so ``derivative_uniform``'s one-sided stencils only
    land on the ends of the series, and every row is bitwise the
    whole-array one.
    """
    hi = min(max(stop + 1, 3), n)
    return max(min(start - 1, hi - 3), 0), hi


def _k_dot_chunks(path: FiberPath, start: int = 0, stop: int | None = None):
    """Rows [start, stop) of ``k_dot(path)``, a quarter of ``_CHUNK_ROWS`` at a time: yields (rows, k, k_dot).

    Each chunk is differentiated over its ``_halo`` window.  The kernels
    that read these chunks keep about 150 B of temporaries per row, so they
    go in quarter chunks; the other row-wise passes keep less per row and
    run slower in smaller chunks.
    """
    n = path.n_samples
    stop = n if stop is None else stop
    step = max(_CHUNK_ROWS // 4, 1)
    for lo_row in range(start, stop, step):
        hi_row = min(lo_row + step, stop)
        lo, hi = _halo(lo_row, hi_row, n)
        k = path.k_mag * path.k_hat[lo:hi]
        rows = slice(lo_row - lo, hi_row - lo)
        yield slice(lo_row, hi_row), k[rows], derivative_uniform(k, path.dt)[rows]


def _motion_residual_rows(path: FiberPath, start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of :func:`motion_residual`, from the path's ``k_hat`` window around them."""
    out = np.empty(max(stop - start, 0))
    for rows, _, rate in _k_dot_chunks(path, start, stop):
        np.abs(np.einsum("ni,ni->n", path.k_hat[rows], rate), out=out[rows.start - start : rows.stop - start])
    return out


def motion_residual(path: FiberPath) -> np.ndarray:
    """Per-sample norm of  k_dot + k x ((k x k_dot)/k^2),  computed as |k_hat . k_dot|.

    The bracket is an identity for any constant-magnitude path, so this
    measures only the discretization error of the derivative; it vanishes to
    stencil order under grid refinement.  Expanding the double cross product,
    k_dot + k x (k x k_dot)/k^2 = k_hat (k_hat . k_dot): the residual is the
    radial part of the stencil derivative, taken without cancelling two
    O(|k_dot|) vectors against each other.  Any rows of it come from
    ``_motion_residual_rows``, which reads ``k_dot`` one chunk at a time
    (see ``_k_dot_chunks``); a scenario's results column reads it a chunk
    of rows at a time, so it is never held whole.
    """
    return _motion_residual_rows(path, 0, path.n_samples)


def rotation_vectors(path: FiberPath) -> np.ndarray:
    """Infinitesimal rotation vectors (k_i x k_{i+1}) / k^2 of every step, shape (n-1, 3).

    Row i points along the axis taking k_hat(t_i) into k_hat(t_{i+1}) and its
    norm approximates the angle between them to third order in dt.
    """
    k = path.k_vectors()
    return np.cross(k[:-1], k[1:]) / path.k_mag**2


def solid_angle_series(angles: SphericalAngles) -> np.ndarray:
    """Cumulative swept solid angle  Int_0^t  d(azimuth)/dt' (1 - cos polar) dt'.

    Trapezoidal rule with the azimuth rate from ``derivative_uniform``; this is
    the common kernel of the transport, occupation-number and vacuum phases.
    The series is computed once per ``angles`` and returned read-only.
    """
    return angles.solid_angle


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
    with open(filename) as fh:
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
    ``#`` starts a comment.  Every value must be finite.  The magnitude is
    inferred from the first record and every subsequent vector norm must
    match it within 1e-6 (relative).  The file is read ``_PARSE_LINES``
    lines at a time; ``np.loadtxt`` parses each block, and a block it
    cannot parse into finite records (or that holds an error) goes through
    the per-line parser ``_parse_records``, so every accepted token and
    every message is that parser's.  The times and vectors go into two
    float64 buffers, which become ``times`` and ``k_hat``: the vectors are
    normalised in place and the norms are taken in chunks (``_row_norms``),
    so nothing is held twice.
    """
    times, vecs = _read_records(filename)
    if len(times) < 3:
        raise ValueError(f"{filename}: path needs at least 3 samples, got {len(times)}")
    k_hat = np.frombuffer(vecs, dtype=float).reshape(-1, 3)  # the wave vectors, normalised below
    norms = _row_norms(k_hat)
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
