"""Property tests: the chunked and block-wise path layers decide exactly as whole-array code.

With the chunk size made small, random short paths carry random defects
(off-grid times, non-unit samples, coarse steps, non-finite values) at
random rows, so chunk edges, the one-row overlap of the step check and the
last row are all hit.  The chunked azimuth unwrap and solid angle are
compared bit for bit with np.unwrap and one cumsum, the shared unwrap kernel
on random pieces with np.unwrap of the whole sequence, the block parse of
``load_path`` with a per-line ``float`` parse, on random tokens, and the
rows of a helix, evaluated on each read, with np.linspace and the closed
form over the whole path.
"""
from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberphase import geometry
from fiberphase.geometry import FiberPath, helix_path


def _whole_array_checks(t, kh):
    """FiberPath's finite, grid, unit-norm and step checks with full-size temporaries: the oracle."""
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(kh))):
        raise ValueError("times and k_hat must be finite")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("times must be strictly increasing")
    if np.max(np.abs(dt - dt[0])) > 1e-6 * dt[0]:
        raise ValueError("time grid must be uniform")
    norms = np.linalg.norm(kh, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ValueError("k_hat samples must be unit vectors (within 1e-9)")
    steps = np.linalg.norm(np.diff(kh, axis=0), axis=1)
    if np.max(steps) >= 0.5:
        raise ValueError("adjacent k_hat samples differ by >= 0.5; grid too coarse for finite differencing")


def _verdict(check, t, kh):
    try:
        check(t, kh)
    except ValueError as exc:
        return str(exc)
    return None


def _fiber_path(t, kh):
    FiberPath(times=t, k_hat=kh, k_mag=1.0)


# (kind, size): sizes on both sides of each threshold
DEFECTS = st.sampled_from([
    ("time", 1e-8), ("time", 1e-5), ("time", 0.3), ("time", -2.0),
    ("norm", 5e-10), ("norm", 2e-9), ("norm", -0.1),
    ("turn", 0.78), ("turn", 0.85), ("turn", 2.0),
    ("value", np.nan), ("value", np.inf),
])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    chunk=st.integers(min_value=1, max_value=9),
    defects=st.lists(st.tuples(DEFECTS, st.floats(min_value=0.0, max_value=1.0)), max_size=3),
)
def test_chunked_validation_matches_whole_array_checks(n, chunk, defects):
    t = 0.1 * np.arange(n)
    phase = 0.05 * np.arange(n)
    kh = np.stack([0.6 * np.cos(phase), 0.6 * np.sin(phase), np.full(n, 0.8)], axis=1)
    for (kind, size), where in sorted(defects, key=lambda defect: defect[0][0] == "value"):  # turns before inf
        row = min(int(where * n), n - 1)
        if kind == "time":
            t[row] += size * 0.1
        elif kind == "norm":
            kh[row] *= 1.0 + size
        elif kind == "value":  # a non-finite time, or k_hat component
            (t[row:row + 1] if np.isnan(size) else kh[row, 1:2])[:] = size
        else:  # rotate rows from here on about z, so one step turns by `size`
            c, s = np.cos(size), np.sin(size)
            kh[row:, :2] = kh[row:, :2] @ np.array([[c, s], [-s, c]])
    want = _verdict(_whole_array_checks, t, kh)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        assert _verdict(_fiber_path, t, kh) == want


# ------------------------------------------- chunked unwrap and solid angle

def _whole_array_angles(path):
    """Polar angle, azimuth and W with whole-array numpy: np.unwrap, re-rounded, then one cumsum.

    The azimuth is np.unwrap of the off-pole samples, rounded once more
    against the previous unwrapped sample and forward-filled over the pole
    samples; W is the trapezoid cumsum of the stencil rate times
    (1 - cos polar).  This is the oracle of the chunked passes.
    """
    kh = path.k_hat
    polar = np.arccos(np.clip(kh[:, 2], -1.0, 1.0))
    off_pole = np.hypot(kh[:, 0], kh[:, 1]) >= geometry.POLE_SIN_TOL
    off = np.arctan2(kh[:, 1], kh[:, 0])[off_pole]
    prior = np.zeros_like(off)
    prior[1:] = np.unwrap(off[:-1])
    unwrapped = np.round((prior - off) / (2.0 * np.pi)) * (2.0 * np.pi) + off
    last = np.cumsum(off_pole) - 1
    azimuth = np.zeros(len(kh))
    azimuth[last >= 0] = unwrapped[last[last >= 0]]
    dt = float(path.times[1] - path.times[0])
    integrand = geometry.derivative_uniform(azimuth, dt) * (1.0 - np.cos(polar))
    w = np.empty_like(integrand)
    w[0] = 0.0
    np.cumsum((integrand[1:] + integrand[:-1]) * (0.5 * dt), out=w[1:])
    return polar, azimuth, w


# colatitudes: on the pole, within POLE_SIN_TOL of it, just outside, and away
COLATITUDES = st.sampled_from([0.0, 1e-12, 2e-9, 1e-3, 0.05, 0.15])
# azimuth steps: across the branch cut at +-pi and within rounding of it, and anything else
AZIMUTH_STEPS = st.one_of(
    st.sampled_from([np.pi, -np.pi, np.nextafter(np.pi, 0.0), -np.nextafter(np.pi, 0.0),
                     np.nextafter(np.pi, 4.0), 3.0, -3.0, 0.0]),
    st.floats(min_value=-3.2, max_value=3.2),
)


def _sphere_path(colatitudes, steps, south, dt):
    theta = np.array(colatitudes)
    phi = np.cumsum(steps)  # several windings when the steps keep one sign
    z = -np.cos(theta) if south else np.cos(theta)
    kh = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), z], axis=1)
    return FiberPath(times=dt * np.arange(len(theta)), k_hat=kh, k_mag=1.0)


@settings(max_examples=250, deadline=None)
@given(
    samples=st.lists(st.tuples(COLATITUDES, AZIMUTH_STEPS), min_size=3, max_size=60),
    south=st.booleans(),
    dt=st.sampled_from([0.1, 1e-3, 3.0]),
    chunk=st.integers(min_value=1, max_value=9),
)
@example(samples=[(0.0, 1.0)] * 7, south=False, dt=0.1, chunk=2)  # every sample on the pole
@example(samples=[(0.0, 2.0), (0.0, 1.0)] + [(0.15, 2.5)] * 20, south=True, dt=0.1, chunk=3)
def test_chunked_angles_and_solid_angle_match_whole_array(samples, south, dt, chunk):
    colatitudes, steps = zip(*samples)
    path = _sphere_path(colatitudes, steps, south, dt)
    polar, azimuth, w = _whole_array_angles(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        angles = geometry.spherical_angles(path)
        chunked_w = angles.solid_angle
    assert angles.polar.tobytes() == polar.tobytes()
    assert angles.azimuth.tobytes() == azimuth.tobytes()
    assert chunked_w.tobytes() == w.tobytes()


@st.composite
def _pole_runs(draw, max_n=60):
    """(n, chunk, pole flags, azimuth steps): runs of pole samples that start and end at, just before or just
    after chunk edges, and one azimuth step per sample."""
    n = draw(st.integers(min_value=3, max_value=max_n))
    chunk = draw(st.integers(min_value=1, max_value=9))
    pole = np.zeros(n, dtype=bool)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        start = draw(st.integers(min_value=0, max_value=n // chunk)) * chunk + draw(st.sampled_from([-1, 0, 1]))
        stop = start + draw(st.sampled_from([1, chunk - 1, chunk, chunk + 1, 2 * chunk]))
        pole[max(start, 0) : max(stop, 0)] = True
    return n, chunk, pole, draw(st.lists(AZIMUTH_STEPS, min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(runs=_pole_runs(), south=st.booleans())
@example(runs=(12, 3, np.array([True] * 3 + [False] * 3 + [True] * 4 + [False, True]), [2.0] * 12), south=False)
def test_chunked_pole_fill_matches_whole_array_fill(runs, south):
    n, chunk, pole, steps = runs
    colatitudes = np.where(pole, 0.0, 0.15)
    colatitudes[pole & (np.arange(n) % 2 == 1)] = 1e-12  # within POLE_SIN_TOL of the pole, not on it
    path = _sphere_path(colatitudes, steps, south, 0.1)
    _, azimuth, _ = _whole_array_angles(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        assert geometry.spherical_angles(path).azimuth.tobytes() == azimuth.tobytes()


# ------------------------------------------- the angle kernel's chunks

def _pole_run_path(runs):
    n, chunk, pole, steps = runs
    colatitudes = np.where(pole, 0.0, 0.15)
    colatitudes[pole & (np.arange(n) % 2 == 1)] = 1e-12
    return _sphere_path(colatitudes, steps, False, 0.1), chunk


def _meridian(n):
    """A great circle through both poles in n >= 13 samples, two of them within rounding of the poles."""
    theta = -0.5 * np.pi + np.arange(n) * (0.5 * np.pi / max(4, (n - 1) // 4))
    return FiberPath(times=0.1 * np.arange(n),
                     k_hat=np.stack([np.sin(theta), 0.0 * theta, np.cos(theta)], axis=1), k_mag=1.0)


def _walk(n, seed):
    rng = np.random.default_rng(seed)
    polar = 0.4 + np.cumsum(rng.uniform(-0.08, 0.08, n))
    azimuth = np.cumsum(rng.uniform(-0.05, 0.3, n))
    kh = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)
    return FiberPath(times=0.1 * np.arange(n), k_hat=kh, k_mag=1.0)


def _with_chunk(path):
    """(path, _CHUNK_ROWS): 1 to 9 rows for paths of up to 40 samples, else 1 to 9 chunks of rows."""
    n = path.n_samples
    return st.tuples(st.just(path), st.integers(1, 9) if n <= 40 else st.integers(n // 8, n + 2))


ANGLE_CASES = st.one_of(
    # helices, clockwise and on the pole (cone 0 and pi) among them
    st.builds(lambda n, cone, omega: geometry.helix_path(cone, omega, 1.0, (n - 1) / 32, n - 1),
              st.integers(3, 300), st.sampled_from([0.0, 0.4, np.pi / 2, 2.8, np.pi]),
              st.sampled_from([1.0, -2.0])).flatmap(_with_chunk),
    st.builds(_meridian, st.integers(13, 300)).flatmap(_with_chunk),
    _pole_runs(max_n=40).map(_pole_run_path),
    st.builds(_walk, st.integers(3, 300), st.integers(0, 2**32 - 1)).flatmap(_with_chunk),
)


@settings(max_examples=200, deadline=None)
@given(case=ANGLE_CASES)
@example(case=(_meridian(40), 4))
def test_angle_chunks_match_spherical_angles(case):
    # the angle kernel's pieces, one per chunk of a pass, are the rows of
    # spherical_angles, whose pass takes these paths in one chunk; a second
    # pass gives the same bits
    path, chunk = case
    n = path.n_samples
    angles = geometry.spherical_angles(path)
    want = (angles.polar, angles.azimuth, angles.solid_angle)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        for _ in range(2):
            pieces = list(map(geometry._Angles(path.dt), geometry._windows(path)))
            assert [len(piece[0]) for piece in pieces] == [rows.stop - rows.start for rows in geometry._row_slices(0, n)]
            for i in range(3):
                assert np.concatenate([piece[i] for piece in pieces]).tobytes() == want[i].tobytes(), i


# ------------------------------------------------------- load_path grammar

def _per_line_records(filename):
    """Every record of the file parsed line by line with ``float``: the oracle of the block parse."""
    times, vecs = [], []
    with open(filename) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split("#", 1)[0].split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ValueError(f"{filename}:{lineno}: expected 4 fields 't kx ky kz', got {len(parts)}")
            try:
                rec = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{filename}:{lineno}: {exc}") from None
            if not all(map(np.isfinite, rec)):
                token = next(p for p, v in zip(parts, rec) if not np.isfinite(v))
                raise ValueError(f"{filename}:{lineno}: non-finite value {token!r}")
            times.append(rec[0])
            vecs.extend(rec[1:])
    return array("d", times), array("d", vecs)


def _outcome(read, filename):
    try:
        times, vecs = read(filename)
    except ValueError as exc:
        return "error", str(exc)
    return times.tobytes(), vecs.tobytes()


# tokens float() accepts, some of which np.loadtxt rejects; non-finite ones; and random junk
TOKENS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1_0", "1.5e+3_0", "\u0661", "-\u0661.5", "-0.0", "+.5", "1.", "1E-5", "0"]),
    st.sampled_from(["nan", "inf", "-Infinity", "1e999"]),
    st.text(alphabet="0123456789+-.e_", min_size=1, max_size=6),
)
SPACES = st.text(alphabet=" \t\u00a0\u2003\x0b\x1c", min_size=1, max_size=2)
LINES = st.one_of(
    st.tuples(st.lists(st.tuples(TOKENS, SPACES), min_size=3, max_size=5), st.sampled_from(["", "  # note", "#"])).map(
        lambda rec: "".join(token + space for token, space in rec[0]) + rec[1]
    ),
    st.sampled_from(["", "   ", "# comment", " # c", "\x1c"]),
)


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(LINES, max_size=12), block=st.integers(min_value=1, max_value=5))
def test_block_parse_matches_per_line_parse(tmp_path_factory, lines, block):
    filename = tmp_path_factory.mktemp("grammar") / "path.txt"
    filename.write_text("\n".join(lines) + "\n")
    want = _outcome(_per_line_records, filename)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_PARSE_LINES", block)
        assert _outcome(geometry._read_records, filename) == want


def _whole_array_unwrap(q):
    prior = np.zeros_like(q)
    prior[1:] = np.unwrap(q[:-1])
    return np.round((prior - q) / (2.0 * np.pi)) * (2.0 * np.pi) + q


# raw azimuths, among them pairs exactly pi apart (+-pi/2, 0 and +-pi), which
# put (previous - current) / 2 pi on a half-integer, where the rounding turns
# on the last bit of the carried total
RAW_AZIMUTHS = st.one_of(
    st.sampled_from([0.0, np.pi, -np.pi, 0.5 * np.pi, -0.5 * np.pi, 2.0, -2.0, np.pi - 2.0]),
    st.floats(min_value=-np.pi, max_value=np.pi),
)


# about 13 windings and then a step of exactly -pi: the rounding at the last sample
# differs if a block adds the carried total after its cumsum instead of before
WINDING_THEN_HALF_TURN = [
    2.674952214267792, -1.2306097907225286, 2.51379663062961, -0.9357411457780493, 1.8990061630819888,
    -1.402479081605378, 1.6638094576321016, -2.2301145488776513, 0.8631833210568942, -2.730516828427099,
    0.37518538968634374, -2.885577131723373, 0.1965053657039455, 2.810175594714405, -0.4421153054146423,
    2.4963038017377706, -1.2236128751077935, 1.5835960807266751, -1.6886214980130454, 1.1296668346891643,
    -2.3748877128824866, 0.5676163306291748, -2.8232878974810625, 0.03687424290601271, 2.9545526532400466,
    -0.5037984725812841, 2.5854051507870786, 0.30224626794258924, 2.659514735004233, -0.5644444092577565,
    2.4671572127386447, -1.2904943276876857, -1.5707963267948966, 1.5707963267948966,
]


@settings(max_examples=250, deadline=None)
@given(raw=st.lists(RAW_AZIMUTHS, max_size=60), chunk=st.integers(min_value=1, max_value=9))
@example(raw=WINDING_THEN_HALF_TURN, chunk=7)
def test_chunked_unwrap_matches_whole_array_on_raw_azimuths(raw, chunk):
    q = np.array(raw, dtype=float)
    want = _whole_array_unwrap(q)
    turns = geometry._Azimuth()
    for rows in geometry._row_slices(0, len(q), chunk):  # pieces of `chunk` samples, the last one shorter
        assert turns(q[rows], np.ones(rows.stop - rows.start, dtype=bool)).base is q
    assert q.tobytes() == want.tobytes()


# values whose differences include steps of exactly +-pi (0 and +-pi, +-pi/2),
# steps within an ulp of pi and steps of several turns
UNWRAP_VALUES = st.one_of(
    st.sampled_from([
        0.0, -0.0, np.pi, -np.pi, 0.5 * np.pi, -0.5 * np.pi, np.nextafter(np.pi, 0.0), np.nextafter(-np.pi, 0.0),
        np.nextafter(0.5 * np.pi, 4.0), 3.0 * np.pi, 2.0, np.pi - 2.0,
    ]),
    st.floats(min_value=-20.0, max_value=20.0),
)


@settings(max_examples=250, deadline=None)
@given(values=st.lists(UNWRAP_VALUES, max_size=60), cuts=st.lists(st.integers(0, 60), max_size=8))
@example(values=WINDING_THEN_HALF_TURN, cuts=[0, 0, 1, 2, 2, 17, 18, 33])
def test_unwrap_kernel_pieces_match_np_unwrap_of_the_whole(values, cuts):
    # the cuts split the sequence into consecutive pieces, empty ones (a
    # repeated cut) and one-sample ones among them
    seq = np.array(values, dtype=float)
    cuts = sorted(min(cut, len(seq)) for cut in cuts)
    want = np.unwrap(seq)
    unwrap = geometry._Unwrap()
    for lo, hi in zip([0, *cuts], [*cuts, len(seq)]):
        piece = seq[lo:hi].copy()
        assert unwrap(piece) is piece
        assert piece.tobytes() == want[lo:hi].tobytes(), (lo, hi)


# ------------------------------------------------ helix rows on each read

def eager_helix(cone_angle, omega, n_cycles, n_steps):
    """``(times, k_hat)`` of helix_path's whole-array form, np.linspace and the closed form: the oracle."""
    duration = 2.0 * np.pi * n_cycles / abs(omega)
    t = np.linspace(0.0, duration, n_steps + 1)
    s, c = np.sin(cone_angle), np.cos(cone_angle)
    kh, column = np.empty((len(t), 3)), np.empty(len(t))
    for i, turn in enumerate((np.cos, np.sin)):
        kh[:, i] = np.multiply(s, turn(np.multiply(omega, t, out=column), out=column), out=column)
    kh[:, 2] = c
    return t, kh


@st.composite
def _helices(draw):
    """Helix parameters: cones on and off the poles and the equator, either winding, non-integer cycles."""
    cone = draw(st.one_of(st.sampled_from([0.0, np.pi / 3, np.pi / 2, np.pi]), st.floats(0.0, np.pi)))
    omega = draw(st.sampled_from([1.0, -1.5, 2.0**-20, -7e3])) * draw(st.sampled_from([1.0, 1.0 + 2.0**-40]))
    n_cycles = draw(st.one_of(st.sampled_from([1.0, 2.5, 0.1875]), st.floats(0.01, 20.0)))
    n_steps = draw(st.integers(max(int(np.ceil(16 * n_cycles)), 2), 1500))
    return cone, omega, n_cycles, n_steps


# (lo, hi, width, firsts) of up to three reads, reduced modulo the path's samples; -1 stands for an end
READS = st.lists(st.tuples(st.integers(-1, 3000), st.integers(-1, 3000), st.integers(1, 20),
                           st.lists(st.integers(0, 3000), min_size=1, max_size=5)), min_size=1, max_size=3)


@settings(max_examples=120, deadline=None)
@given(helix=_helices(), reads=READS)
@example(helix=(35 * np.pi / 180, -1.5, 2.5, 4096), reads=[(-1, -1, 16, [0, 4080]), (4000, -1, 7, [4095])])
def test_helix_rows_match_the_whole_array_form(helix, reads):
    # times are linspace's, the last one the duration; k_hat the closed form
    # on them; every window, and every stencil gather at the two ends, is
    # bitwise the whole-array one
    t, kh = eager_helix(*helix)
    path = helix_path(helix[0], helix[1], 1.0, helix[2], helix[3])
    n = path.n_samples
    assert n == len(t) and path.dt == float(t[1] - t[0])
    assert path.times.tobytes() == t.tobytes() and path.k_hat.tobytes() == kh.tobytes()
    assert path.rows(-3, n + 3)[0].tobytes() == t.tobytes()  # clipped to [0, n)
    for a, b, width, firsts in reads:
        lo = 0 if a == -1 else a % (n + 1)
        hi = n if b == -1 else lo + b % (n + 1 - lo)
        rows_t, rows_kh = path.rows(lo, hi)
        assert rows_t.tobytes() == t[lo:hi].tobytes() and rows_kh.tobytes() == kh[lo:hi].tobytes(), (lo, hi)
        assert rows_kh.flags.c_contiguous
        # the kernels' gathers: one-sided stencils at samples 0 and n - 1
        for scale in (1.0, 2.5):
            start, stop = geometry._path_window(path, lo, hi)
            window = path.rows(start, stop)[1]
            rate = geometry._stencil(window, lo - start, hi - lo, path.dt, scale)[0]
            want_rate, _ = geometry._stencil(kh, lo, hi - lo, path.dt, scale)
            assert rate.tobytes() == want_rate.tobytes(), (lo, hi)
            assert window[lo - start : hi - start].tobytes() == kh[lo:hi].tobytes(), (lo, hi)
        # a gather of several blocks from one window of rows, with zero rates past the end
        first = np.unique(np.array(firsts) % n)
        start, stop = geometry._path_window(path, int(first[0]), int(first[-1]) + width + 1)
        window = path.rows(start, stop)[1]
        got = geometry._stencil(window, first - start, width + 1, path.dt)
        want = geometry._stencil(kh, first, width + 1, path.dt)
        for part, expected in zip(got, want):
            assert part.tobytes() == expected.tobytes(), (first, width)


HELIX_EDGES = {
    "omega 1e-320": (1.0, 1e-320, 1.0, 1024),  # duration inf: times[0] = 0 * inf
    "n_cycles 5e-324": (1.0, 1.0, 5e-324, 1024),  # the step underflows to 0: linspace's other branch
    "omega 1e308": (1e-160, 1e308, 1.0, 256),  # subnormal step
    "omega 1e308, 1e-10 cycles": (1.0, 1e308, 1e-10, 64),  # a step of few bits: not uniform
    "omega 3e307": (1.0, 3e307, 1.0, 100_000),
    "omega -2e-300": (0.3, -2e-300, 3.0, 4096),
}


def _verdict_of(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("case", sorted(HELIX_EDGES))
def test_helix_edge_cases_match_the_whole_array_form(case):
    # both branches of linspace, an infinite duration and subnormal steps:
    # the same rows, or the same first failed check, as a path of the arrays
    cone, omega, n_cycles, n_steps = HELIX_EDGES[case]
    with np.errstate(all="ignore"):  # cos and sin of inf
        t, kh = eager_helix(cone, omega, n_cycles, n_steps)
        rows = geometry._HelixRows(n_steps, 2.0 * np.pi * n_cycles / abs(omega), omega, np.sin(cone), np.cos(cone))
        for lo, hi in ((0, n_steps + 1), (0, 1), (1, 40), (n_steps - 3, n_steps + 1), (n_steps, n_steps + 1)):
            got_t, got_kh = rows(lo, hi)
            assert got_t.tobytes() == t[lo:hi].tobytes() and got_kh.tobytes() == kh[lo:hi].tobytes(), (lo, hi)
        helix = _verdict_of(lambda: helix_path(cone, omega, 2.0, n_cycles, n_steps))
        eager = _verdict_of(lambda: FiberPath(times=t, k_hat=kh, k_mag=2.0))
    if isinstance(eager, str):  # the first failed check
        assert helix == eager
    else:
        assert isinstance(helix, FiberPath) and helix.dt == eager.dt
