"""Property tests: the transport's closed form, a chunk at a time, is its whole-array form and agrees with evolve.

``evolution._fan`` and ``evolution._unwrapped`` give the results columns of
the chord transport in closed form: the overlap angle sigma fan_i, from the
swept areas of the triangles (k0, k_j, k_(j+1)), unwrapped over the
unflagged rows and interpolated over the flagged ones, a chunk of a pass at
a time.  Whatever the chunks, its rows must be
bit for bit the whole-array form, and they must agree row by row with
``evolve``, which carries the state along the same chords under H and
measures every series from it; those series in turn must be bit for bit
the whole-array forms of the states it carried.  Some paths pass through
the antipode of their start, so samples get flagged.
"""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberphase import evolution, geometry
from fiberphase.evolution import evolve, phase_decomposition
from fiberphase.geometry import FiberPath, helix_path


def _random_path(n, seed, k_mag):
    """A smooth random walk on the sphere with n samples and steps well below 0.5."""
    rng = np.random.default_rng(seed)
    polar = 0.4 + np.cumsum(rng.uniform(-0.08, 0.08, n))
    azimuth = np.cumsum(rng.uniform(-0.05, 0.3, n))
    kh = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)
    return FiberPath(times=0.1 * np.arange(n), k_hat=kh, k_mag=k_mag)


def _half_turn_path(n, m):
    """An equator walk of n samples, dt = 1, in steps of pi / m: sample m is the antipode of the start.

    There the chord-transported state is orthogonal to the start state, and
    the sample is flagged.  Needs 8 <= m <= n - 2.
    """
    phi = (np.pi / m) * np.arange(n)
    return FiberPath(times=np.arange(n, dtype=float), k_hat=np.stack([np.cos(phi), np.sin(phi), 0.0 * phi], axis=1),
                     k_mag=1.0)


PATHS = st.one_of(
    st.builds(_random_path, st.integers(3, 300), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.5])),
    st.integers(8, 298).flatmap(lambda m: st.builds(_half_turn_path, st.integers(m + 2, 300), st.just(m))),
)


def _closed_form(path, pol):
    """The closed form's total and flags of every row, from one pass of its two kernels."""
    pieces = list(evolution._unwrapped(evolution._fan(geometry._windows(path), pol)))
    return tuple(np.concatenate([piece[i] for piece in pieces]) for i in range(2))


def test_half_turn_paths_are_flagged():
    for n, m in ((10, 8), (40, 20), (300, 298), (300, 150)):
        path = _half_turn_path(n, m)
        with pytest.warns(evolution.OrthogonalPassageWarning):
            traj = evolve(path, +1)
        assert traj.flagged[m]
        assert _closed_form(path, +1)[1][m]


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _dot(a, b):
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _area(p, a, b):
    return 2.0 * np.arctan2(_dot(p, np.cross(a, b)), 1.0 + _dot(p, a) + _dot(p, b) + _dot(a, b))


def _unwrapped(angles, flagged):
    """np.unwrap of the unflagged angles, and np.interp over the flagged ones between them."""
    good = ~flagged
    idx = np.arange(len(angles))
    return np.interp(idx, idx[good], np.unwrap(angles[good]))


def _whole_array_closed_form(path, sign):
    """The reader's total and flags with whole-array numpy: the oracle.

    The triangles (k0, k_j, k_(j+1)) are summed, the first one as exactly 0
    and those with a vertex where k0 . k < -1/2 split about the apex
    perpendicular to k0; the angle sigma fan, wrapped to [-pi, pi), goes
    through ``_unwrapped``.  The float operations are the reader's, a
    sample at a time.
    """
    kh = path.k_hat
    k0 = kh[0]
    apex = np.cross(k0, np.eye(3)[np.argmin(np.abs(k0))])
    apex = apex / np.linalg.norm(apex)
    a, b = kh[:-1], kh[1:]
    area, height = _area(k0, a, b), _dot(kh, k0)
    split = (height[:-1] < -0.5) | (height[1:] < -0.5)
    area[split] = _area(apex, a[split], b[split]) + _area(apex, b[split], k0) - _area(apex, a[split], k0)
    area[0] = 0.0
    fan = np.concatenate([[0.0], np.cumsum(area)])
    flagged = (1.0 + height) * 0.5 < evolution.OVERLAP_FLOOR
    return _unwrapped(np.remainder(sign * fan + np.pi, 2.0 * np.pi) - np.pi, flagged), flagged


def _with_chunk(path):
    """(path, _CHUNK_ROWS): 1 to 9 rows for paths of up to 40 samples; a longer path takes 1 to 9 chunks,
    the last one partial or longer than the path."""
    n = path.n_samples
    return st.tuples(st.just(path), st.integers(1, 9) if n <= 40 else st.integers(n // 8, n + 2))


@settings(max_examples=150, deadline=None)
@given(case=PATHS.flatmap(_with_chunk), pol=st.sampled_from([1, -1]))
@example(case=(_half_turn_path(12, 9), 1), pol=1)
@example(case=(_random_path(38, 227, 1.0), 1), pol=1)  # a chunk that starts at row 1
def test_transport_chunks_are_the_whole_array_closed_form_for_any_chunks(case, pol):
    # the fan's sum, the unwrap and the flagged runs carry from one chunk to
    # the next; the pass's pieces, one per chunk, are the whole-array form
    from fiberphase.scenario import _series

    path, chunk = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        chunks = list(_series(path, pol))
    assert [len(series["t"]) for series in chunks] == [len(series["total"]) for series in chunks]
    total, flagged = (np.concatenate([series[key] for series in chunks]) for key in ("total", "flagged"))
    want_total, want_flagged = _whole_array_closed_form(path, pol)
    assert _same_bits(total, want_total)
    assert _same_bits(flagged, want_flagged)


@st.composite
def _smooth_paths(draw):
    """Random smooth paths of 64 to 1500 steps, closed or open, with adjacent steps below 0.5.

    The polar angle and the azimuth are low-order Fourier series in s in
    [0, 1].  A closed path's series are periodic and its azimuth winds a
    whole number of turns; an open path's winds any number, and its polar
    angle drifts.
    """
    n = draw(st.integers(64, 1500))
    closed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = np.linspace(0.0, 1.0, n + 1)
    harmonics = 2.0 * np.pi * np.arange(1, 4)[:, None] * s + rng.uniform(0.0, 2.0 * np.pi, (3, 1))
    polar = rng.uniform(0.4, 2.7) + (rng.uniform(-0.3, 0.3, (3, 1)) * np.sin(harmonics)).sum(axis=0)
    turns = float(rng.integers(-2, 3)) if closed else rng.uniform(-2.5, 2.5)
    azimuth = 2.0 * np.pi * turns * s + (rng.uniform(-0.5, 0.5, (3, 1)) * np.cos(harmonics)).sum(axis=0)
    if not closed:
        polar += rng.uniform(-0.4, 0.4) * s**2
    kh = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)
    return FiberPath(times=3.0 * s, k_hat=kh, k_mag=1.0)


def _phase_bound(path):
    """Per-row bound on two forms of the overlap phase: 1e-13 plus 16 eps / |<psi0|psi>|.

    A phase measured from a state carries that state's rounding over
    |<psi0|psi>| = (1 + k0 . k_hat) / 2; below ``OVERLAP_FLOOR`` a row is
    flagged, and its bound is taken there.
    """
    overlap = np.maximum((1.0 + path.k_hat @ path.k_hat[0]) / 2.0, evolution.OVERLAP_FLOOR)
    return 1e-13 + 16.0 * np.finfo(float).eps / overlap


@settings(max_examples=25, deadline=None)
@given(path=_smooth_paths())
@example(path=helix_path(np.pi / 2, 1.0, 1.0, 1.0, 256))  # through the start's antipode: a flagged sample
def test_closed_form_matches_evolve_row_by_row(path):
    # the closed form is what evolve's transport under H gives, and the
    # opposite polarization's phase is the first's negated, as compute_scenario
    # assumes.  Near the start's antipode the phase evolve measures from its
    # states carries their rounding over |<psi0|psi>|, which the closed form
    # does not (test_closed_form_is_accurate_near_the_antipode), so each row
    # is bounded by _phase_bound, outside 20 rows of a flagged sample; 2800
    # drawn paths needed at most 5.4 eps / |<psi0|psi>| over 1e-13
    n = path.n_samples
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        trajs = {pol: evolve(path, pol) for pol in (1, -1)}
    clear = np.ones(n, dtype=bool)
    for row in np.flatnonzero(trajs[1].flagged):
        clear[max(row - 20, 0) : row + 21] = False
    bound = _phase_bound(path)[clear]
    for pol, traj in trajs.items():
        total, flagged = _closed_form(path, pol)
        assert _same_bits(flagged, traj.flagged), pol
        assert (np.abs(total - traj.total)[clear] <= bound).all(), pol
        assert np.abs(traj.norms - 1.0).max() <= 1e-13 and np.abs(traj.dynamical).max() <= 1e-13, pol
    assert (np.abs(trajs[-1].total + trajs[1].total)[clear] <= bound).all()


def _extended_chord_phase(path, pol):
    """arg <psi0|psi> of the chord transport in long double, from the exact helicity eigenstate at k0.

    The float64 start is projected onto the eigenspace of k0 . S (M psi =
    i k0 x psi) with eigenvalue -pol, and every step is ``_rotate``'s
    rotation, on the k_hat rows normalized in long double.
    """
    k_hat = path.k_hat.astype(np.longdouble)
    k_hat /= np.sqrt((k_hat * k_hat).sum(axis=1))[:, None]
    psi = evolution._start(path, pol).astype(np.clongdouble)
    for mu in {-1, 0, 1} - {-pol}:
        psi = (1j * np.cross(k_hat[0], psi) - mu * psi) / (-pol - mu)
    psi /= np.sqrt((psi * psi.conj()).real.sum())
    start, phase = psi.conj(), np.empty(path.n_samples, dtype=np.longdouble)
    for i, a in enumerate(k_hat):
        overlap = (psi * start).sum()
        phase[i] = np.arctan2(overlap.imag, overlap.real)
        if i + 1 < path.n_samples:
            axis = np.cross(a, k_hat[i + 1])
            turn = np.cross(axis, psi)
            psi = psi + turn + np.cross(axis, turn) / (1 + a @ k_hat[i + 1])
    return phase


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="long double is not extended precision here")
@pytest.mark.parametrize("pol", [1, -1])
def test_closed_form_is_accurate_near_the_antipode(pol):
    # a cone 1e-3 from the equator passes within 2e-3 of the start's antipode
    # unflagged, with |<psi0|psi>| down to 1e-6.  Against the transport in
    # long double (eps 1.1e-19; 1.2e-14 from a 40-digit one), the closed form
    # stays within 1.4e-14, and evolve within 6.5e-12, which _phase_bound allows
    path = helix_path(np.pi / 2 - 1e-3, 1.0, 1.0, 1.0, 1024)
    want = _extended_chord_phase(path, pol)

    def error(phase):
        return np.abs(np.remainder(phase - want + np.pi, 2.0 * np.pi) - np.pi).astype(float)

    closed = _closed_form(path, pol)[0]
    assert error(closed).max() <= 1e-13
    assert (error(evolve(path, pol).total) <= _phase_bound(path)).all()


# ------------------------------------------------ evolve against its own states

def _cartesian_states(path, pol):
    """The Cartesian states of evolve's transport, stored as each column of blocks hands them over."""
    states = np.empty((path.n_samples, 3), dtype=complex)
    for rows, psi in evolution._chord_columns(path.k_hat, evolution._start(path, pol)):
        states[rows] = psi
    return states


def _whole_array_series(path, states):
    """The five trajectory series from the Cartesian states with whole-array numpy: the oracle.

    The total phase is np.unwrap of the unflagged overlap angles and
    np.interp over the flagged samples; the dynamical phase is the cumsum of
    the trapezoids of -h . <S>, with <S> = 2 Re psi x Im psi.
    """
    ref = states[0].conj()
    overlaps = states[:, 0] * ref[0] + states[:, 1] * ref[1] + states[:, 2] * ref[2]
    spin = 2.0 * np.cross(states.real, states.imag)
    energy = _dot(evolution.hamiltonian_coefficients(path), spin)
    flagged = np.abs(overlaps) < evolution.OVERLAP_FLOOR
    total = _unwrapped(np.angle(overlaps), flagged)
    dynamical = np.cumsum(np.concatenate([[0.0], (energy[1:] + energy[:-1]) * (-0.5 * path.dt)]))
    return {"total": total, "flagged": flagged, "dynamical": dynamical, "helicity": _dot(path.k_hat, spin),
            "norms": np.linalg.norm(states, axis=1)}


SERIES = ("total", "flagged", "dynamical", "helicity", "norms")


@settings(max_examples=120, deadline=None)
@given(path=PATHS, pol=st.sampled_from([1, -1]))
@example(path=_half_turn_path(12, 9), pol=1)
def test_reduced_observables_match_whole_array_forms_of_the_states(path, pol):
    # evolve measures each column of blocks as the transport hands it over;
    # its series are bit for bit those of the states it carried, read-only
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        traj = evolve(path, pol)
    want = _whole_array_series(path, _cartesian_states(path, pol))
    for name in SERIES:
        assert _same_bits(getattr(traj, name), want[name]), name
        assert not getattr(traj, name).flags.writeable, name


@settings(max_examples=200, deadline=None)
@given(case=PATHS.flatmap(_with_chunk))
def test_chunked_phase_decomposition_matches_whole_array(case):
    # the unwrap goes in chunks inside evolve; phase_decomposition hands the
    # trajectory itself over, not copies
    path, chunk = case
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        traj = evolve(path, +1)
    want = _whole_array_series(path, _cartesian_states(path, +1))
    dec = phase_decomposition(traj, path)
    assert dec is traj
    for name in ("total", "dynamical", "flagged"):
        assert _same_bits(getattr(dec, name), want[name]), name
    assert _same_bits(dec.geometric, want["total"] - want["dynamical"])


@settings(max_examples=150, deadline=None)
@given(path=PATHS, pol=st.sampled_from([1, -1]))
def test_chord_columns_hand_over_every_row_once_as_the_stepwise_transport(path, pol):
    # the columns of about sqrt(n) blocks give every sample once, column by
    # column; the composed block frames carry the state as one chord rotation
    # after another, R = I + K + K^2 / (1 + a . b) with K the cross-product
    # matrix of a x b, does to rounding
    start = evolution._start(path, pol)
    handed = [rows for rows, _ in evolution._chord_columns(path.k_hat, start)]
    assert all(np.all(np.diff(rows) > 0) for rows in handed)
    assert _same_bits(np.sort(np.concatenate(handed)), np.arange(path.n_samples))
    kh = path.k_hat
    v = np.cross(kh[:-1], kh[1:])
    cross = np.zeros((len(v), 3, 3))
    cross[:, [2, 0, 1], [1, 2, 0]] = v
    cross[:, [1, 2, 0], [2, 0, 1]] = -v
    steps = np.eye(3) + cross + cross @ cross / (1.0 + _dot(kh[:-1], kh[1:]))[:, None, None]
    want = np.empty((path.n_samples, 3), dtype=complex)
    want[0] = start
    for i, step in enumerate(steps):
        want[i + 1] = step @ want[i]
    assert np.abs(_cartesian_states(path, pol) - want).max() <= 1e-13


@pytest.mark.parametrize("n, m", [(40, 20), (41, 38), (300, 150)])
@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_flagged_run_across_chunk_and_read_edges_takes_np_interp_values(n, m, chunk):
    # chunks of 1, 2 and 7 rows: the flagged sample m ends its chunk and
    # waits for the next one's unflagged sample, or lies inside its chunk
    path = _half_turn_path(n, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        total, flagged = _closed_form(path, +1)
    assert flagged[m] and flagged.sum() == 1
    want_total, want_flagged = _whole_array_closed_form(path, +1)
    assert _same_bits(total, want_total) and _same_bits(flagged, want_flagged)


# angles whose steps land on and next to the branch cut at +-pi
ANGLES = st.one_of(
    st.sampled_from([0.0, np.pi, -np.pi, 0.5 * np.pi, -0.5 * np.pi, np.nextafter(np.pi, 0.0), 3.0, -3.0]),
    st.floats(min_value=-np.pi, max_value=np.pi),
)


# about five windings in steps near +-pi: the last bits differ if a block adds
# the carried total after its cumsum instead of before
WINDING = [
    -3.045510065958529, 1.0790996672294606, -1.964414724621509, 1.9757559853465438, -0.4899031085232894,
    2.882809345453812, 0.43269029544773546, -2.1718627609926306, 2.08100752161958, -0.7478568979227082,
    2.9433707647156715, 0.5806658765666709, -2.286605697204577, 1.6630652977542029, -0.8357823806745144,
    -2.983228247646393, 0.8565327744413497, -1.3672679903024143, 2.6273726423911388, -0.1980284975019211,
    -2.5064781312865687, 1.2429971040182175, -1.8358138157631436, 1.3895485783862778, -1.407720356464606,
    2.2801154096128, -0.024464914837101198, -2.201182124489738, 1.0150852281521054, -1.5525902159505562,
    2.6031429175111884,
]


@settings(max_examples=200, deadline=None)
@given(samples=st.lists(st.tuples(ANGLES, st.booleans()), min_size=3, max_size=60), chunk=st.integers(1, 9),
       read=st.integers(1, 9))
@example(samples=[(angle, False) for angle in WINDING], chunk=4, read=3)
def test_chunked_unwrap_and_interpolation_match_whole_array(samples, chunk, read):
    # the unflagged angles are unwrapped as one sequence, and the flagged
    # ones are interpolated between them, whatever the pieces: the drawn
    # angles and flags, row 0 unflagged as the fan's always is, in pieces of
    # chunk and read rows in turn, each handed back with its own tag and
    # its own angle array, which holds the totals in place
    angles = np.array([angle for angle, _ in samples], dtype=float)
    flagged = np.array([flag for _, flag in samples], dtype=bool)
    flagged[0] = False
    want = _unwrapped(angles, flagged)  # before the pieces, views of angles, are replaced in place
    n, edges = len(samples), [0]
    while edges[-1] < n:
        edges.append(min(edges[-1] + (chunk, read)[len(edges) % 2], n))
    pieces = [(angles[lo:hi], flagged[lo:hi], (lo, hi)) for lo, hi in zip(edges, edges[1:])]
    handed = list(evolution._unwrapped(iter(pieces)))
    assert [tag for *_, tag in handed] == [tag for *_, tag in pieces]
    assert all(total is piece[0] for (total, *_), piece in zip(handed, pieces))
    assert _same_bits(np.concatenate([total for total, *_ in handed]), want)
    assert _same_bits(angles, want)
    assert _same_bits(np.concatenate([flags for _, flags, _ in handed]), flagged)
