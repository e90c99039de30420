"""Property tests: the transport layer reduced column by column and tile by tile equals its whole-array forms.

The scan runs in tiles of consecutive blocks.  ``evolution._TrajectoryRows``
reduces each slab of a tile's columns to the overlap phase and flag,
h . <S>, k_hat . <S> and the norm, never holding the (n, 3) states or
generator coefficients (each slab builds its own rows of h from k_hat), and
hands the tile's rows over in sample order, the phase unwrapped and the
energy integrated; ``evolve`` is one pass of it into arrays.
``SpinorTrajectory.states`` runs the same scan again and stores the states
in the angular-momentum basis.  With the chunk, slab and tile sizes made
small, random short paths (some passing orthogonal to their start state, so
samples get flagged) must give bit for bit the series that whole-array numpy
computes from the scan's Cartesian states, stored as they are handed over.
"""
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fiberphase import evolution, geometry
from fiberphase.evolution import evolve, phase_decomposition
from fiberphase.geometry import FiberPath


def _random_path(n, seed, k_mag):
    """A smooth random walk on the sphere with n samples and steps well below 0.5."""
    rng = np.random.default_rng(seed)
    polar = 0.4 + np.cumsum(rng.uniform(-0.08, 0.08, n))
    azimuth = np.cumsum(rng.uniform(-0.05, 0.3, n))
    kh = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)
    return FiberPath(times=0.1 * np.arange(n), k_hat=kh, k_mag=k_mag)


def _half_turn_path(n, m):
    """An equator walk of n samples, dt = 1, whose transported state is orthogonal to its start at sample m.

    On k_hat_i = (cos i a, sin i a, 0) the stencils give h = sin a z inside
    and (4 sin a - sin 2a)/2 z at the start, so the state turns about z by
    (6 sin a - sin 2a)/4 + (m - 1) sin a up to sample m; bisection sets that
    to pi, where the overlap with the start state vanishes and the sample is
    flagged.  Needs 8 <= m <= n - 2.
    """
    lo, hi = 0.0, 0.5
    for _ in range(200):
        a = 0.5 * (lo + hi)
        turn = (6.0 * np.sin(a) - np.sin(2.0 * a)) / 4.0 + (m - 1) * np.sin(a)
        lo, hi = (a, hi) if turn < np.pi else (lo, a)
    phi = a * np.arange(n)
    return FiberPath(times=np.arange(n, dtype=float), k_hat=np.stack([np.cos(phi), np.sin(phi), 0.0 * phi], axis=1),
                     k_mag=1.0)


PATHS = st.one_of(
    st.builds(_random_path, st.integers(3, 300), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.5])),
    st.integers(8, 298).flatmap(lambda m: st.builds(_half_turn_path, st.integers(m + 2, 300), st.just(m))),
)


def _with_slab(path):
    """(path, _SLAB): 1 to 5 columns for paths of up to 60 samples; a longer path's scan, whose blocks have
    size = ceil(sqrt(n - 1)) columns, takes 1 to 4 slabs, the last one partial or wider than the block."""
    size = int(np.ceil(np.sqrt(path.n_samples - 1)))
    return st.tuples(st.just(path), st.integers(1, 5) if path.n_samples <= 60 else st.integers(size // 4, size + 1))


def _with_chunk(path):
    """(path, _CHUNK_ROWS): 1 to 9 rows for paths of up to 40 samples; a longer path takes 1 to 9 chunks,
    the last one partial or longer than the path."""
    n = path.n_samples
    return st.tuples(st.just(path), st.integers(1, 9) if n <= 40 else st.integers(n // 8, n + 2))


def _with_tile(path):
    """(path, _TILE): 1 to 9 steps for paths of up to 60 samples, so up to 59 tiles; longer paths take 1 to 9 tiles."""
    n_steps = path.n_samples - 1
    return st.tuples(st.just(path), st.integers(1, 9) if n_steps < 60 else st.integers(-(-n_steps // 9), n_steps + 1))


def _tile_edge_path(tile, multiple, offset, seed):
    """(path, _TILE): a random walk whose step count is a multiple of ``tile`` plus ``offset`` (-1, 0 or 1)."""
    return _random_path(max(multiple * tile + offset, 2) + 1, seed, 1.0), tile


# step counts at multiples of the tile, +-1
TILE_EDGES = st.builds(_tile_edge_path, st.integers(1, 12), st.integers(1, 6), st.sampled_from([-1, 0, 1]),
                       st.integers(0, 2**32 - 1))
TILED = st.one_of(PATHS.flatmap(_with_tile), TILE_EDGES)


def test_half_turn_paths_are_flagged():
    for n, m in ((10, 8), (40, 20), (300, 298), (300, 150)):
        path = _half_turn_path(n, m)
        with pytest.warns(evolution.OrthogonalPassageWarning):
            traj = evolve(path, +1)
        assert traj.flagged[m]


def _cartesian_states(path, pol):
    """The scan's Cartesian states, stored as each slab hands them over."""
    states = np.empty((path.n_samples, 3), dtype=complex)

    def store(rows, cart, h, k_hat):
        states[rows] = cart

    list(evolution._scan(path, evolution._start(path, pol), store))
    return states


def _whole_array_observables(path, states):
    """Overlaps, h . <S>, k_hat . <S> and norms of the Cartesian states, each over the whole array."""
    ref = states[0].conj()
    overlaps = states[:, 0] * ref[0] + states[:, 1] * ref[1] + states[:, 2] * ref[2]
    spin = 2.0 * np.cross(states.real, states.imag)
    energy = np.einsum("ni,ni->n", evolution.hamiltonian_coefficients(path), spin)
    helicity = np.einsum("ni,ni->n", path.k_hat, spin)
    return overlaps, energy, helicity, np.linalg.norm(states, axis=1)


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _whole_array_series(path, states):
    """The five trajectory series from the Cartesian states with whole-array numpy: the oracle.

    The total phase is np.unwrap of the unflagged overlap angles, np.interp
    over the flagged samples and shifted to start at 0; the dynamical phase
    is the cumsum of the trapezoids of -h . <S>.
    """
    overlaps, energy, helicity, norms = _whole_array_observables(path, states)
    flagged = np.abs(overlaps) < evolution.OVERLAP_FLOOR
    good = ~flagged
    idx = np.arange(len(overlaps))
    total = np.interp(idx, idx[good], np.unwrap(np.angle(overlaps[good])))
    total = total - total[0]
    dynamical = np.concatenate([[0.0], np.cumsum((energy[1:] + energy[:-1]) * (-0.5 * path.dt))])
    return {"total": total, "flagged": flagged, "dynamical": dynamical, "helicity": helicity, "norms": norms}


SERIES = ("total", "flagged", "dynamical", "helicity", "norms")


@settings(max_examples=120, deadline=None)
@given(case=PATHS.flatmap(_with_slab), pol=st.sampled_from([1, -1]))
@example(case=(_half_turn_path(12, 9), 3), pol=1)
def test_reduced_observables_match_whole_array_forms_of_the_states(case, pol):
    path, slab = case
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        mp.setattr(evolution, "_SLAB", slab)
        traj = evolve(path, pol)
        states, cart = traj.states, _cartesian_states(path, pol)
        mp.undo()
        # the stored states are the scan's, whatever the slab width
        assert _same_bits(states, evolve(path, pol).states)
        assert _same_bits(cart, _cartesian_states(path, pol))
    want = _whole_array_series(path, cart)
    assert list(want) == list(SERIES)
    for name in SERIES:
        assert _same_bits(getattr(traj, name), want[name]), name
        assert not getattr(traj, name).flags.writeable, name


@settings(max_examples=200, deadline=None)
@given(case=PATHS.flatmap(_with_chunk))
def test_chunked_phase_decomposition_matches_whole_array(case):
    # the unwrap and the trapezoids go in chunks inside evolve;
    # phase_decomposition hands the trajectory itself over, not copies
    path, chunk = case
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        traj = evolve(path, +1)
    want = _whole_array_series(path, _cartesian_states(path, +1))
    dec = phase_decomposition(traj, path)
    for name in ("total", "dynamical", "flagged"):
        assert _same_bits(getattr(dec, name), want[name]), name
        assert getattr(dec, name) is getattr(traj, name), name
    assert _same_bits(dec.geometric, want["total"] - want["dynamical"])


@settings(max_examples=150, deadline=None)
@given(case=TILED, pol=st.sampled_from([1, -1]))
@example(case=(_half_turn_path(12, 9), 1), pol=1)
def test_tiled_series_match_whole_array_forms_of_the_states(case, pol):
    # the tiles hand their rows over in sample order; the unwrap, the flagged
    # runs and the trapezoids carry from one tile to the next
    path, tile = case
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        mp.setattr(evolution, "_TILE", tile)
        traj = evolve(path, pol)
        states = _cartesian_states(path, pol)
        handed = []
        start = evolution._start(path, pol)
        tiles = list(evolution._scan(path, start, lambda rows, cart, h, k_hat: handed.append(rows.ravel())))
    # each tile hands over its samples [first, stop), consecutive and each once
    assert [stop for _, stop in tiles[:-1]] == [first for first, _ in tiles[1:]]
    assert (tiles[0][0], tiles[-1][1]) == (0, path.n_samples)
    assert _same_bits(np.sort(np.concatenate(handed)), np.arange(path.n_samples))
    want = _whole_array_series(path, states)
    for name in SERIES:
        assert _same_bits(getattr(traj, name), want[name]), name


@settings(max_examples=150, deadline=None)
@given(case=TILED, data=st.data())
def test_reader_rows_are_evolves_arrays_for_any_reads(case, data):
    path, tile = case
    n = path.n_samples
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        mp.setattr(evolution, "_TILE", tile)
        traj = evolve(path, +1)
        reader = evolution._TrajectoryRows(path, +1)
        # a partial pass, then a restart at row 0 and a full pass in drawn reads
        for stop in (data.draw(st.integers(1, n), "partial"), n):
            lo, pieces = 0, []
            while lo < stop:
                hi = min(lo + data.draw(st.integers(1, n), "read"), stop)
                pieces.append(reader.read(lo, hi))
                assert reader.read(lo, hi) is pieces[-1]  # the same rows again
                lo = hi
        with pytest.raises(ValueError, match="read in order"):
            reader.read(1, 2) if n > 2 else reader.read(2, 3)
    # the six results series: the phases and flags, and the geometric phase and drifts from evolve's arrays
    want = (traj.total, traj.flagged, traj.dynamical, traj.total - traj.dynamical, np.abs(traj.norms - 1.0),
            np.abs(traj.helicity - traj.helicity[0]))
    for i, series in enumerate(want):
        assert _same_bits(np.concatenate([piece[i] for piece in pieces]), series), i
    assert reader.hel0 == traj.helicity[0]


@pytest.mark.parametrize("n, m", [(40, 20), (41, 38), (300, 150)])
@pytest.mark.parametrize("read", [1, 2, 7])
def test_flagged_run_across_tile_and_read_edges_takes_np_interp_values(n, m, read):
    # one-step tiles: the flagged sample m ends its tile and waits for the
    # next one's unflagged sample; the reads end on it, or take it inside
    path = _half_turn_path(n, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_TILE", 1)
        assert list(evolution._scan(path, evolution._start(path, +1), lambda *args: None))[m] == (m, m + 1)
        with pytest.warns(evolution.OrthogonalPassageWarning):
            traj = evolve(path, +1)
        reader = evolution._TrajectoryRows(path, +1)
        total = np.concatenate([reader.read(lo, min(lo + read, n))[0] for lo in range(0, n, read)])
    assert traj.flagged[m] and traj.flagged.sum() == 1
    assert _same_bits(total, traj.total)
    assert _same_bits(traj.total, _whole_array_series(path, _cartesian_states(path, +1))["total"])


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
@given(samples=st.lists(st.tuples(ANGLES, st.booleans()), min_size=3, max_size=60), radii=st.sampled_from([1.0, 1e-3]),
       chunk=st.integers(1, 9), tile=st.integers(1, 9), read=st.integers(1, 9))
@example(samples=[(angle, False) for angle in WINDING], radii=1.0, chunk=4, tile=5, read=3)
def test_chunked_unwrap_and_interpolation_match_whole_array(samples, radii, chunk, tile, read):
    # the unflagged angles are unwrapped as one sequence, and the flagged
    # ones, whose overlaps lie below the floor, are interpolated between
    # them, whatever the chunks, tiles and reads; the reader's consumer is
    # replaced by one that stores the drawn angles and flags
    angles = np.array([angle for angle, _ in samples], dtype=float)
    flagged = np.array([flag for _, flag in samples], dtype=bool)
    values = np.where(flagged, 1e-10, radii) * np.exp(1j * angles)
    good = ~flagged
    # the consumer stores each overlap's angle and flag
    got, got_flagged = np.angle(values), np.abs(values) < evolution.OVERLAP_FLOOR
    assert _same_bits(got_flagged, flagged)

    def store(reader, rows, cart, h, k_hat):
        at = rows - reader.lo
        reader.window[0][at], reader.window[1][at] = got[rows], flagged[rows]
        for part in reader.window[2:]:
            part[at] = 0.0

    n = len(samples)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        mp.setattr(evolution, "_TILE", tile)
        mp.setattr(evolution._TrajectoryRows, "_reduce", store)
        reader = evolution._TrajectoryRows(_random_path(n, 0, 1.0), +1)
        if not good.any():
            with pytest.raises(ValueError, match="every overlap is numerically zero"):
                reader.read(0, n)
            return
        total = np.concatenate([reader.read(lo, min(lo + read, n))[0] for lo in range(0, n, read)])
    idx = np.arange(n)
    unwrapped = np.unwrap(np.angle(values[good]))
    want = np.interp(idx, idx[good], unwrapped)
    assert _same_bits(total, want - want[0])  # shifted to start at 0


# helices (the constant path at cone 0 included) and smooth random walks, 3 .. 400 samples
SLAB_PATHS = st.one_of(
    st.builds(lambda n, cone, omega: geometry.helix_path(cone, omega, 1.5, (n - 1) / 32, n - 1),
              st.integers(3, 400), st.sampled_from([0.0, 0.4, np.pi / 3, np.pi / 2, 2.8]), st.sampled_from([1.0, -2.0])),
    st.builds(_random_path, st.integers(3, 400), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 2.5])),
)


@settings(max_examples=200, deadline=None)
@given(case=SLAB_PATHS.flatmap(_with_slab))
def test_scan_builds_and_hands_over_the_whole_array_generator_rows(case):
    path, slab = case
    h = evolution.hamiltonian_coefficients(path)
    n = path.n_samples
    original = evolution._slab_steps
    built, handed = [], []

    def recording(k_hat, lo, first, width, dt):
        steps = original(k_hat, lo, first, width, dt)
        built.append((first[:, None] + np.arange(width + 1), steps[0], steps[1]))
        return steps

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_SLAB", slab)
        mp.setattr(evolution, "_slab_steps", recording)
        tiles = list(evolution._scan(path, evolution._start(path, +1),
                                     lambda rows, cart, h_rows, k_rows: handed.append((rows, h_rows.copy(),
                                                                                      k_rows.copy()))))
    covered = set()
    for samples, rows, k_rows in built:
        real = samples < n
        assert _same_bits(rows[real], h[samples[real]])
        assert not rows[~real].any()  # past the path's end
        assert _same_bits(k_rows, path.k_hat[np.minimum(samples, n - 1)])  # the last sample past the end
        covered.update(samples[real].tolist())
    assert {0, n - 1} <= covered
    rows = np.concatenate([rows.ravel() for rows, _, _ in handed])
    assert _same_bits(np.sort(rows), np.arange(n))  # every sample handed over once
    assert tiles == [(0, n)]  # one tile below _TILE steps
    for rows, h_rows, k_rows in handed:
        assert _same_bits(h_rows, h[rows])
        assert _same_bits(k_rows, path.k_hat[rows])


def _whole_array_slab_steps(h):
    """``_slab_steps`` gathering the rows of the whole-array ``h``, as the scan did before it built slab rows."""

    def slab_steps(k_hat, lo, first, width, dt):
        samples = first[:, None] + np.arange(width + 1)
        real = samples < len(h)
        rows = np.zeros(samples.shape + (3,))
        rows[real] = h[samples[real]]
        k_rows = k_hat.take(samples - lo, axis=0, mode="clip")
        h_mid = np.add(rows[:, :-1], rows[:, 1:])
        h_mid[~real[:, 1:]] = 0.0  # no step leaves the path's last sample
        h_mid *= 0.5
        squares = np.square(h_mid)
        rate = squares[..., 0] + squares[..., 1]
        rate += squares[..., 2]
        np.sqrt(rate, out=rate)
        angle = (rate * dt)[..., None]
        still = rate == 0.0
        rate[still] = 1.0
        axis = h_mid / rate[..., None]
        axis[still] = 0.0
        return rows, k_rows, axis, np.sin(angle), 2.0 * np.sin(0.5 * angle) ** 2

    return slab_steps


@settings(max_examples=120, deadline=None)
@given(case=SLAB_PATHS.flatmap(_with_slab), pol=st.sampled_from([1, -1]))
def test_evolve_matches_a_scan_of_the_whole_array_generator(case, pol):
    path, slab = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution, "_SLAB", slab)
        got = evolve(path, pol)
        mp.setattr(evolution, "_slab_steps", _whole_array_slab_steps(evolution.hamiltonian_coefficients(path)))
        want = evolve(path, pol)
    for name in SERIES:
        assert _same_bits(getattr(got, name), getattr(want, name)), name
