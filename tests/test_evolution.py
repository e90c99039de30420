import warnings

import numpy as np
import pytest

from fiberphase import evolution, geometry
from fiberphase.evolution import (
    OrthogonalPassageWarning,
    analytic_noncyclic_phase,
    evolve,
    hamiltonian_coefficients,
    helicity_expectations,
    invariant_residual_series,
    phase_decomposition,
)
from fiberphase.geometry import FiberPath, helix_path, rotation_vectors, spherical_angles
from fiberphase.spin import CARTESIAN_FROM_ANGULAR, helicity_eigenstates, spin1_matrices

S = spin1_matrices()


def constant_path(n=64):
    return helix_path(0.0, 1.0, 1.0, 1.0, n)


# ------------------------------------------------------ effective_hamiltonian

def test_effective_hamiltonian_constant_path():
    p = constant_path()
    h = hamiltonian_coefficients(p)
    assert np.abs(h).max() == 0.0
    assert np.abs(S.along(h[10])).max() == 0.0


def test_effective_hamiltonian_equator_closed_form():
    # oracle: k x k_dot for (cos t, sin t, 0) is k^2 * z_hat, so h = z_hat
    p = helix_path(np.pi / 2, 1.0, 3.0, 1.0, 256)
    h = hamiltonian_coefficients(p)
    assert np.abs(h - np.array([0.0, 0.0, 1.0])).max() < 1e-3
    assert np.abs(np.linalg.norm(h, axis=1) - 1.0).max() < 1e-3
    matrix = S.along(h[17])
    assert np.abs(matrix - matrix.conj().T).max() < 1e-12


def test_effective_hamiltonian_helix_z_component():
    # oracle: closed-form cross product gives h3 = omega sin^2(cone)
    omega, cone = 2.0, np.pi / 3
    p = helix_path(cone, omega, 5.0, 2.0, 512)
    h = hamiltonian_coefficients(p)
    assert np.abs(h[:, 2] - omega * np.sin(cone) ** 2).max() < (omega * p.dt) ** 2


def test_hamiltonian_coefficient_orthogonal_to_direction():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
    h = hamiltonian_coefficients(p)
    assert np.abs(np.einsum("ni,ni->n", h, p.k_hat)).max() < p.dt**2


# ------------------------------------------ finite-rotation route (theta/dt)

def test_rotation_hamiltonian_constant_path():
    p = constant_path()
    assert np.abs(rotation_vectors(p) / p.dt).max() == 0.0


def _max_gap(path):
    # ||(theta/dt - h) . S||_F = sqrt(2) |theta/dt - h| at every step
    gaps = np.linalg.norm(rotation_vectors(path) / path.dt - hamiltonian_coefficients(path)[:-1], axis=1)
    return np.sqrt(2.0) * gaps.max()


def test_rotation_hamiltonian_equator_agreement():
    gap_256 = _max_gap(helix_path(np.pi / 2, 1.0, 1.0, 1.0, 256))
    gap_512 = _max_gap(helix_path(np.pi / 2, 1.0, 1.0, 1.0, 512))
    assert gap_256 < 0.05
    assert gap_256 / gap_512 > 1.8  # at least halves when dt halves


def test_rotation_hamiltonian_helix_agreement():
    assert _max_gap(helix_path(np.pi / 3, 1.0, 1.0, 1.0, 1024)) < 1e-2


# -------------------------------------------------------------------- evolve

def test_evolve_constant_path_freezes_state():
    p = constant_path()
    traj = evolve(p, +1)
    assert np.abs(traj.states - traj.states[0]).max() < 1e-14


def test_evolve_rejects_zero_polarization():
    p = constant_path()
    with pytest.raises(ValueError, match="polarization"):
        evolve(p, 0)


def test_evolve_initial_state_spin_projection():
    # receiver handedness: right-handed (+1) light carries spin projection -1
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    for pol in (+1, -1):
        traj = evolve(p, pol)
        hel = helicity_expectations(traj, p)
        assert abs(hel[0] - (-pol)) < 1e-12
        assert traj.spin_projection == -pol


def test_evolve_cyclic_return_unit_overlap():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 4096)
    traj = evolve(p, +1)
    overlap = np.vdot(traj.states[0], traj.states[-1])
    assert abs(abs(overlap) - 1.0) < 1e-6


def test_evolve_norm_preservation():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 2048)
    traj = evolve(p, -1)
    norms = np.linalg.norm(traj.states, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_norm_drift_stays_at_rounding_over_many_tiles():
    # 1e5 steps run in 4 tiles of 80-step block frames; re-orthogonalising
    # each frame before the carry keeps the drift at one frame's rounding
    # (7.0e-14 here; 8.5e-13 when the frames' rounding chains through the carry)
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 100_000)
    traj = evolve(p, +1)
    assert np.abs(traj.norms - 1.0).max() <= 2e-13
    assert np.abs(traj.helicity - traj.helicity[0]).max() <= 2e-13


def test_evolve_helicity_conserved_on_equator():
    p = helix_path(np.pi / 2, 1.0, 1.0, 1.0, 1024)
    with pytest.warns(OrthogonalPassageWarning):  # half way round, the state is orthogonal to its start
        traj = evolve(p, +1)
    hel = helicity_expectations(traj, p)
    assert np.abs(hel - hel[0]).max() < 1e-6


# -------------------------------------------------------- invariant_residual

def test_invariant_residual_constant_path():
    p = constant_path()
    series = invariant_residual_series(p)
    assert series.shape == (p.n_samples - 2,)  # interior samples only
    assert np.abs(series).max() == 0.0


def test_invariant_residual_helix_small():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
    assert invariant_residual_series(p).max() < 1e-3


def test_invariant_residual_second_order_generic():
    # helix circles cancel the dt^2 term exactly (residual sits at rounding);
    # a varying cone angle shows the genuine second-order rate
    def wobble(n):
        t = np.linspace(0.0, 2.0 * np.pi, n + 1)
        lam = np.pi / 3 + 0.3 * np.sin(t)
        kh = np.stack([np.sin(lam) * np.cos(t), np.sin(lam) * np.sin(t), np.cos(lam)], axis=1)
        return FiberPath(times=t, k_hat=kh, k_mag=1.0)

    r1 = invariant_residual_series(wobble(512)).max()
    r2 = invariant_residual_series(wobble(1024)).max()
    assert 3.5 < r1 / r2 < 4.5


def test_invariant_residual_negative_control():
    # a wrong generator (here 2H) leaves an O(1) residual, not O(dt^2)
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
    assert invariant_residual_series(p, scale=2.0).max() > 0.1


# ------------------------------------------------------- phase_decomposition

def test_phases_constant_path_all_zero():
    p = constant_path()
    dec = phase_decomposition(evolve(p, +1), p)
    for series in (dec.total, dec.dynamical, dec.geometric):
        assert np.abs(series).max() < 1e-12
    assert not dec.flagged.any()


def test_phases_start_at_zero_and_stay_continuous():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 1024)
    dec = phase_decomposition(evolve(p, +1), p)
    assert dec.total[0] == 0.0
    assert dec.dynamical[0] == 0.0
    assert dec.geometric[0] == 0.0
    for series in (dec.total, dec.dynamical, dec.geometric):
        assert np.abs(np.diff(series)).max() < np.pi


def test_cyclic_geometric_phase_both_polarizations():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 4096)
    for pol, expected in ((+1, np.pi), (-1, -np.pi)):
        dec = phase_decomposition(evolve(p, pol), p)
        assert abs(dec.geometric[-1] - expected) < 1e-3


def test_half_cycle_matches_closed_form():
    p = helix_path(np.pi / 3, 1.0, 1.0, 0.5, 2048)
    for pol in (+1, -1):
        dec = phase_decomposition(evolve(p, pol), p)
        assert abs(dec.geometric[-1] - pol * np.pi / 2) < 5e-3


def _three_lobe_loop(t0=0.0, scale=1.0, n_steps=4096):
    """The closed loop theta = 0.8 + 0.25 sin 3 phi, sampled at t = t0 + scale * phi."""
    phi = np.linspace(0.0, 2.0 * np.pi, n_steps + 1)
    theta = 0.8 + 0.25 * np.sin(3.0 * phi)
    kh = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1)
    return FiberPath(times=t0 + scale * phi, k_hat=kh, k_mag=1.0)


def _phase_columns(p):
    dec = phase_decomposition(evolve(p, +1), p)
    return {"total": dec.total, "dynamical": dec.dynamical, "geometric": dec.geometric,
            "W": spherical_angles(p).solid_angle}


@pytest.mark.parametrize("t0, scale", [(5.0, 1.0), (1e3, 1.0), (0.0, 3.7), (0.0, 1e-3)],
                         ids=["shift5", "shift1e3", "scale3.7", "scale1e-3"])
def test_phases_do_not_depend_on_the_time_origin_or_unit(t0, scale):
    # only k_hat's sequence of directions enters: each step turns by |h| dt,
    # and h ~ 1/dt, so a shifted or rescaled clock moves no column beyond
    # rounding (1.3e-15 measured, over the whole column)
    want = _phase_columns(_three_lobe_loop())
    got = _phase_columns(_three_lobe_loop(t0, scale))
    for name in want:
        assert np.abs(got[name] - want[name]).max() <= 1e-13, name


def test_orthogonal_passage_flagged_on_equator():
    # the overlap touches zero half way around the equator
    # evolve warns, and phase_decomposition only hands the trajectory over
    p = helix_path(np.pi / 2, 1.0, 1.0, 1.0, 4096)
    with pytest.warns(OrthogonalPassageWarning):
        traj = evolve(p, +1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = phase_decomposition(traj, p)
    assert dec.flagged.any()
    assert np.all(np.isfinite(dec.total))
    for name in ("total", "dynamical", "flagged"):
        series = getattr(dec, name)
        assert series is getattr(traj, name) and not series.flags.writeable, name


def test_phase_decomposition_grid_mismatch():
    p1 = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 128)
    p2 = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    traj = evolve(p1, +1)
    with pytest.raises(ValueError, match="grid"):
        phase_decomposition(traj, p2)


def _unit_step_path(first_time):
    k_hat = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256).k_hat
    return FiberPath(first_time + np.arange(len(k_hat), dtype=float), k_hat, 1.0)


@pytest.mark.parametrize("traj_path, other", [
    (lambda: helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256), lambda: helix_path(np.pi / 4, 2.0, 1.0, 3.0, 256)),
    (lambda: _unit_step_path(0.0), lambda: _unit_step_path(5.0)),
], ids=["step", "first time"])
def test_grid_check_compares_step_and_first_time(traj_path, other):
    # as many samples as the trajectory's path, on another grid
    traj = evolve(traj_path(), +1)
    for reader in (phase_decomposition, helicity_expectations):
        with pytest.raises(ValueError, match="grid"):
            reader(traj, other())


def test_phase_decomposition_accepts_another_path_on_the_same_grid():
    traj = evolve(_unit_step_path(0.0), +1)
    other = FiberPath(traj.path.times, traj.path.k_hat[::-1], 2.0)
    assert phase_decomposition(traj, other) is traj


# -------------------------------------------------- analytic_noncyclic_phase

def test_analytic_phase_full_cycle():
    for cone in (np.pi / 6, np.pi / 3, np.pi / 2):
        p = helix_path(cone, 1.0, 1.0, 1.0, 512)
        ang = spherical_angles(p)
        expected = 2.0 * np.pi * (1.0 - np.cos(cone))
        for pol in (+1, -1):
            assert abs(analytic_noncyclic_phase(ang, pol)[-1] - pol * expected) < 1e-9


def test_analytic_phase_half_cycle():
    p = helix_path(np.pi / 3, 1.0, 1.0, 0.5, 256)
    ang = spherical_angles(p)
    assert abs(analytic_noncyclic_phase(ang, +1)[-1] - np.pi / 2) < 1e-9


def test_analytic_phase_pole_path_vanishes():
    p = constant_path()
    ang = spherical_angles(p)
    series = analytic_noncyclic_phase(ang, +1)
    assert np.abs(series).max() == 0.0


def test_numeric_matches_analytic_at_cycle_end():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 4096)
    ang = spherical_angles(p)
    for pol in (+1, -1):
        dec = phase_decomposition(evolve(p, pol), p)
        target = analytic_noncyclic_phase(ang, pol)[-1]
        assert abs(dec.geometric[-1] - target) < 1e-3


# ------------------------------------------- dense 3x3 oracles for the kernels
#
# The matrix forms the vector kernels replace: a per-step eigh exponential,
# the commutator Frobenius residual and einsum expectations.

def _wobble(n):
    t = np.linspace(0.0, 2.0 * np.pi, n + 1)
    lam = np.pi / 3 + 0.3 * np.sin(t)
    kh = np.stack([np.sin(lam) * np.cos(t), np.sin(lam) * np.sin(t), np.cos(lam)], axis=1)
    return FiberPath(times=t, k_hat=kh, k_mag=1.0)


ORACLE_PATHS = [
    pytest.param(lambda: helix_path(np.pi / 3, 1.0, 2.0, 1.0, 512), id="helix-512"),
    pytest.param(lambda: helix_path(0.9, -1.0, 1.0, 1.0, 4096), id="clockwise-helix-4096"),
    pytest.param(lambda: _wobble(512), id="wobble-512"),
    pytest.param(lambda: _wobble(4096), id="wobble-4096"),
]


def _operators(vectors):
    return np.einsum("ni,ijk->njk", vectors, S.as_array())


def _dense_states(path, pol):
    h = hamiltonian_coefficients(path)
    w, v = np.linalg.eigh(_operators(0.5 * (h[:-1] + h[1:])))
    steps = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * w * path.dt), v.conj())
    states = np.empty((path.n_samples, 3), dtype=complex)
    states[0] = helicity_eigenstates(path.k_hat[0]).state(-pol)
    for i, step in enumerate(steps):
        states[i + 1] = step @ states[i]
    return states


def _dense_expectation(states, vectors):
    return np.real(np.einsum("nj,njk,nk->n", states.conj(), _operators(vectors), states))


def _dense_residual(path, scale):
    inv = _operators(path.k_hat)
    ham = _operators(scale * hamiltonian_coefficients(path))
    comm = inv[1:-1] @ ham[1:-1] - ham[1:-1] @ inv[1:-1]
    return np.linalg.norm((inv[2:] - inv[:-2]) / (2.0 * path.dt) + comm / 1j, axis=(1, 2))


@pytest.mark.parametrize("make_path", ORACLE_PATHS)
@pytest.mark.parametrize("pol", [+1, -1])
def test_evolve_matches_dense_exponential(make_path, pol):
    p = make_path()
    traj = evolve(p, pol)
    assert np.abs(traj.states - _dense_states(p, pol)).max() <= 1e-12


@pytest.mark.parametrize("make_path", ORACLE_PATHS)
@pytest.mark.parametrize("pol", [+1, -1])
def test_expectations_match_dense_operators(make_path, pol):
    p = make_path()
    traj = evolve(p, pol)
    assert np.abs(helicity_expectations(traj, p) - _dense_expectation(traj.states, p.k_hat)).max() <= 1e-12
    dec = phase_decomposition(traj, p)
    energy = _dense_expectation(traj.states, hamiltonian_coefficients(p))
    dynamical = np.concatenate([[0.0], np.cumsum((energy[1:] + energy[:-1]) * (-0.5 * p.dt))])
    assert np.abs(dec.dynamical - dynamical).max() <= 1e-12


@pytest.mark.parametrize("make_path", ORACLE_PATHS)
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_invariant_residual_matches_commutator_form(make_path, scale):
    p = make_path()
    assert np.abs(invariant_residual_series(p, scale=scale) - _dense_residual(p, scale)).max() <= 1e-12


@pytest.mark.parametrize("make_path", ORACLE_PATHS)
@pytest.mark.parametrize("tile", [5, 37, 1000])
def test_tiled_scan_matches_dense_exponential(monkeypatch, make_path, tile):
    # every tile carries the state into the next: 1 to about 800 tiles
    monkeypatch.setattr(evolution, "_TILE", tile)
    p = make_path()
    assert np.abs(evolve(p, -1).states - _dense_states(p, -1)).max() <= 1e-12


def test_multi_tile_scan_matches_dense_exponential():
    # 2 ** 15 + 2 ** 12 steps: two tiles of blocks of 96 steps, against 192 in one tile
    p = helix_path(0.9, 1.0, 1.0, 2.0, (1 << 15) + (1 << 12))
    assert evolution._tiling(p.n_samples - 1) == (96, 384, 192)
    traj = evolve(p, +1)
    states = _dense_states(p, +1)
    assert np.abs(traj.states - states).max() <= 1e-12
    assert np.abs(traj.helicity - _dense_expectation(states, p.k_hat)).max() <= 1e-12


def test_evolve_block_scan_any_length():
    # step counts around the sqrt(n) x sqrt(n) block edges, including a
    # padded last block and a single block
    for n in (2, 3, 15, 16, 17, 63, 64, 65):
        t = np.linspace(0.0, 0.2 * n, n + 1)
        lam = 1.0 + 0.2 * np.sin(t)
        kh = np.stack([np.sin(lam) * np.cos(t), np.sin(lam) * np.sin(t), np.cos(lam)], axis=1)
        p = FiberPath(times=t, k_hat=kh, k_mag=1.0)
        assert np.abs(evolve(p, -1).states - _dense_states(p, -1)).max() <= 1e-13


def test_compute_scenario_memory_budget():
    import tracemalloc

    from fiberphase.fock import Ordering
    from fiberphase.scenario import Scenario, compute_scenario

    n_steps = 100_000
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    tracemalloc.start()
    try:
        compute_scenario(p, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_steps < 600  # bytes per step


def test_compute_scenario_evolves_once_within_budget():
    # one evolve serves both polarizations, so the transient working set of a
    # second decomposition is gone (315 B/step when each one was evolved)
    import tracemalloc

    from fiberphase.fock import Ordering
    from fiberphase.scenario import Scenario, compute_scenario

    n_steps = 100_000
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    tracemalloc.start()
    try:
        compute_scenario(p, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_steps < 280  # bytes per step


def test_compute_scenario_holds_transport_at_its_output_size():
    # evolve keeps four series per sample instead of the (n, 3) complex
    # states, h and the motion residual read k_dot one chunk at a time, and
    # the unwrap and the invariant residual go in chunks: about 210 B/step
    # with whole-array layers
    import tracemalloc

    from fiberphase.fock import Ordering
    from fiberphase.scenario import Scenario, compute_scenario

    n_steps = 100_000
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    tracemalloc.start()
    try:
        compute_scenario(p, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_steps < 170, peak / n_steps  # bytes per step


# ------------------------------------------------- cross product without copies

@pytest.mark.parametrize("shapes", [((1000, 3), (1000, 3)), ((7, 1, 3), (7, 3, 3)), ((3,), (5, 3))])
def test_private_cross_is_bitwise_np_cross(shapes):
    rng = np.random.default_rng(11)
    a, b = (rng.normal(size=shape) for shape in shapes)
    assert evolution._cross(a, b).tobytes() == np.cross(a, b).tobytes()
    z = rng.normal(size=(1000, 3)) + 1j * rng.normal(size=(1000, 3))  # strided real/imag views
    assert evolution._cross(z.real, z.imag).tobytes() == np.cross(z.real, z.imag).tobytes()
    # a real axis against complex states, as in the transport steps
    zs = rng.normal(size=shapes[1]) + 1j * rng.normal(size=shapes[1])
    assert evolution._cross(a, zs).tobytes() == np.cross(a, zs).tobytes()


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_kernels_match_whole_array_forms_bitwise(scale):
    # the expressions the in-place kernels replaced, kept as bitwise oracles
    p = helix_path(0.9, 1.0, 2.0, 2.0, 5000)
    kh = p.k_hat
    vec = (kh[2:] - kh[:-2]) / (2.0 * p.dt)
    vec += np.cross(kh[1:-1], scale * hamiltonian_coefficients(p)[1:-1])
    want = np.sqrt(2.0) * np.linalg.norm(vec, axis=1)
    assert invariant_residual_series(p, scale).tobytes() == want.tobytes()
    traj = evolve(p, -1)
    cart = np.stack([
        (traj.states[:, 2] - traj.states[:, 0]) * evolution._SQ,
        (traj.states[:, 0] + traj.states[:, 2]) * (-1j * evolution._SQ),
        traj.states[:, 1],
    ], axis=1)
    assert evolution._spin_vectors(traj.states).tobytes() == (2.0 * np.cross(cart.real, cart.imag)).tobytes()


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 38, 39, 40])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_chunked_invariant_residual_matches_whole_array_form(monkeypatch, chunk, scale):
    # 41 samples, 39 residuals: chunk edges anywhere, and one chunk
    p = _wobble(40)
    kh = p.k_hat
    vec = (kh[2:] - kh[:-2]) / (2.0 * p.dt)
    vec += np.cross(kh[1:-1], scale * hamiltonian_coefficients(p)[1:-1])
    want = np.sqrt(2.0) * np.linalg.norm(vec, axis=1)
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk)
    assert invariant_residual_series(p, scale).tobytes() == want.tobytes()


def test_element_wise_basis_changes_match_the_matrix_products():
    # the kernels skip the exact zeros of C instead of calling BLAS, whose
    # rounding depends on the operand shapes; they agree with it to rounding
    rng = np.random.default_rng(5)
    cart = rng.normal(size=(1000, 3)) + 1j * rng.normal(size=(1000, 3))
    ang = evolution._angular(cart)
    assert np.abs(ang - cart @ CARTESIAN_FROM_ANGULAR.conj()).max() <= 1e-15
    back = CARTESIAN_FROM_ANGULAR @ ang.T
    assert np.abs(evolution._spin_vectors(ang) - 2.0 * np.cross(back.T.real, back.T.imag)).max() <= 1e-14


def test_cross_product_kernels_memory_budget():
    # np.cross copies both operands: 128 B/step before
    import tracemalloc

    n_steps = 100_000
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    tracemalloc.start()
    try:
        invariant_residual_series(p, 2.0)
        residual = tracemalloc.get_traced_memory()[1] / n_steps
    finally:
        tracemalloc.stop()
    assert residual < 70, residual
