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
from fiberphase.fock import vacuum_phase
from fiberphase.geometry import FiberPath, helix_path, load_path, rotation_vectors, spherical_angles
from fiberphase.media import GyrotropicMedium, effective_wave_vector
from fiberphase.spin import helicity_eigenstates, spin1_matrices

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


POLARIZATION_CALLS = {
    "evolve": lambda pol: evolve(constant_path(), pol).polarization,
    "analytic_noncyclic_phase": lambda pol: analytic_noncyclic_phase(spherical_angles(constant_path()), pol)[-1],
    "vacuum_phase": lambda pol: vacuum_phase(pol, spherical_angles(constant_path()))[-1],
    "effective_wave_vector": lambda pol: effective_wave_vector(GyrotropicMedium(2.0, 1.0), 1.0, pol),
}


@pytest.mark.parametrize("pol", [True, False, 1.0, -1.0, np.float64(1.0), np.bool_(True), 0, 2, "1", None],
                         ids=["True", "False", "1.0", "-1.0", "np.float64", "np.bool_", "0", "2", "'1'", "None"])
@pytest.mark.parametrize("call", sorted(POLARIZATION_CALLS))
def test_polarization_must_be_the_integer_plus_or_minus_one(call, pol):
    # True and 1.0 equal 1: evolve kept True as the label, and the others took them as the + mode
    with pytest.raises(ValueError, match=r"^polarization must be the integer \+1 \(right\) or -1 \(left\), got "):
        POLARIZATION_CALLS[call](pol)


@pytest.mark.parametrize("call", sorted(POLARIZATION_CALLS))
def test_numpy_integer_polarizations_are_accepted(call):
    for pol in (+1, -1):
        assert POLARIZATION_CALLS[call](np.int64(pol)) == POLARIZATION_CALLS[call](pol)


def test_evolve_initial_state_spin_projection():
    # receiver handedness: right-handed (+1) light carries spin projection -1
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    for pol in (+1, -1):
        traj = evolve(p, pol)
        hel = helicity_expectations(traj, p)
        assert abs(hel[0] - (-pol)) < 1e-12


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


def test_norm_drift_stays_at_rounding_at_1e5_steps():
    # 1e5 steps compose 317 block frames of 317 chord steps; re-orthogonalising
    # each frame before the carry keeps the drift at one frame's rounding:
    # 3.6e-15 norm and 7.3e-15 helicity drift here (7.0e-14 and 1.7e-12 for
    # the midpoint rule's tiled scan, 8.5e-13 when the frames' rounding
    # chained through the carry)
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


def _three_lobe(phi):
    """k_hat at azimuths ``phi`` of the closed loop theta = 0.8 + 0.25 sin 3 phi."""
    theta = 0.8 + 0.25 * np.sin(3.0 * phi)
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1)


def _three_lobe_loop(t0=0.0, scale=1.0, n_steps=4096):
    """The closed loop theta = 0.8 + 0.25 sin 3 phi, sampled at t = t0 + scale * phi."""
    phi = np.linspace(0.0, 2.0 * np.pi, n_steps + 1)
    return FiberPath(times=t0 + scale * phi, k_hat=_three_lobe(phi), k_mag=1.0)


def _phase_columns(p):
    dec = phase_decomposition(evolve(p, +1), p)
    return {"total": dec.total, "dynamical": dec.dynamical, "geometric": dec.geometric,
            "W": spherical_angles(p).solid_angle}


@pytest.mark.parametrize("t0, scale", [(5.0, 1.0), (1e3, 1.0), (0.0, 3.7), (0.0, 1e-3)],
                         ids=["shift5", "shift1e3", "scale3.7", "scale1e-3"])
def test_phases_do_not_depend_on_the_time_origin_or_unit(t0, scale):
    # only k_hat's sequence of directions enters: each step is the chord
    # rotation between two samples, and h ~ 1/dt enters the dynamical phase
    # as h dt, so a shifted or rescaled clock moves no column beyond rounding
    want = _phase_columns(_three_lobe_loop())
    got = _phase_columns(_three_lobe_loop(t0, scale))
    for name in want:
        assert np.abs(got[name] - want[name]).max() <= 1e-13, name


def test_final_phases_do_not_depend_on_how_the_loop_is_parametrised(tmp_path):
    # the loop sampled at phi = f(t) = 2 pi (s + 0.1 sin 2 pi s), s = t / T, monotone but not uniform, and read from a
    # file (Chiao & Wu, PRL 57, 933 (1986); Tomita & Chiao, PRL 57, 937 (1986)).  Each final value's gap to the
    # uniform-phi loop at the same step count is the difference of their discretisation errors, so it shrinks with
    # the step: a phase that depended on the parametrisation would not.  Measured at 1024 and 2048 steps: the
    # geometric phases' gaps 1.07e-5 and 2.67e-6, 4.00x, the chord polygon's second order (5.77e-5 and 1.43e-5,
    # 4.03x, for the midpoint rule); W's 6.3e-9 and 1.2e-9, 5.3x but only 1.85x at the next doubling (the uniform
    # loop's W is exact to rounding)
    gaps = []
    for n in (1024, 2048):
        s = np.linspace(0.0, 1.0, n + 1)
        filename = tmp_path / f"loop_{n}.txt"
        np.savetxt(filename, np.column_stack([5.0 * s, _three_lobe(2.0 * np.pi * (s + 0.1 * np.sin(2.0 * np.pi * s)))]),
                   fmt="%.17g")
        finals = [[evolve(p, +1).geometric[-1], evolve(p, -1).geometric[-1], spherical_angles(p).solid_angle[-1]]
                  for p in (load_path(str(filename)), _three_lobe_loop(n_steps=n))]
        gaps.append(np.subtract(*finals))
    coarse, fine = np.abs(gaps)
    assert np.all(fine <= coarse / 1.5), gaps
    assert np.all((3.5 <= coarse[:2] / fine[:2]) & (coarse[:2] / fine[:2] <= 4.5)), gaps


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
# The matrix forms the vector kernels replace: a per-step eigh exponential
# of the chord's rotation vector, the commutator Frobenius residual and
# einsum expectations.

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
    return np.einsum("ni,ijk->njk", vectors, np.array([S.s1, S.s2, S.s3]))


def _dense_states(path, pol):
    # step i is exp(-i theta n . S), theta n the rotation vector taking k_hat_i onto k_hat_(i+1)
    axes, kh = rotation_vectors(path), path.k_hat
    sines = np.linalg.norm(axes, axis=1)
    angles = np.arctan2(sines, np.einsum("ni,ni->n", kh[:-1], kh[1:]))
    w, v = np.linalg.eigh(_operators(axes * (angles / sines)[:, None]))
    steps = np.einsum("nij,nj,nkj->nik", v, np.exp(-1j * w), v.conj())
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
@pytest.mark.parametrize("chunk", [5, 37, 1000])
def test_chunked_closed_form_matches_dense_exponential(monkeypatch, make_path, chunk):
    # the results columns' closed form, a pass of 1 to about 800 chunks, is
    # the overlap phase of the dense per-step exponentials (3.0e-13 at most
    # measured); those states keep their norm and their helicity -sigma to
    # rounding (1.5e-12 at most), which evolve measures and no column writes
    from fiberphase.scenario import _series

    monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk)
    p = make_path()
    for pol in (+1, -1):
        states = _dense_states(p, pol)
        chunks = list(_series(p, pol))
        total, flagged = (np.concatenate([series[key] for series in chunks]) for key in ("total", "flagged"))
        assert len(total) == p.n_samples and not flagged.any()
        assert np.abs(total - np.unwrap(np.angle(states @ states[0].conj()))).max() <= 1e-12
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() <= 5e-12
        assert np.abs(_dense_expectation(states, p.k_hat) + pol).max() <= 5e-12


def test_many_block_evolve_matches_dense_exponential():
    # 2 ** 15 + 2 ** 12 steps: 192 blocks of 193 samples, the last one of 2,
    # whose frames are composed through the carry (4.5e-13 and 9.3e-13 measured)
    p = helix_path(0.9, 1.0, 1.0, 2.0, (1 << 15) + (1 << 12))
    traj = evolve(p, +1)
    states = _dense_states(p, +1)
    assert np.abs(traj.states - states).max() <= 1e-12
    assert np.abs(traj.helicity - _dense_expectation(states, p.k_hat)).max() <= 1e-12


@pytest.mark.parametrize("pol", [+1, -1])
def test_states_in_the_angular_basis_are_helicity_eigenstates(pol):
    # the chord steps run in the Cartesian frame and states changes basis row
    # by row: each row is the eigenstate of k_hat . S with eigenvalue -sigma
    p = _wobble(4096)
    states = evolve(p, pol).states
    image = np.einsum("njk,nk->nj", _operators(p.k_hat), states)
    assert np.abs(image + pol * states).max() <= 1e-12


def test_evolve_transports_once_and_its_states_once_more(monkeypatch):
    # evolve measures its five read-only series in one transport; the states
    # are transported again on their first read only, and cached read-only
    calls, original = [], evolution._chord_columns
    monkeypatch.setattr(evolution, "_chord_columns", lambda *args: calls.append(args) or original(*args))
    p = _wobble(1000)
    traj = evolve(p, -1)
    assert len(calls) == 1
    assert not any(part.flags.writeable for part in (traj.total, traj.flagged, traj.dynamical, traj.helicity,
                                                     traj.norms))
    states = traj.states
    assert len(calls) == 2 and traj.states is states and not states.flags.writeable
    assert np.abs(np.linalg.norm(states, axis=1) - traj.norms).max() <= 1e-15


def test_evolve_block_scan_any_length():
    # step counts around the sqrt(n) x sqrt(n) block edges, including a
    # padded last block and a single block
    for n in (2, 3, 15, 16, 17, 63, 64, 65):
        t = np.linspace(0.0, 0.2 * n, n + 1)
        lam = 1.0 + 0.2 * np.sin(t)
        kh = np.stack([np.sin(lam) * np.cos(t), np.sin(lam) * np.sin(t), np.cos(lam)], axis=1)
        p = FiberPath(times=t, k_hat=kh, k_mag=1.0)
        assert np.abs(evolve(p, -1).states - _dense_states(p, -1)).max() <= 1e-13


def _scenario_peak(n_steps=100_000):
    """tracemalloc peak of compute_scenario and its reduction, whose pass reads the transport, in bytes per step."""
    import tracemalloc

    from fiberphase.fock import Ordering
    from fiberphase.scenario import Scenario, _reduce, compute_scenario

    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    tracemalloc.start()
    try:
        result = compute_scenario(p, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        _reduce(result["series"](), result["columns"].values())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / n_steps


def test_compute_scenario_memory_budget():
    assert _scenario_peak() < 600  # bytes per step


def test_compute_scenario_evolves_once_within_budget():
    # one evolve serves both polarizations, so the transient working set of a
    # second decomposition is gone (315 B/step when each one was evolved)
    assert _scenario_peak() < 280  # bytes per step


def test_compute_scenario_holds_transport_at_its_output_size():
    # evolve keeps four series per sample instead of the (n, 3) complex
    # states, h and the motion residual read k_dot one chunk at a time, and
    # the unwrap and the invariant residual go in chunks: about 210 B/step
    # with whole-array layers
    peak = _scenario_peak()
    assert peak < 170, peak  # bytes per step


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
