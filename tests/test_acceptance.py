"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred to calibration.
"""
import json
import os
import time

import numpy as np

from fiberphase.cli import main as cli_main
from fiberphase.evolution import (
    evolve,
    hamiltonian_coefficients,
    helicity_expectations,
    invariant_residual_series,
    phase_decomposition,
)
from fiberphase.fock import Ordering, cyclic_phases, vacuum_phase
from fiberphase.geometry import helix_path, motion_residual, rotation_vectors, spherical_angles
from fiberphase.media import GyrotropicMedium, net_vacuum_phase, refractive_indices_squared
from fiberphase.spin import spin1_matrices

S = spin1_matrices()
ROUNDING_FLOOR = 1e-10


def _report(number, title, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number} ({title}): {detail}")
    assert ok, f"criterion {number} ({title}): {detail}"


def test_criterion_1_cyclic_adiabatic_phase():
    start = time.perf_counter()
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 4096)
    errors = {}
    for pol, expected in ((+1, np.pi), (-1, -np.pi)):
        dec = phase_decomposition(evolve(path, pol), path)
        errors[pol] = abs(dec.geometric[-1] - expected)
    elapsed = time.perf_counter() - start
    ok = errors[+1] < 1e-3 and errors[-1] < 1e-3 and elapsed < 1.0
    _report(
        1,
        "cyclic phase",
        ok,
        f"|geo - (+pi)| = {errors[+1]:.2e}, |geo - (-pi)| = {errors[-1]:.2e} "
        f"(tol 1e-3), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_vacuum_cancellation():
    worst = 0.0
    for cone in (np.pi / 6, np.pi / 3, np.pi / 2):
        angles = spherical_angles(helix_path(cone, 1.0, 1.0, 1.0, 1024))
        total = vacuum_phase(+1, angles) + vacuum_phase(-1, angles)
        worst = max(worst, float(np.abs(total).max()))
    ok = worst < 1e-14
    _report(2, "vacuum cancellation", ok, f"max |phi_R + phi_L| over all t = {worst:.2e} (tol 1e-14)")


def test_criterion_3_gyrotropic_isolation():
    medium = GyrotropicMedium(eps1=2.0, eps2=3.0, mu1=2.0, mu2=1.0)
    n2 = refractive_indices_squared(medium)
    angles = spherical_angles(helix_path(np.pi / 3, 1.0, 1.0, 1.0, 2048))
    net = net_vacuum_phase(medium, 1.0, angles)
    err = abs(net.phase - np.pi / 2)
    ok = n2 == (15.0, -1.0) and net.plus_survives and not net.minus_survives and err < 1e-12
    _report(
        3,
        "vacuum isolation",
        ok,
        f"n2 = {n2} (exact), surviving mode R only, |net - pi/2| = {err:.2e} (tol 1e-12)",
    )


def test_criterion_4_ordering_ledger():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(50):
        nl, nr = int(rng.integers(0, 10)), int(rng.integers(0, 10))
        cone = float(rng.uniform(0.0, np.pi))
        cycle = 2.0 * np.pi * (1.0 - np.cos(cone))
        sym = cyclic_phases(nl, nr, cone, Ordering.SYMMETRIC)
        norm = cyclic_phases(nl, nr, cone, Ordering.NORMAL)
        worst = max(worst, abs((sym[0] - norm[0]) + 0.5 * cycle), abs((sym[1] - norm[1]) - 0.5 * cycle))
    ok = worst < 1e-12
    _report(4, "ordering ledger", ok, f"max deviation from (-1/2, +1/2) cycle weights = {worst:.2e} (tol 1e-12)")


def _max_rotation_gap(path):
    """Largest Frobenius gap between the finite-rotation generator (theta/dt) . S
    and h . S over the steps, as ||(theta/dt - h) . S||_F = sqrt(2) |theta/dt - h|."""
    gaps = np.linalg.norm(rotation_vectors(path) / path.dt - hamiltonian_coefficients(path)[:-1], axis=1)
    return float(np.sqrt(2.0) * gaps.max())


def _dense_max_rotation_gap(path):
    """Oracle: the same gap from the 3x3 matrices, one step at a time."""
    theta, h = rotation_vectors(path), hamiltonian_coefficients(path)
    return max(
        float(np.linalg.norm(S.along(theta[i] / path.dt) - S.along(h[i])))
        for i in range(path.n_samples - 1)
    )


def test_rotation_gap_matches_dense_frobenius_gap():
    for n_steps in (1024, 2048):
        path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
        dense = _dense_max_rotation_gap(path)
        assert abs(_max_rotation_gap(path) - dense) <= 1e-15 * dense


def test_criterion_5_method_consistency():
    start = time.perf_counter()
    coarse = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 1024)
    fine = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 2048)

    gap_ratio = _max_rotation_gap(coarse) / _max_rotation_gap(fine)
    ok_a = 1.8 <= gap_ratio <= 2.5

    inv_coarse = float(invariant_residual_series(coarse).max())
    inv_fine = float(invariant_residual_series(fine).max())
    at_floor = inv_coarse < ROUNDING_FLOOR and inv_fine < ROUNDING_FLOOR
    ok_b = inv_coarse < 1e-3 and (at_floor or inv_coarse / inv_fine > 3.5)

    mot_coarse = float(motion_residual(coarse).max())
    mot_fine = float(motion_residual(fine).max())
    mot_floor = mot_coarse < ROUNDING_FLOOR and mot_fine < ROUNDING_FLOOR
    ok_c = mot_coarse < 1e-3 and (mot_floor or mot_coarse / mot_fine > 3.5)

    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and elapsed < 5.0
    inv_note = "at rounding floor" if at_floor else f"ratio {inv_coarse / inv_fine:.1f}"
    _report(
        5,
        "method consistency",
        ok,
        f"(a) rotation-gap ratio {gap_ratio:.2f} (~2); "
        f"(b) LvN residual {inv_coarse:.1e} < 1e-3, {inv_note}; "
        f"(c) motion residual {mot_coarse:.1e} < 1e-3, ratio {mot_coarse / mot_fine:.1f} (>= 2nd order); "
        f"runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_6_noncyclic_formula():
    path = helix_path(np.pi / 3, 1.0, 1.0, 0.5, 2048)
    worst = 0.0
    for pol in (+1, -1):
        dec = phase_decomposition(evolve(path, pol), path)
        worst = max(worst, abs(dec.geometric[-1] - pol * np.pi / 2))
    ok = worst < 5e-3
    _report(6, "noncyclic formula", ok, f"max |geo(half cycle) - sigma*pi/2| = {worst:.2e} (tol 5e-3)")


def test_criterion_7_property_suite(tmp_path):
    comm = max(
        float(np.abs(S.s1 @ S.s2 - S.s2 @ S.s1 - 1j * S.s3).max()),
        float(np.abs(S.s2 @ S.s3 - S.s3 @ S.s2 - 1j * S.s1).max()),
        float(np.abs(S.s3 @ S.s1 - S.s1 @ S.s3 - 1j * S.s2).max()),
    )
    ok_comm = comm <= 1e-15  # rounding floor of fl(1/sqrt2)^2; see README

    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 10000)
    traj = evolve(path, +1)
    norm_drift = float(np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max())
    ok_norm = norm_drift < 1e-10

    hel = helicity_expectations(traj, path)
    hel_drift = float(np.abs(hel - hel[0]).max())
    ok_hel = hel_drift < 1e-5

    cfg = {
        "path": {"type": "helix", "cone_angle": np.pi / 3, "omega": 1.0, "k_mag": 1.0,
                 "n_cycles": 1.0, "n_steps": 512},
        "polarizations": [1, -1],
        "occupations": {"n_left": 0, "n_right": 1},
    }
    config = tmp_path / "det.json"
    config.write_text(json.dumps(cfg))
    assert cli_main(["run", str(config), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert cli_main(["run", str(config), "--out", str(tmp_path / "b"), "--quiet"]) == 0
    ok_det = True
    for name in ("results.csv", "summary.json"):
        with open(tmp_path / "a" / name, "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            second = fh.read()
        ok_det &= first == second

    ok = ok_comm and ok_norm and ok_hel and ok_det
    _report(
        7,
        "property suite",
        ok,
        f"commutators {comm:.1e} (<= 1e-15), norm drift {norm_drift:.1e} over 1e4 steps (< 1e-10), "
        f"helicity drift {hel_drift:.1e} (< 1e-5), CLI outputs byte-identical: {ok_det}",
    )
