"""compute_scenario computes each per-path series once and frees what it no longer reads.

The oracle runs the public stage functions on a fresh, never-cached copy of
the path for every call, so a stale or shared cached series would show up as
a bitwise difference.
"""
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from fiberphase import evolution, fock, geometry, media
from fiberphase.evolution import (
    analytic_noncyclic_phase,
    evolve,
    hamiltonian_coefficients,
    helicity_expectations,
    invariant_residual_series,
    phase_decomposition,
)
from fiberphase.fock import Ordering
from fiberphase.geometry import FiberPath, helix_path, load_path, solid_angle_series, spherical_angles
from fiberphase.scenario import FREE_SPACE, RESULT_COLUMNS, Scenario, compute_scenario, run_sweep

GYROTROPIC = media.GyrotropicMedium(eps1=2.0, eps2=3.0, mu1=2.0, mu2=1.0)  # left mode evanescent


def _fresh(path):
    return FiberPath(times=path.times.copy(), k_hat=path.k_hat.copy(), k_mag=path.k_mag)


def _angles(path):
    return spherical_angles(_fresh(path))


def _oracle(path, pols, n_left, n_right, medium, k0, chamber):
    """compute_scenario's arrays from the stage functions, each on a fresh path copy.

    Only the first polarization is evolved; the other is its conjugate, with
    the three transported phases negated (as 0.0 - x) and the drifts and
    flags unchanged.
    """
    first = pols[0]
    states = evolve(_fresh(path), first).states
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        dec = phase_decomposition(evolve(_fresh(path), first), _fresh(path))
    hel = helicity_expectations(evolve(_fresh(path), first), _fresh(path))
    per_sigma = {}
    for pol in pols:
        sign = (lambda x: x) if pol == first else (lambda x: 0.0 - x)
        per_sigma[pol] = {
            "phase_total": sign(dec.total),
            "phase_dynamical": sign(dec.dynamical),
            "phase_geometric": sign(dec.geometric),
            "flagged": dec.flagged,
            "phase_analytic": analytic_noncyclic_phase(_angles(path), pol),
            "norm_drift": np.abs(np.linalg.norm(states, axis=1) - 1.0),
            "helicity_drift": np.abs(hel - hel[0]),
        }
    inv = invariant_residual_series(_fresh(path))
    net = media.net_vacuum_phase(medium or FREE_SPACE, k0, _angles(path), path.n_samples - 1, chamber)
    vac_left = fock.vacuum_phase(-1, _angles(path))
    vac_right = fock.vacuum_phase(+1, _angles(path))
    net_series = np.zeros(path.n_samples)
    if net.plus_survives:
        net_series = net_series + vac_right
    if net.minus_survives:
        net_series = net_series + vac_left
    angles = _angles(path)
    columns = {
        "t": _fresh(path).times,
        "lambda": angles.polar,
        "gamma": angles.azimuth,
        "phase_quantal": fock.quantal_geometric_phase(n_left, n_right, _angles(path)),
        "phase_vacuum_L": vac_left,
        "phase_vacuum_R": vac_right,
        "phase_vacuum_net": net_series,
        "invariant_residual": np.concatenate([[inv[0]], inv, [inv[-1]]]),
        "motion_residual": geometry.motion_residual(_fresh(path)),
    }
    return {"columns": columns, "per_sigma": per_sigma, "vacuum_net": net}


def _assert_bitwise(got, want, label):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


def _wobble_file(tmp_path):
    t = np.linspace(0.0, 4.0 * np.pi, 3001)
    polar = 0.9 + 0.3 * np.sin(3.0 * t)
    azimuth = t + 0.2 * np.cos(2.0 * t)
    k = 2.5 * np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)
    filename = tmp_path / "wobble.txt"
    np.savetxt(filename, np.column_stack([t, k]), fmt="%.17g")
    return load_path(str(filename))


CASES = {
    # name: (path builder, n_left, n_right, medium, k0, chamber)
    "helix-pi/3": (lambda tmp: helix_path(np.pi / 3, 1.0, 2.0, 1.0, 2000), 0, 1, None, 1.0, None),
    "equator-flagged": (lambda tmp: helix_path(np.pi / 2, 1.0, 1.0, 2.0, 2000), 2, 1, GYROTROPIC, 1.0, 10.0),
    "wobble-file": (_wobble_file, 3, 0, GYROTROPIC, 1.0, None),
}


@pytest.mark.parametrize("pols", [[1, -1], [-1, 1]], ids=["R,L", "L,R"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_compute_scenario_matches_stage_functions_bitwise(tmp_path, case, pols):
    make, nl, nr, medium, k0, chamber = CASES[case]
    path = make(tmp_path)
    got = compute_scenario(path, Scenario(tuple(pols), nl, nr, Ordering.SYMMETRIC, medium, k0, chamber))
    want = _oracle(path, pols, nl, nr, medium, k0, chamber)

    assert list(got["per_sigma"]) == pols
    for table, ref, label in [(got["columns"], want["columns"], "shared"),
                              *((got["per_sigma"][pol], want["per_sigma"][pol], pol) for pol in pols)]:
        assert table.keys() == ref.keys(), label
        for key in ref:
            _assert_bitwise(table[key], ref[key], f"{label} {key}")
    assert got["vacuum_net"] == want["vacuum_net"]
    if case == "equator-flagged":
        assert all(got["per_sigma"][pol]["flagged"].any() for pol in pols)


def test_result_tables_partition_the_csv_columns():
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None))
    shared = list(result["columns"])
    for pol in (1, -1):
        own = list(result["per_sigma"][pol])
        # each results.csv column after sigma lives in exactly one table, and none is missing
        assert sorted(shared + own) == sorted(RESULT_COLUMNS[1:])


def test_cached_series_are_shared_and_read_only():
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    angles = spherical_angles(path)
    traj = evolve(path, +1)
    assert hamiltonian_coefficients(path) is path.h
    assert solid_angle_series(angles) is angles.solid_angle
    helicity_expectations(traj, path)
    spin_vectors = traj.spin_vectors
    phase_decomposition(traj, path)
    assert traj.spin_vectors is spin_vectors
    for series in (path.h, angles.solid_angle, traj.spin_vectors):
        with pytest.raises(ValueError, match="read-only"):
            series[1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            series += 1.0
    # derived series are new, writable arrays
    assert analytic_noncyclic_phase(angles, -1).flags.writeable
    assert fock.vacuum_phase(+1, angles).flags.writeable


def test_k_dot_computed_at_most_twice_per_scenario(monkeypatch):
    original = geometry.k_dot
    calls = []

    def counting(path):
        calls.append(path)
        return original(path)

    # rebind every module attribute that holds k_dot, so imports by name count too
    for name, module in list(sys.modules.items()):
        if name == "fiberphase" or name.startswith("fiberphase."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 1024)
    compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None))
    assert len(calls) <= 2


def _sweep_peak(tmp_path, values):
    cfg = {
        "path": {"type": "helix", "cone_angle": 0.7, "omega": 1.0, "k_mag": 1.0, "n_cycles": 1.0, "n_steps": 50_000},
        "polarizations": [1, -1],
        "sweep": {"parameter": "cone_angle", "values": values},
    }
    config = tmp_path / f"sweep{len(values)}.json"
    config.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        run_sweep(str(config), str(tmp_path / f"out{len(values)}"), quiet=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sweep_point_arrays_are_freed_before_the_next_point(tmp_path):
    one = _sweep_peak(tmp_path, ["40 deg"])
    two = _sweep_peak(tmp_path, ["40 deg", "50 deg"])
    assert two <= 1.1 * one, (one, two)


DERIVED_CASES = {
    "helix-pi/3": lambda tmp: helix_path(np.pi / 3, 1.0, 2.0, 1.0, 2000),
    "helix-clockwise": lambda tmp: helix_path(np.pi / 3, -1.0, 1.0, 1.0, 2000),
    "wobble-file": _wobble_file,
    "equator-flagged": lambda tmp: helix_path(np.pi / 2, 1.0, 1.0, 2.0, 2000),
}


@pytest.mark.parametrize("first", [1, -1])
@pytest.mark.parametrize("case", sorted(DERIVED_CASES))
def test_derived_polarization_matches_separate_evolution(tmp_path, case, first):
    path = DERIVED_CASES[case](tmp_path)
    got = compute_scenario(path, Scenario((first, -first), 0, 0, Ordering.SYMMETRIC, None, 1.0, None))
    derived = got["per_sigma"][-first]

    traj = evolve(_fresh(path), -first)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        dec = phase_decomposition(traj, _fresh(path))
    hel = helicity_expectations(traj, _fresh(path))
    assert np.array_equal(derived["flagged"], dec.flagged)
    if case == "equator-flagged":
        assert dec.flagged.any()
    # phases are only trustworthy away from the orthogonal passage
    clear = np.abs(traj.states @ traj.states[0].conj()) > 1e-3
    for kind in ("total", "dynamical", "geometric"):
        assert np.abs(derived[f"phase_{kind}"] - getattr(dec, kind))[clear].max() <= 1e-12, kind
    assert np.abs(derived["norm_drift"] - np.abs(np.linalg.norm(traj.states, axis=1) - 1.0)).max() <= 1e-12
    assert np.abs(derived["helicity_drift"] - np.abs(hel - hel[0])).max() <= 1e-12
    # the drifts and flags are one read-only array shared by both polarizations
    for name in ("norm_drift", "helicity_drift", "flagged"):
        assert derived[name] is got["per_sigma"][first][name]
        assert not derived[name].flags.writeable


def _count_calls(monkeypatch, original):
    """Replace ``original`` in every fiberphase module that holds it; returns the call list."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "fiberphase" or name.startswith("fiberphase."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.mark.parametrize("pols", [(1, -1), (-1, 1), (-1,)], ids=["R,L", "L,R", "L"])
def test_one_propagation_per_scenario(monkeypatch, pols):
    counted = {fn.__name__: _count_calls(monkeypatch, fn)
               for fn in (evolve, phase_decomposition, helicity_expectations)}
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 1024)
    result = compute_scenario(path, Scenario(pols, 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None))
    assert list(result["per_sigma"]) == list(pols)
    assert {name: len(calls) for name, calls in counted.items()} == dict.fromkeys(counted, 1)
    assert counted["evolve"][0][1] == pols[0]
