"""compute_scenario computes each per-path series once and frees what it no longer reads.

The oracle runs the public stage functions on a fresh, never-cached copy of
the path for every call, so a stale or shared cached series would show up as
a bitwise difference.
"""
import json
import sys
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from fiberphase.geometry import FiberPath, helix_path, load_path, spherical_angles
from fiberphase.scenario import (
    FREE_SPACE,
    RESULT_COLUMNS,
    Column,
    NumericalError,
    Scenario,
    _reduce,
    _residuals,
    compute_scenario,
    run_scenario,
    run_sweep,
    write_results_csv,
)

GYROTROPIC = media.GyrotropicMedium(eps1=2.0, eps2=3.0, mu1=2.0, mu2=1.0)  # left mode evanescent


def _fresh(path):
    return FiberPath(times=path.times.copy(), k_hat=path.k_hat.copy(), k_mag=path.k_mag)


def _all_columns(result):
    return [column for table in result["tables"].values() for column in table.values()]


def _angles(path):
    return spherical_angles(_fresh(path))


def _oracle(path, pols, n_left, n_right, medium, k0, chamber, ordering):
    """compute_scenario's columns from the stage functions, each on a fresh path copy, plus 0.0.

    Only the first polarization is evolved; the other is its conjugate, with
    the three transported phases negated (as 0.0 - x) and the drifts and
    flags unchanged.  Every column gets + 0.0, which only turns -0.0 into 0.0.
    """
    first = pols[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        states = evolve(_fresh(path), first).states
        dec = phase_decomposition(evolve(_fresh(path), first), _fresh(path))
        hel = helicity_expectations(evolve(_fresh(path), first), _fresh(path))
    inv = invariant_residual_series(_fresh(path))
    net = media.net_vacuum_phase(medium or FREE_SPACE, k0, _angles(path), chamber, ordering)
    vac_left = fock.vacuum_phase(-1, _angles(path), ordering)
    vac_right = fock.vacuum_phase(+1, _angles(path), ordering)
    net_series = np.zeros(path.n_samples)
    if net.plus_survives:
        net_series = net_series + vac_right
    if net.minus_survives:
        net_series = net_series + vac_left
    angles = _angles(path)
    shared = {
        "t": _fresh(path).times,
        "lambda": angles.polar,
        "gamma": angles.azimuth,
        "phase_quantal": fock.quantal_geometric_phase(n_left, n_right, _angles(path)),
        "phase_vacuum_L": vac_left,
        "phase_vacuum_R": vac_right,
        "phase_vacuum_net": net_series,
        "norm_drift": np.abs(np.linalg.norm(states, axis=1) - 1.0),
        "helicity_drift": np.abs(hel - hel[0]),
        "invariant_residual": np.concatenate([[inv[0]], inv, [inv[-1]]]),
        "motion_residual": geometry.motion_residual(_fresh(path)),
        "flagged": dec.flagged,
    }
    tables = {}
    for pol in pols:
        sign = (lambda x: x) if pol == first else (lambda x: 0.0 - x)
        columns = {
            **shared,
            "phase_total": sign(dec.total),
            "phase_dynamical": sign(dec.dynamical),
            "phase_geometric": sign(dec.geometric),
            "phase_analytic": analytic_noncyclic_phase(_angles(path), pol),
        }
        tables[pol] = {name: values + 0.0 for name, values in columns.items()}
    return {"tables": tables, "vacuum_net": net}


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
    # name: (path builder, n_left, n_right, medium, k0, chamber, ordering)
    "helix-pi/3": (lambda tmp: helix_path(np.pi / 3, 1.0, 2.0, 1.0, 2000), 0, 1, None, 1.0, None, Ordering.SYMMETRIC),
    "equator-flagged": (lambda tmp: helix_path(np.pi / 2, 1.0, 1.0, 2.0, 2000), 2, 1, GYROTROPIC, 1.0, 10.0,
                        Ordering.SYMMETRIC),
    "wobble-file": (_wobble_file, 3, 0, GYROTROPIC, 1.0, None, Ordering.SYMMETRIC),
    # clockwise: W < 0, so the zero weights of n_R - n_L and normal ordering meet negative W
    "clockwise-normal": (lambda tmp: helix_path(np.pi / 3, -1.0, 1.0, 1.0, 2000), 2, 2, GYROTROPIC, 1.0, None,
                         Ordering.NORMAL),
}
W_WEIGHTS = {"phase_quantal", "phase_vacuum_L", "phase_vacuum_R", "phase_vacuum_net", "phase_analytic"}


@pytest.mark.parametrize("pols", [[1, -1], [-1, 1]], ids=["R,L", "L,R"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_compute_scenario_matches_stage_functions_bitwise(tmp_path, case, pols):
    make, nl, nr, medium, k0, chamber, ordering = CASES[case]
    path = make(tmp_path)
    got = compute_scenario(path, Scenario(tuple(pols), nl, nr, ordering, medium, k0, chamber))
    want = _oracle(path, pols, nl, nr, medium, k0, chamber, ordering)

    assert list(got["tables"]) == pols
    for pol in pols:
        table, ref = got["tables"][pol], want["tables"][pol]
        assert table.keys() == ref.keys(), pol
        for key in ref:
            _assert_bitwise(table[key][:], ref[key], f"{pol} {key}")
    assert got["vacuum_net"] == want["vacuum_net"]
    if case == "equator-flagged":
        assert all(got["tables"][pol]["flagged"][:].any() for pol in pols)


@pytest.mark.parametrize("case", sorted(CASES))
def test_library_phases_equal_their_columns_bitwise(tmp_path, case):
    # the library functions write 0.0, never -0.0, as the columns do: with
    # sigma = -1, with n_L == n_R and on clockwise paths W * 0 and -W are -0.0
    make, nl, nr, medium, k0, chamber, ordering = CASES[case]
    path = make(tmp_path)
    tables = compute_scenario(path, Scenario((1, -1), nl, nr, ordering, medium, k0, chamber))["tables"]
    angles = _angles(path)
    for pol in (1, -1):
        table = tables[pol]
        _assert_bitwise(analytic_noncyclic_phase(angles, pol), table["phase_analytic"][:], f"{pol} analytic")
        _assert_bitwise(fock.quantal_geometric_phase(nl, nr, angles), table["phase_quantal"][:], "quantal")
        _assert_bitwise(fock.vacuum_phase(-1, angles, ordering), table["phase_vacuum_L"][:], "vacuum L")
        _assert_bitwise(fock.vacuum_phase(+1, angles, ordering), table["phase_vacuum_R"][:], "vacuum R")


def test_result_tables_pair_every_csv_column():
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    result = compute_scenario(path, Scenario((1, -1), 0, 3, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None))
    first, derived = result["tables"][1], result["tables"][-1]
    # W is series 2 of the path's one ordered angle reader, whose series 0 and 1 are lambda and gamma
    w = first["phase_analytic"].rows
    reader = w.__self__
    assert isinstance(reader, geometry._AngleRows) and reader.path is path and w == reader.read
    assert [(first[name].rows, first[name].index) for name in ("lambda", "gamma", "phase_analytic")] == [
        (w, 0), (w, 1), (w, 2)]
    _assert_bitwise(w(0, path.n_samples)[2], _angles(path).solid_angle, "W")
    for pol, table in result["tables"].items():
        # every results.csv column after sigma, each a Column of n rows
        assert sorted(table) == sorted(RESULT_COLUMNS[1:])
        assert all(isinstance(column, Column) and column.length == path.n_samples for column in table.values())
        # the W-proportional columns all read the one W, and differ only in their weights
        assert {(table[name].rows, table[name].index) for name in W_WEIGHTS} == {(w, 2)}
        assert {name: table[name].weight for name in W_WEIGHTS} == {
            "phase_quantal": 3.0, "phase_vacuum_L": -0.5, "phase_vacuum_R": 0.5,
            "phase_vacuum_net": 0.5,  # the left mode is evanescent in GYROTROPIC
            "phase_analytic": float(pol),
        }
    for name in RESULT_COLUMNS[1:]:
        if name not in W_WEIGHTS:
            # the derived polarization reads the evolved one's series
            assert (derived[name].rows, derived[name].index) == (first[name].rows, first[name].index), name
            assert first[name].weight == 1.0
            assert derived[name].weight == (-1.0 if name in ("phase_total", "phase_dynamical", "phase_geometric") else 1.0)


def test_cached_series_are_shared_and_read_only():
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    angles = spherical_angles(path)
    traj = evolve(path, +1)
    # h is not cached: a new read-only array per call, bitwise the whole-array form
    h = hamiltonian_coefficients(path)
    _assert_bitwise(h, np.cross(path.k_hat, geometry.derivative_uniform(path.k_hat, path.dt)), "h")
    assert hamiltonian_coefficients(path) is not h
    helicity_expectations(traj, path)
    states = traj.states
    phase_decomposition(traj, path)
    assert traj.states is states
    for series in (h, angles.solid_angle, traj.states):
        with pytest.raises(ValueError, match="read-only"):
            series[1] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            series += 1.0
    # derived series are new, writable arrays
    assert analytic_noncyclic_phase(angles, -1).flags.writeable
    assert fock.vacuum_phase(+1, angles).flags.writeable
    # the path holds no h, or anything else derived, after a scenario
    compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None))
    assert not hasattr(path, "h")
    assert sorted(vars(path)) == ["_rows", "dt", "k_mag", "n_samples"]


@pytest.mark.parametrize("hold", [True, False], ids=["held", "streamed"])
def test_helix_rows_evaluated_six_times_per_scenario(monkeypatch, hold):
    # a helix's rows are evaluated on each read: the construction's check,
    # the scan, the final W, and in the reduction the angles, the residual
    # pair and the t column, each a pass over the n + 1 samples, plus 64
    # rows that windows overlap at 1e5 steps (6.00064 (n + 1) in all); one
    # more pass over the path would add another n + 1
    evaluated, original = [], geometry._HelixRows.__call__
    monkeypatch.setattr(geometry._HelixRows, "__call__",
                        lambda rows, lo, hi: evaluated.append(hi - lo) or original(rows, lo, hi))
    n_steps = 100_000
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None), hold)
    _reduce(_all_columns(result))
    assert sum(evaluated) <= 6 * (n_steps + 1) + 64, sum(evaluated) - 6 * (n_steps + 1)


def _sweep_peak(tmp_path, values, n_steps=50_000):
    cfg = {
        "path": {"type": "helix", "cone_angle": 0.7, "omega": 1.0, "k_mag": 1.0, "n_cycles": 1.0, "n_steps": n_steps},
        "polarizations": [1, -1],
        "sweep": {"parameter": "cone_angle", "values": values},
    }
    config = tmp_path / f"sweep{len(values)}_{n_steps}.json"
    config.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        run_sweep(str(config), str(tmp_path / f"out{len(values)}_{n_steps}"), quiet=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_result_holds_one_W_and_no_derived_columns():
    # 170 B/step when each multiple of W and the derived phases were held as arrays
    n_steps = 100_000
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    tracemalloc.start()
    try:
        result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / n_steps <= 120  # bytes per step
    assert len(result["tables"]) == 2


def test_compute_scenario_holds_only_what_its_outputs_read():
    # h freed inside evolve, the trajectory dropped before the angles and the
    # residual columns computed when read: 133 B/step peak and 105 held before
    n_steps = 100_000
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)  # built before tracing
    tracemalloc.start()
    try:
        result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_steps < 90, peak / n_steps  # bytes per step
    assert held / n_steps < 75, held / n_steps
    for index, name in enumerate(("invariant_residual", "motion_residual")):
        column = result["tables"][1][name]
        reader = column.rows.__self__
        assert isinstance(reader, evolution._ResidualRows) and reader.path is path and column.rows == reader.read
        assert (column.index, column.length) == (index, path.n_samples)


def test_stage_peaks_stay_near_the_held_result():
    # evolve builds each slab's h from k_hat, phase_geometric is computed on
    # read and the k_dot kernels go in quarter chunks; with a whole-array h,
    # a stored geometric series and full k_dot chunks these were 76, 76, 65
    # and 89 B/step
    n_steps = 100_000
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)  # built before tracing
    tracemalloc.start()
    try:
        traj = evolve(path, 1)
        evolved = tracemalloc.get_traced_memory()[1] / n_steps
        del traj
        tracemalloc.reset_peak()
        result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        held, peak = (value / n_steps for value in tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        _reduce(_all_columns(result))
        checked = tracemalloc.get_traced_memory()[1] / n_steps
    finally:
        tracemalloc.stop()
    assert evolved < 62, evolved  # bytes per step
    assert peak < 70, peak
    assert held < 60, held
    assert checked < 74, checked


def test_result_holds_only_the_five_trajectory_series():
    # evolve unwraps the overlap phase and integrates the energy in place, the
    # drifts and the angle columns are computed when read: 57 B/step held and
    # 64 peak when the result held the drifts, the angles and W
    n_steps = 100_000
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)  # built before tracing
    tracemalloc.start()
    try:
        result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        held, peak = (value / n_steps for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held <= 36, held  # bytes per step
    assert peak <= 52, peak
    assert len(result["tables"]) == 2


@pytest.mark.parametrize("pols", [(1, -1), (-1,)], ids=["R,L", "L"])
def test_each_pass_reads_the_angles_once_from_row_0(tmp_path, monkeypatch, pols):
    # the reduction reads one chunk of every column at a time, so the one
    # reader of lambda, gamma and W restarts once per pass and computes each
    # chunk once; the writer, which formats every table in one pass, too
    restarts, computed = [], []
    original_restart, original_turns = geometry._AngleRows._restart, geometry._Azimuth.__call__

    def restart(reader):
        restarts.append(reader)
        original_restart(reader)

    def turns(kernel, raw, off_pole):
        computed.append(len(raw))
        return original_turns(kernel, raw, off_pole)

    monkeypatch.setattr(geometry._AngleRows, "_restart", restart)
    monkeypatch.setattr(geometry._Azimuth, "__call__", turns)
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 300)
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 2000)
    result = compute_scenario(path, Scenario(pols, 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None))
    reader = result["tables"][pols[0]]["lambda"].rows.__self__
    assert restarts == [reader]  # one pass for the final W of the net vacuum phase
    for run, expected in ((lambda: _reduce(_all_columns(result)), 1),
                          (lambda: write_results_csv(str(tmp_path), result), 1)):
        restarts.clear()
        computed.clear()
        run()
        assert restarts == [reader] * expected
        assert sum(computed) == expected * path.n_samples  # every sample's angles once per pass


def test_sweep_point_arrays_are_freed_before_the_next_point(tmp_path):
    one = _sweep_peak(tmp_path, ["40 deg"])
    two = _sweep_peak(tmp_path, ["40 deg", "50 deg"])
    assert two <= 1.1 * one, (one, two)


def test_cone_point_holds_no_path_and_no_trajectory(tmp_path, monkeypatch):
    # the point reads the trajectory's five series (33 B/step) from the scan,
    # a tile at a time, in its one reduction, and the helix's rows from its
    # closed form, a window at a time: 61.4 B/step at 1e5 steps and a slope
    # of 33 while the path held its samples (32 B/step), 81.6 at 1e5 while
    # the point also held the series.  What grows with the path now is only
    # the scan's sqrt(n)-row slabs: 26.9 B/step at 1e5 steps, 14.1 at 2e5, a
    # slope of 1.3; the bounds leave about 10% and 3 B/step
    monkeypatch.setattr(evolution, "_TILE", 1 << 12)
    peaks = {n_steps: _sweep_peak(tmp_path, ["40 deg"], n_steps) / n_steps for n_steps in (100_000, 200_000)}
    assert peaks[100_000] < 30, peaks  # bytes per step
    slope = (peaks[200_000] * 200_000 - peaks[100_000] * 100_000) / 100_000
    assert slope < 4, (peaks, slope)


@pytest.mark.parametrize("source", ["helix", "file"])
def test_every_stage_reads_rows_of_the_path(tmp_path, monkeypatch, source):
    # a run and each sweep read the path only through FiberPath.rows, a
    # window at a time; times and k_hat whole are for callers of the API
    if source == "file":
        _wobble_file(tmp_path)
        path = {"type": "file", "filename": "wobble.txt"}
    else:
        path = {"type": "helix", "cone_angle": 1.0, "omega": -1.5, "k_mag": 1.0, "n_cycles": 2.5, "n_steps": 1500}
    configs = {"run": {"path": path, "medium": {"eps1": 2.0, "eps2": 3.0}, "chamber_length": 5.0},
               "occupations": {"path": path, "sweep": {"parameter": "occupations", "values": [[0, 1], [2, 0]]}}}
    if source == "helix":
        configs["cone_angle"] = {"path": path, "sweep": {"parameter": "cone_angle", "values": [0.3, "90 deg"]}}
        configs["n_steps"] = {"path": path, "sweep": {"parameter": "n_steps", "values": [600, 1500]}}
    for name in ("times", "k_hat"):
        monkeypatch.setattr(FiberPath, name, property(lambda self, name=name: pytest.fail(f"a stage read {name}")))
    for name, cfg in configs.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(cfg))
        command = run_scenario if name == "run" else run_sweep
        command(str(config), str(tmp_path / f"out_{name}"), quiet=True)


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
    derived = {name: column[:] for name, column in got["tables"][-first].items()}

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        traj = evolve(_fresh(path), -first)
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
    # the phases, drifts and flags are read from one reader of held, read-only series, shared by both polarizations
    reader = got["tables"][first]["phase_total"].rows.__self__
    assert isinstance(reader, evolution._TrajectoryRows) and reader.hold
    for index, name in enumerate(("phase_total", "flagged", "phase_dynamical", "phase_geometric", "norm_drift",
                                  "helicity_drift")):
        column = got["tables"][-first][name]
        assert (column.rows, column.index) == (got["tables"][first][name].rows, index), name
        assert column.rows.__self__ is reader, name
    assert not any(part.flags.writeable for part in reader.window)
    # and the geometric phase is read as total - dynamical of those series
    total, _, dynamical = reader.window[:3]
    assert reader.read(0, path.n_samples)[3].tobytes() == (total - dynamical).tobytes()


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
def test_one_propagation_per_scenario(tmp_path, monkeypatch, pols):
    # held, the trajectory is one scan in compute_scenario, which every pass
    # reads; streamed, it is one scan per pass: the reduction's, and the
    # writer's one for every table.  Neither stores the (n, 3) states, which would need
    # a scan of their own
    scans = _count_calls(monkeypatch, evolution._scan)

    def no_states(traj):
        raise AssertionError("compute_scenario materialised the (n, 3) states")

    monkeypatch.setattr(evolution.SpinorTrajectory, "states", property(no_states))
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 1024)
    for hold, per_pass in ((True, 0), (False, 1)):
        scans.clear()
        result = compute_scenario(path, Scenario(pols, 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None), hold)
        assert list(result["tables"]) == list(pols)
        assert len(scans) == int(hold)
        _reduce(_all_columns(result))
        assert len(scans) == int(hold) + per_pass
        write_results_csv(str(tmp_path), result)
        assert len(scans) == int(hold) + 2 * per_pass
        assert all(np.array_equal(start, evolution._start(path, pols[0])) for _, start, _ in scans)


# ------------------------------------------- residual columns computed when read

def _padded_whole_array_residuals(path, scale=1.0):
    """The invariant and motion residuals from whole-array numpy, the first padded to n: the oracle."""
    kh, rate = path.k_hat, geometry.k_dot(path)
    h = np.cross(kh, geometry.derivative_uniform(kh, path.dt))
    vec = (kh[2:] - kh[:-2]) / (2.0 * path.dt)
    vec += np.cross(kh[1:-1], scale * h[1:-1])
    inv = np.sqrt(2.0) * np.linalg.norm(vec, axis=1)
    return np.concatenate([[inv[0]], inv, [inv[-1]]]), np.abs(np.einsum("ni,ni->n", kh, rate))


@st.composite
def _residual_paths(draw):
    """Helices and smooth random walks on the sphere of 3 to 300 samples, and a ``_CHUNK_ROWS`` for them.

    The residual kernels go in quarter chunks of at least a row.  Paths of
    up to 40 samples take chunks of 1 to 9 rows, so one or two rows at a
    time; a longer path takes 1 to 9 chunks, the last one partial or longer
    than the path.
    """
    n = draw(st.integers(3, 300))
    chunk = draw(st.integers(1, 9) if n <= 40 else st.integers(n // 2, 4 * n + 8))
    k_mag = draw(st.sampled_from([1.0, 2.5]))
    t = 0.1 * np.arange(n)
    if draw(st.booleans()):
        cone, omega = draw(st.floats(0.0, np.pi)), draw(st.sampled_from([1.0, -2.0]))
        polar, azimuth = np.full(n, cone), omega * t
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        polar = 0.4 + np.cumsum(rng.uniform(-0.08, 0.08, n))
        azimuth = np.cumsum(rng.uniform(-0.05, 0.3, n))
    kh = np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)
    return FiberPath(times=t, k_hat=kh, k_mag=k_mag), chunk


@settings(max_examples=200, deadline=None)
@given(case=_residual_paths(), scale=st.sampled_from([1.0, 2.0]), data=st.data())
def test_residual_sources_match_padded_whole_array_forms(case, scale, data):
    path, chunk = case
    n = path.n_samples
    start = data.draw(st.integers(0, n), "start")
    stop = data.draw(st.integers(start, n), "stop")
    invariant, motion = _padded_whole_array_residuals(path)
    scaled = _padded_whole_array_residuals(path, scale)[0]
    columns = _residuals(path)  # both read one window of rows per read
    reader = columns["invariant_residual"].rows.__self__
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        # the reader's kernel on any row range: the drawn one, the whole column, single rows at both ends, none
        for lo, hi in ((start, stop), (0, n), (0, 1), (n - 1, n), (n, n)):
            for index, want in enumerate((invariant, motion)):
                _assert_bitwise(reader._next(lo, hi)[index], want[lo:hi], f"residual {index} [{lo}, {hi})")
            _assert_bitwise(evolution._invariant_residual_rows(path, lo, hi, scale), scaled[lo:hi],
                            f"scaled [{lo}, {hi})")
        # the columns, each read in turn, in order: three pieces split at the drawn rows, and an empty read at the end
        for rows in (slice(0, start), slice(start, stop), slice(stop, None), slice(n, n)):
            for name, want in (("invariant_residual", invariant), ("motion_residual", motion)):
                _assert_bitwise(columns[name][rows], want[rows], f"{name} {rows}")
        assert columns["invariant_residual"].length == n
        _assert_bitwise(invariant_residual_series(path, scale), scaled[1:-1], "invariant_residual_series")
        _assert_bitwise(geometry.motion_residual(path), motion, "motion_residual")


def test_residual_columns_read_the_path_once_per_quarter_chunk(monkeypatch):
    # the two residual columns, read in turn, share each window of rows: the
    # second column's read takes the arrays the first one's computed
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 10_000)
    columns = _residuals(path)
    reads, original = [], FiberPath.rows
    monkeypatch.setattr(FiberPath, "rows", lambda self, lo, hi: reads.append((lo, hi)) or original(self, lo, hi))
    invariant, motion = (columns[name][0:5000] for name in ("invariant_residual", "motion_residual"))
    assert reads == [(0, 4097), (4095, 5001)]  # quarter chunks of 4096 rows, one row on either side
    assert columns["motion_residual"].rows.__self__.rows == (0, 5000)
    _assert_bitwise(motion, geometry.motion_residual(path)[:5000], "motion")
    _assert_bitwise(invariant, evolution._invariant_residual_rows(path, 0, 5000), "invariant")


def test_reduce_reads_every_row_of_a_derived_column(monkeypatch):
    # one NaN in the last row of the last chunk of a column that is computed when read
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 100)
    result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 7)
    _reduce(_all_columns(result))

    def last_row_nan(path, start, stop):
        values = geometry._motion_residual_rows(path, start, stop)
        values[np.arange(start, stop) == path.n_samples - 1] = np.nan
        return (values,)

    result["tables"][-1]["motion_residual"] = Column(partial(last_row_nan, path), path.n_samples)
    with pytest.raises(NumericalError):
        _reduce(_all_columns(result))


@pytest.mark.parametrize("chunk", [7, 1 << 14])
def test_reduce_matches_whole_array_reductions(monkeypatch, chunk):
    # on a flagged equator, so the flag counts are not all zero
    path = helix_path(np.pi / 2, 1.0, 1.0, 2.0, 2000)
    result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk)
    last, peak, nonzero = _reduce(_all_columns(result))
    assert list(last) == list(peak) == list(nonzero) == list(dict.fromkeys(_all_columns(result)))
    assert nonzero[result["tables"][1]["flagged"]] > 0
    for column in last:
        whole = column.rows(0, column.length)[column.index] * column.weight + 0.0
        assert (last[column], peak[column], nonzero[column]) == (whole[-1], whole.max(), np.count_nonzero(whole))


def test_reduce_reads_each_distinct_column_once(monkeypatch):
    reads = []

    def counted(values, start, stop):
        reads.append((start, stop))
        return (values[start:stop],)

    rows = partial(counted, np.arange(10.0) - 3.0)
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 16)  # the reduction reads quarter chunks, of 4 rows
    last, peak, nonzero = _reduce([Column(rows, 10), Column(rows, 10, 0, -1.0), Column(rows, 10)])
    assert sorted(reads) == [(0, 4), (0, 4), (4, 8), (4, 8), (8, 10), (8, 10)]
    assert [list(values.values()) for values in (last, peak, nonzero)] == [[6.0, -6.0], [6.0, 3.0], [9, 9]]
