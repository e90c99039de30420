"""compute_scenario computes each per-path series once and frees what it no longer reads.

The oracle runs the stage functions on a fresh, never-cached copy of the
path for every call, so a stale or shared cached series would show up as a
bitwise difference.  The transport's stage is one pass of the closed form's
kernels, ``evolution._fan`` and ``evolution._unwrapped``; the tests below
compare it with ``evolve``, and test_transport_properties with the
whole-array closed form.
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

import fiberphase.scenario as scenario_module
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
    NumericalError,
    Scenario,
    _reduce,
    _values,
    compute_scenario,
    run_scenario,
    run_sweep,
    summarize,
    write_results_csv,
)

GYROTROPIC = media.GyrotropicMedium(eps1=2.0, eps2=3.0, mu1=2.0, mu2=1.0)  # left mode evanescent


def _fresh(path):
    return FiberPath(times=path.times.copy(), k_hat=path.k_hat.copy(), k_mag=path.k_mag)


def _all_columns(result):
    return list(result["columns"].values())


def _reduce_all(result):
    """The reduction of every column of the result, in one pass."""
    return _reduce(result["series"](), _all_columns(result))


def _write(out_dir, result, path, scenario):
    """A run's one pass: every file written to ``out_dir`` (made if missing), and the summary."""
    out_dir.mkdir(exist_ok=True)
    return write_results_csv(str(out_dir), result, partial(summarize, result, path, scenario))


def _read(result, column):
    """Every row of a column (key, weight) of the result, from one pass."""
    return np.concatenate([_values(series, column) for series in result["series"]()])


def _closed_form(path, pol):
    """The transport's total and flags in closed form, from one pass of its two kernels."""
    pieces = list(evolution._unwrapped(evolution._fan(geometry._windows(path), pol)))
    return tuple(np.concatenate([piece[i] for piece in pieces]) for i in range(2))


def _angles(path):
    return spherical_angles(_fresh(path))


def _oracle(path, pols, n_left, n_right, medium, k0, chamber, ordering):
    """compute_scenario's columns, by results.csv header name, from the stage functions, each on a fresh path copy, plus 0.0.

    Only the first polarization's transport is read; the other is its
    conjugate, with the geometric phase negated (as 0.0 - x) and the flags
    unchanged.  Every column gets + 0.0, which only turns -0.0 into 0.0.
    """
    first = pols[0]
    total, flagged = _closed_form(_fresh(path), first)
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
    columns = {"t": _fresh(path).times, "lambda": angles.polar, "gamma": angles.azimuth}
    for pol in pols:
        sign, suffix = (lambda x: x) if pol == first else (lambda x: 0.0 - x), "R" if pol == 1 else "L"
        columns |= {
            f"phase_geometric_{suffix}": sign(total),
            f"phase_analytic_{suffix}": analytic_noncyclic_phase(_angles(path), pol),
        }
    columns |= {
        "phase_quantal": fock.quantal_geometric_phase(n_left, n_right, _angles(path)),
        "phase_vacuum_L": vac_left,
        "phase_vacuum_R": vac_right,
        "phase_vacuum_net": net_series,
        "invariant_residual": np.concatenate([[inv[0]], inv, [inv[-1]]]),
        "flagged": flagged,
    }
    return {"columns": {name: values + 0.0 for name, values in columns.items()},
            "survives": (net.plus_survives, net.minus_survives)}


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


@pytest.mark.parametrize("pols", [[1, -1], [-1, 1]], ids=["R,L", "L,R"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_compute_scenario_matches_stage_functions_bitwise(tmp_path, case, pols):
    make, nl, nr, medium, k0, chamber, ordering = CASES[case]
    path = make(tmp_path)
    got = compute_scenario(path, Scenario(tuple(pols), nl, nr, ordering, medium, k0, chamber))
    want = _oracle(path, pols, nl, nr, medium, k0, chamber, ordering)

    columns = got["columns"]
    assert list(columns) == list(want["columns"])  # the results.csv header, in order
    for name, values in want["columns"].items():
        _assert_bitwise(_read(got, columns[name]), values, name)
    assert got["survives"] == want["survives"]
    # the net vacuum phase is the last row of its column, bitwise the library's from the final W
    net = media.net_vacuum_phase(medium or FREE_SPACE, k0, _angles(path), chamber, ordering)
    summary = summarize(got, path, Scenario(tuple(pols), nl, nr, ordering, medium, k0, chamber))
    _assert_bitwise(summary["vacuum"]["net_final"], net.phase, "net_final")
    assert (summary["vacuum"]["plus_survives"], summary["vacuum"]["minus_survives"]) == got["survives"]
    if case == "equator-flagged":
        assert _read(got, columns["flagged"]).any()
    # against an oracle independent of the closed form, evolve's transport
    # under H of each polarization, outside 20 rows of a flagged sample (at
    # most 1.8e-14 measured), whose total is the geometric phase: evolve
    # measures what each chord step conserves, and no column writes it
    for pol in pols:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
            traj = evolve(_fresh(path), pol)
        clear = np.ones(path.n_samples, dtype=bool)
        for row in np.flatnonzero(traj.flagged):
            clear[max(row - 20, 0) : row + 21] = False
        geometric = _read(got, columns[f"phase_geometric_{'R' if pol == 1 else 'L'}"])
        assert np.abs(geometric - traj.total)[clear].max() <= 1e-13, pol
        for name, drift in (("dynamical", traj.dynamical), ("norm", traj.norms - 1.0),
                            ("helicity", traj.helicity + pol)):
            assert np.abs(drift).max() <= 1e-12, (pol, name)


@pytest.mark.parametrize("case", sorted(CASES))
def test_library_phases_equal_their_columns_bitwise(tmp_path, case):
    # the library functions write 0.0, never -0.0, as the columns do: with
    # sigma = -1, with n_L == n_R and on clockwise paths W * 0 and -W are -0.0
    make, nl, nr, medium, k0, chamber, ordering = CASES[case]
    path = make(tmp_path)
    result = compute_scenario(path, Scenario((1, -1), nl, nr, ordering, medium, k0, chamber))
    angles = _angles(path)
    columns = result["columns"]
    for pol, suffix in ((1, "R"), (-1, "L")):
        _assert_bitwise(analytic_noncyclic_phase(angles, pol), _read(result, columns[f"phase_analytic_{suffix}"]), suffix)
    _assert_bitwise(fock.quantal_geometric_phase(nl, nr, angles), _read(result, columns["phase_quantal"]), "quantal")
    _assert_bitwise(fock.vacuum_phase(-1, angles, ordering), _read(result, columns["phase_vacuum_L"]), "vacuum L")
    _assert_bitwise(fock.vacuum_phase(+1, angles, ordering), _read(result, columns["phase_vacuum_R"]), "vacuum R")


def test_result_columns_pair_every_csv_column():
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    result = compute_scenario(path, Scenario((1, -1), 0, 3, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None))
    columns = result["columns"]
    # lambda, gamma and W are the three series of the pass's angle kernel; one pass starts from the path
    assert [columns[name] for name in ("lambda", "gamma", "phase_analytic_R")] == [
        ("lambda", 1.0), ("gamma", 1.0), ("W", 1.0)]
    assert result["series"].args == (path, 1)
    _assert_bitwise(_read(result, ("W", 1.0)), _angles(path).solid_angle, "W")
    # every results column, each a (series key, weight) of n rows
    assert all(isinstance(column, tuple) and len(_read(result, column)) == path.n_samples
               for column in columns.values())
    # the W-proportional columns all read the one W, and differ only in their weights
    assert {name: weight for name, (key, weight) in columns.items() if key == "W"} == {
        "phase_analytic_R": 1.0, "phase_analytic_L": -1.0, "phase_quantal": 3.0,
        "phase_vacuum_L": -0.5, "phase_vacuum_R": 0.5,
        "phase_vacuum_net": 0.5,  # the left mode is evanescent in GYROTROPIC
    }
    # the derived polarization reads the evolved one's transport, its geometric phase with weight -1
    assert columns["phase_geometric_L"] == (columns["phase_geometric_R"][0], -1.0)
    assert all(weight == 1.0 for name, (key, weight) in columns.items() if key != "W" and name != "phase_geometric_L")


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


def test_helix_rows_evaluated_twice_per_scenario(monkeypatch):
    # a helix's rows are evaluated on each read: the construction's check
    # and the reduction's one pass, whose kernels share each window of rows,
    # each over the n + 1 samples, plus 72 rows that windows overlap at 1e5
    # steps (6.00064 (n + 1) in all while the scan, the angles, the
    # residuals, the t column and the final W each read the rows); one more pass
    # over the path would add another n + 1
    evaluated, original = [], geometry._HelixRows.__call__
    monkeypatch.setattr(geometry._HelixRows, "__call__",
                        lambda rows, lo, hi: evaluated.append(hi - lo) or original(rows, lo, hi))
    n_steps = 100_000
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None))
    _reduce_all(result)
    assert sum(evaluated) <= 2 * (n_steps + 1) + 80, sum(evaluated) - 2 * (n_steps + 1)


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
    assert len(result["columns"]) == 13  # both polarizations' columns


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
    assert result["columns"]["invariant_residual"] == ("invariant_residual", 1.0)  # a series of the pass
    assert "motion_residual" not in result["columns"]


def test_stage_peaks_stay_near_the_held_result():
    # evolve holds k_hat and its five series (57 B/step) and builds each
    # column's h from k_hat, phase_geometric is computed on read and the
    # k_dot kernels go in chunks; with a whole-array h, a stored
    # geometric series and full k_dot chunks these were 76, 76, 65 and 89
    # B/step.  Now 59.1, 0.1, 0.1 and 10.9: the reduction's pass reads the
    # transport in closed form, one chunk for all its kernels, against 12.3
    # while the transport's hold copied the angles into its own window, 15.9
    # B/step while each column read its own rows, 27.5 while it ran the
    # tiled scan, 29.1 while the scan handed its slabs over as reshaped
    # copies and 40.5 while the result held the trajectory's five series
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
        _reduce_all(result)
        checked = tracemalloc.get_traced_memory()[1] / n_steps
    finally:
        tracemalloc.stop()
    assert evolved < 62, evolved  # bytes per step
    assert peak < 70, peak
    assert held < 60, held
    assert checked < 36, checked


def test_result_holds_no_per_step_series():
    # the trajectory's and the angle columns are computed when read, and
    # compute_scenario reads no rows: 0.01 B/step held and 0.02 peak, so one
    # pass, of about 13 B/step, would break the bound (0.08 and 0.08 while
    # it set up a reader per series, 0.58
    # and 14.9 while it made a pass of the angle reader for the final W;
    # 33.6 and 51.4 while the result held the trajectory's five series, 57
    # and 64 while it also held the drifts, the angles and W)
    n_steps = 100_000
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)  # built before tracing
    tracemalloc.start()
    try:
        result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
        held, peak = (value / n_steps for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held <= 1, held  # bytes per step
    assert peak <= 1, peak
    assert len(result["columns"]) == 13  # both polarizations' columns


def _count_passes(monkeypatch):
    """Record each pass: the windows of rows it reads, and the rows of the azimuths it unwraps.

    A pass calls ``geometry._windows`` once, and states are never
    transported (``evolution._chord_columns``) or materialised.
    """
    passes, unwrapped = [], []
    windows, turns = geometry._windows, geometry._Azimuth.__call__

    def no_states(traj):
        raise AssertionError("a pass materialised the (n, 3) states")

    monkeypatch.setattr(geometry, "_windows", lambda path: passes.append(path) or windows(path))
    monkeypatch.setattr(geometry._Azimuth, "__call__",
                        lambda kernel, raw, off_pole: unwrapped.append(len(raw)) or turns(kernel, raw, off_pole))
    monkeypatch.setattr(evolution, "_chord_columns", lambda *args: pytest.fail("a pass transported a state"))
    monkeypatch.setattr(evolution.SpinorTrajectory, "states", property(no_states))
    return passes, unwrapped


@pytest.mark.parametrize("pols", [(1, -1), (-1,)], ids=["R,L", "L"])
def test_each_pass_reads_the_angles_once_from_row_0(tmp_path, monkeypatch, pols):
    # compute_scenario makes no pass (the net vacuum phase is its column's
    # last row); a cone sweep point's reduction and a run's writer, which
    # formats and reduces every column, are one pass each, which computes
    # every sample's angles once
    passes, unwrapped = _count_passes(monkeypatch)
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 300)
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 2000)
    scenario = Scenario(pols, 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None)
    result = compute_scenario(path, scenario)
    assert passes == [] and unwrapped == []
    for run in (lambda: _reduce_all(result), lambda: _write(tmp_path, result, path, scenario)):
        passes.clear()
        unwrapped.clear()
        run()
        assert passes == [path]
        assert sum(unwrapped) == path.n_samples  # every sample's angles once per pass


def test_the_passes_transport_no_state(tmp_path, monkeypatch):
    # a run's columns read the transport in closed form, from the swept
    # areas: no pass carries a state along the path, as evolve does
    def refuse(k_hat, start):
        raise AssertionError("a state transported on a run path")

    monkeypatch.setattr(evolution, "_chord_columns", refuse)
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    scenario = Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None)
    result = compute_scenario(path, scenario)
    assert np.isfinite(summarize(result, path, scenario)["phases"]["-1"]["geometric"])
    assert np.isfinite(_write(tmp_path, result, path, scenario)["phases"]["-1"]["geometric"])
    with pytest.raises(AssertionError, match="transported"):
        evolve(path, 1)
    assert not hasattr(evolution, "_scan")


def test_sweep_point_arrays_are_freed_before_the_next_point(tmp_path):
    one = _sweep_peak(tmp_path, ["40 deg"])
    two = _sweep_peak(tmp_path, ["40 deg", "50 deg"])
    assert two <= 1.1 * one, (one, two)


def test_cone_point_holds_no_path_and_no_trajectory(tmp_path, monkeypatch):
    # the point reads the trajectory's series in closed form, a chunk at a
    # time, in its one reduction, and the helix's rows from its closed form,
    # a window at a time: 61.4 B/step at 1e5 steps and a slope of 33 while
    # the path held its samples (32 B/step), 81.6 at 1e5 while the point also
    # held the series.  Nothing grows with the path now: 10.9 B/step at 1e5
    # steps, 5.4 at 2e5, a slope of 0.0 (12.3 and 6.1 while the transport's
    # hold copied the angles into its own window, 17.1 and 8.5 while each
    # column read its own rows; 26.9, 14.1 and 1.3 while the scan's
    # sqrt(n)-row slabs did, in tiles of 2^12 steps)
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
    columns = got["columns"]
    evolved, suffix = ("R", "L") if first == 1 else ("L", "R")  # of the first polarization and of the derived one
    flagged, geometric = (_read(got, columns[name]) for name in ("flagged", f"phase_geometric_{suffix}"))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", evolution.OrthogonalPassageWarning)
        traj = evolve(_fresh(path), -first)
    dec = phase_decomposition(traj, _fresh(path))
    hel = helicity_expectations(traj, _fresh(path))
    assert np.array_equal(flagged, dec.flagged)
    if case == "equator-flagged":
        assert dec.flagged.any()
    # phases are only trustworthy away from the orthogonal passage; the
    # column is evolve's geometric phase and its total alike: evolve's own
    # dynamical phase stays at rounding, as do its norm and helicity drifts
    clear = np.abs(traj.states @ traj.states[0].conj()) > 1e-3
    for kind in ("total", "geometric"):
        assert np.abs(geometric - getattr(dec, kind))[clear].max() <= 1e-12, kind
    for name, drift in (("dynamical", dec.dynamical), ("norms", traj.norms - 1.0),
                        ("states", np.linalg.norm(traj.states, axis=1) - 1.0), ("helicity", hel - hel[0])):
        assert np.abs(drift).max() <= 1e-12, name
    # the phase and flags read the series of one pass's transport, the first polarization's
    assert got["series"].args == (path, first)
    assert columns[f"phase_geometric_{suffix}"] == (columns[f"phase_geometric_{evolved}"][0], -1.0)


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
    # a run is one pass (_series) with one closed-form transport (_fan) of
    # the first polarization: the writer formats and reduces every column
    # from it, so summary.json needs no pass of its own.  No pass
    # transports or stores the (n, 3) states
    passes, _ = _count_passes(monkeypatch)
    fans, fan = [], evolution._fan
    monkeypatch.setattr(evolution, "_fan", lambda windows, pol: fans.append(pol) or fan(windows, pol))
    series, pass_of = [], scenario_module._series
    monkeypatch.setattr(scenario_module, "_series", lambda path, pol: series.append(pol) or pass_of(path, pol))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "path": {"type": "helix", "cone_angle": 1.0, "omega": 1.0, "k_mag": 1.0, "n_cycles": 1.0, "n_steps": 1024},
        "polarizations": list(pols),
        "occupations": {"n_left": 0, "n_right": 1},
        "medium": {"eps1": 2.0, "eps2": 3.0, "mu1": 2.0, "mu2": 1.0},
    }))
    summary = run_scenario(str(config), str(tmp_path / "out"), quiet=True)
    assert len(passes) == 1 and series == fans == [pols[0]]
    assert list(summary["phases"]) == [f"{pol:+d}" for pol in pols]


@pytest.mark.parametrize("pols", [(1, -1), (-1, 1), (-1,)], ids=["R,L", "L,R", "L"])
@pytest.mark.parametrize("case", sorted(DERIVED_CASES))
def test_writer_summary_is_the_reductions(tmp_path, monkeypatch, case, pols):
    # the reduction in the writer's pass gives summary.json's text bitwise
    # as summarize's own pass does, -0.0 included; the equator flags
    # samples, the clockwise helix makes W < 0, and normal ordering and
    # n_R = n_L weight W by 0
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 700)
    path = DERIVED_CASES[case](tmp_path)
    for ordering, (nl, nr) in ((Ordering.SYMMETRIC, (0, 1)), (Ordering.NORMAL, (2, 2))):
        scenario = Scenario(pols, nl, nr, ordering, GYROTROPIC, 1.0, 10.0)
        result = compute_scenario(path, scenario)
        want = json.dumps({**summarize(result, path, scenario), "command": "run"}, sort_keys=True)
        assert json.dumps(_write(tmp_path / f"out_{ordering.value}", result, path, scenario), sort_keys=True) == want
        with open(tmp_path / f"out_{ordering.value}" / "summary.json") as fh:
            assert json.dumps(json.load(fh), sort_keys=True) == want


def test_each_pass_reads_a_helix_once_per_chunk(tmp_path, monkeypatch):
    # a pass hands each chunk's window of rows to all its kernels, so it
    # evaluates a helix's rows ceil(n / chunk) times (the summary reads the
    # first and last times too); while each column read its own rows, a pass
    # made about 3 reads per 256-row slice of the writer
    evaluated, original = [], geometry._HelixRows.__call__
    monkeypatch.setattr(geometry._HelixRows, "__call__",
                        lambda rows, lo, hi: evaluated.append((lo, hi)) or original(rows, lo, hi))
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 256)
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 5000)
    scenario = Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, GYROTROPIC, 1.0, None)
    result = compute_scenario(path, scenario)
    bound = -(-path.n_samples // 256) + 2
    for run in (lambda: summarize(result, path, scenario), lambda: _write(tmp_path, result, path, scenario)):
        evaluated.clear()
        run()
        assert len(evaluated) <= bound, (len(evaluated), bound)


# ------------------------------------------- residual columns computed when read

def _padded_whole_array_residuals(path, scale=1.0):
    """The invariant and motion residuals from whole-array numpy, the first padded to n: the oracle."""
    kh, rate = path.k_hat, geometry.k_dot(path)
    h = np.cross(kh, geometry.derivative_uniform(kh, path.dt))
    vec = (kh[2:] - kh[:-2]) / (2.0 * path.dt)
    vec += np.cross(kh[1:-1], scale * h[1:-1])
    inv = np.sqrt(2.0) * np.linalg.norm(vec, axis=1)
    return np.concatenate([[inv[0]], inv, [inv[-1]]]), np.abs(np.einsum("ni,ni->n", kh, rate))


def _residuals(path, window, scale=1.0):
    """The invariant and motion residuals of a window's rows, from their two kernels."""
    return geometry._invariant_residual(path, window, scale), geometry._motion_residual(path, window)


@st.composite
def _residual_paths(draw):
    """Helices and smooth random walks on the sphere of 3 to 300 samples, and a ``_CHUNK_ROWS`` for them.

    Paths of up to 40 samples take chunks of 1 to 9 rows; a longer path
    takes 1 to 9 chunks, the last one partial or longer than the path.
    """
    n = draw(st.integers(3, 300))
    chunk = draw(st.integers(1, 9) if n <= 40 else st.integers(n // 8, n + 2))
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
    start = data.draw(st.integers(0, n - 1), "start")
    stop = data.draw(st.integers(start + 1, n), "stop")
    invariant, motion = _padded_whole_array_residuals(path)
    scaled = _padded_whole_array_residuals(path, scale)[0]

    def kernel(lo, hi, scale=1.0):  # the two kernels on the window of rows [lo, hi)
        first, last = geometry._path_window(path, lo, hi)
        t, k_hat = path.rows(first, last)
        return _residuals(path, (slice(lo, hi), t[lo - first : hi - first], k_hat, first), scale)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        # the kernel on any rows: the drawn ones, the whole column, single rows at both ends
        for lo, hi in ((start, stop), (0, n), (0, 1), (n - 1, n)):
            for index, want in enumerate((invariant, motion)):
                _assert_bitwise(kernel(lo, hi)[index], want[lo:hi], f"residual {index} [{lo}, {hi})")
            _assert_bitwise(kernel(lo, hi, scale)[0], scaled[lo:hi], f"scaled [{lo}, {hi})")
        # one pass's chunks, joined
        chunks = [_residuals(path, window) for window in geometry._windows(path)]
        for index, want in enumerate((invariant, motion)):
            _assert_bitwise(np.concatenate([pair[index] for pair in chunks]), want, f"pass {index}")
        _assert_bitwise(invariant_residual_series(path, scale), scaled[1:-1], "invariant_residual_series")
        _assert_bitwise(geometry.motion_residual(path), motion, "motion_residual")


def test_residual_columns_read_the_path_once_per_chunk(monkeypatch):
    # the pass reads each chunk's window of rows once, one row on either
    # side of it, for the invariant residual and every other kernel; it
    # computes no motion residual, which no column reads
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 10_000)
    result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
    reads, original = [], FiberPath.rows
    monkeypatch.setattr(FiberPath, "rows", lambda self, lo, hi: reads.append((lo, hi)) or original(self, lo, hi))
    chunks = list(result["series"]())
    assert reads == [(0, 4097), (4095, 8193), (8191, 10_001)]  # chunks of 4096 rows
    monkeypatch.setattr(FiberPath, "rows", original)
    want = _padded_whole_array_residuals(path)[0]
    _assert_bitwise(np.concatenate([series["invariant_residual"] for series in chunks]), want, "invariant_residual")
    assert not any("motion_residual" in series for series in chunks)


def test_reduce_reads_every_row_of_a_derived_column(monkeypatch):
    # one NaN in the last row of the last chunk of a column that is computed when read
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 100)
    result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 7)
    _reduce_all(result)

    def last_row_nan(chunks):
        rows = 0
        for series in chunks:
            rows += len(series["t"])
            if rows == path.n_samples:
                series["invariant_residual"][-1] = np.nan
            yield series

    with pytest.raises(NumericalError):
        _reduce(last_row_nan(result["series"]()), _all_columns(result))


@pytest.mark.parametrize("chunk", [7, 1 << 14])
def test_reduce_matches_whole_array_reductions(monkeypatch, chunk):
    # on a flagged equator, so the flag counts are not all zero
    path = helix_path(np.pi / 2, 1.0, 1.0, 2.0, 2000)
    result = compute_scenario(path, Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None))
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 1 << 20)  # one chunk: the whole arrays
    whole = {column: _read(result, column) for column in _all_columns(result)}
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk)
    last, peak, nonzero = _reduce_all(result)
    assert list(last) == list(peak) == list(nonzero) == list(whole)
    assert nonzero[result["columns"]["flagged"]] > 0
    for column, values in whole.items():
        assert (last[column], peak[column], nonzero[column]) == (values[-1], values.max(), np.count_nonzero(values))


def _held_antipode():
    """An equator walk in steps of pi / 16 that stays at the start's antipode for three samples: rows 16, 17 and 18."""
    phi = np.concatenate([np.arange(17), [16, 16], np.arange(17, 40)]) * (np.pi / 16)
    return FiberPath(times=np.arange(len(phi), dtype=float),
                     k_hat=np.stack([np.cos(phi), np.sin(phi), 0.0 * phi], axis=1), k_mag=1.0)


PASS_PATHS = {
    "equator": lambda: helix_path(np.pi / 2, 1.0, 1.0, 2.0, 300),  # samples 75 and 225 flagged
    "held-antipode": _held_antipode,
}


@pytest.mark.parametrize("chunk", [1, 2, 7, 300])
@pytest.mark.parametrize("case", sorted(PASS_PATHS))
def test_pass_chunks_join_to_the_one_chunk_pass(monkeypatch, case, chunk):
    # every series of the pass, joined over its chunks, is bit for bit the
    # pass of one chunk, also where a flagged run is held across chunks (at
    # chunk 1, the held antipode's run spans three)
    path = PASS_PATHS[case]()
    for pol in (1, -1):
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", 1 << 20)
        (whole,) = scenario_module._series(path, pol)
        monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk)
        chunks = list(scenario_module._series(path, pol))
        slices = geometry._row_slices(0, path.n_samples)
        assert [len(series["t"]) for series in chunks] == [rows.stop - rows.start for rows in slices]
        for key, values in whole.items():
            joined = np.concatenate([series[key] for series in chunks])
            assert joined.dtype == values.dtype and joined.tobytes() == values.tobytes(), (pol, key)
        want = [75, 225] if case == "equator" else [16, 17, 18]
        assert np.flatnonzero(whole["flagged"]).tolist() == want


def test_reduce_reads_each_distinct_column_once():
    reads = []

    class Counted(dict):
        def __getitem__(self, key):
            reads.append(key)
            return super().__getitem__(key)

    values = np.arange(10.0) - 3.0
    chunks = [Counted(x=values[rows]) for rows in (slice(0, 4), slice(4, 8), slice(8, 10))]
    last, peak, nonzero = _reduce(chunks, [("x", 1.0), ("x", -1.0), ("x", 1.0)])
    assert reads == ["x"] * 6  # two distinct columns, once per chunk each
    assert [list(values.values()) for values in (last, peak, nonzero)] == [[6.0, -6.0], [6.0, 3.0], [9, 9]]
