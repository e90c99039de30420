import errno
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberphase.cli import main

SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def helix_cfg(out_dir, **overrides):
    cfg = {
        "path": {
            "type": "helix",
            "cone_angle": np.pi / 3,
            "omega": 1.0,
            "k_mag": 1.0,
            "n_cycles": 1.0,
            "n_steps": 2048,
        },
        "polarizations": [1, -1],
        "occupations": {"n_left": 0, "n_right": 1},
        "ordering": "symmetric",
        "k0": 1.0,
        "output_dir": out_dir,
    }
    cfg.update(overrides)
    return cfg


# The top-level fields that a sweep over each parameter never reads, and so rejects.
UNREAD_BY_SWEEP = {
    "cone_angle": (),
    "n_steps": ("polarizations", "occupations", "ordering", "medium", "k0", "chamber_length"),
    "occupations": ("occupations", "polarizations", "medium", "k0", "chamber_length"),
}


def sweep_cfg(cfg, parameter, values):
    """``cfg`` with a sweep section and without the fields that this sweep never reads."""
    out = {key: value for key, value in cfg.items() if key not in UNREAD_BY_SWEEP[parameter]}
    out["sweep"] = {"parameter": parameter, "values": values}
    return out


def results_header(pols):
    """results.csv's header: the two per-polarization phase columns once per polarization, in order, then the rest."""
    polarized = [f"phase_{kind}_{'R' if pol == 1 else 'L'}" for pol in pols for kind in ("geometric", "analytic")]
    return ["t", "lambda", "gamma", *polarized, "phase_quantal", "phase_vacuum_L", "phase_vacuum_R", "phase_vacuum_net",
            "invariant_residual", "flagged"]


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


# ------------------------------------------------------------------------ run

def test_run_helix_scenario(tmp_path):
    out = str(tmp_path / "out")
    config = write_config(tmp_path, "helix.json", helix_cfg(out))
    assert main(["run", config, "--quiet"]) == 0
    summary = read_summary(out)
    assert abs(summary["phases"]["+1"]["geometric"] - np.pi) < 1e-3
    assert abs(summary["phases"]["-1"]["geometric"] + np.pi) < 1e-3
    assert summary["vacuum"]["net_final"] == 0.0  # free space: exact cancellation
    assert abs(summary["quantal_final"] - np.pi) < 1e-6
    assert sorted(os.listdir(out)) == sorted(_RUN_FILES)


def test_run_results_csv_schema(tmp_path):
    out = str(tmp_path / "out")
    config = write_config(tmp_path, "helix.json", helix_cfg(out, path={
        "type": "helix", "cone_angle": np.pi / 3, "omega": 1.0, "k_mag": 1.0,
        "n_cycles": 1.0, "n_steps": 128,
    }))
    assert main(["run", config, "--quiet"]) == 0
    with open(os.path.join(out, "results.csv")) as fh:
        header = fh.readline().strip().split(",")
        first = fh.readline().strip().split(",")
    assert header == [
        "t", "lambda", "gamma",
        "phase_geometric_R", "phase_analytic_R",
        "phase_geometric_L", "phase_analytic_L",
        "phase_quantal", "phase_vacuum_L", "phase_vacuum_R", "phase_vacuum_net",
        "invariant_residual", "flagged",
    ]
    assert header == results_header((1, -1))
    assert len(first) == len(header)
    # one row per sample, both polarizations side by side: 129 samples + header
    with open(os.path.join(out, "results.csv")) as fh:
        assert len(fh.readlines()) == 1 + 129


def test_run_summary_holds_only_computed_fields(tmp_path):
    # schema 2: each polarization's geometric and analytic phases and flag
    # count, and the invariant residual; what each transport step conserves
    # is measured by evolve and `fiberphase check`, not written
    out = str(tmp_path / "out")
    cfg = helix_cfg(out)
    cfg["path"]["n_steps"] = 128
    assert main(["run", write_config(tmp_path, "helix.json", cfg), "--quiet"]) == 0
    summary = read_summary(out)
    assert summary["schema_version"] == 2
    for key in ("+1", "-1"):
        assert sorted(summary["phases"][key]) == ["analytic", "flagged_samples", "geometric"]
    assert list(summary["diagnostics"]) == ["max_invariant_residual"]
    assert 0.0 < summary["diagnostics"]["max_invariant_residual"] < 1e-3


def test_run_gyrotropic_scenario(tmp_path):
    out = str(tmp_path / "out")
    cfg = helix_cfg(out, medium={"eps1": 2.0, "eps2": 3.0, "mu1": 2.0, "mu2": 1.0})
    cfg["path"]["n_steps"] = 512
    config = write_config(tmp_path, "gyro.json", cfg)
    assert main(["run", config, "--quiet"]) == 0
    summary = read_summary(out)
    assert summary["medium"]["n2_plus"] == 15.0
    assert summary["medium"]["n2_minus"] == -1.0
    assert not summary["medium"]["minus_propagates"]
    assert summary["medium"]["k_minus"] is None
    assert abs(summary["vacuum"]["net_final"] - np.pi / 2) < 1e-12


def test_normal_ordering_deletes_the_vacuum_columns(tmp_path):
    # the zero-point weight is 1/2 under symmetric and 0 under normal ordering;
    # the medium suppresses the left mode, so the net vacuum phase moves too
    gyro = {"eps1": 2.0, "eps2": 3.0, "mu1": 2.0, "mu2": 1.0}
    tables, summaries = {}, {}
    for ordering in ("symmetric", "normal"):
        out = tmp_path / ordering
        cfg = helix_cfg(str(out), ordering=ordering, medium=gyro)
        cfg["path"]["n_steps"] = 512
        assert main(["run", write_config(tmp_path, f"{ordering}.json", cfg), "--quiet"]) == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == ",".join(results_header((1, -1)))
        tables[ordering] = [line.split(",") for line in lines[1:]]
        summaries[ordering] = read_summary(str(out))

    vacuum = {"phase_vacuum_L", "phase_vacuum_R", "phase_vacuum_net"}
    changed = set()
    for sym_row, norm_row in zip(tables["symmetric"], tables["normal"], strict=True):
        for name, sym, norm in zip(results_header((1, -1)), sym_row, norm_row, strict=True):
            if name in vacuum:
                assert norm == "0.0", (name, norm)
            if sym != norm:
                changed.add(name)
    assert changed == vacuum

    sym, norm = summaries["symmetric"], summaries["normal"]
    assert abs(sym["vacuum"]["net_final"] - np.pi / 2) < 1e-12
    assert norm["vacuum"]["left_final"] == norm["vacuum"]["right_final"] == norm["vacuum"]["net_final"] == 0.0
    assert norm["ordering"] == "normal"
    for summary in (sym, norm):
        del summary["vacuum"]["left_final"], summary["vacuum"]["right_final"], summary["vacuum"]["net_final"]
        del summary["ordering"]
    assert sym == norm


def test_run_deterministic_outputs(tmp_path):
    config = write_config(tmp_path, "helix.json", helix_cfg(str(tmp_path / "a")))
    assert main(["run", config, "--quiet"]) == 0
    assert main(["run", config, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    for name in ("results.csv", "summary.json"):
        with open(tmp_path / "a" / name, "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b" / name, "rb") as fh:
            second = fh.read()
        assert first == second


def test_run_accepts_degree_suffix(tmp_path):
    out = str(tmp_path / "out")
    cfg = helix_cfg(out)
    cfg["path"]["cone_angle"] = "60 deg"
    cfg["path"]["n_steps"] = 512
    config = write_config(tmp_path, "deg.json", cfg)
    assert main(["run", config, "--quiet"]) == 0
    summary = read_summary(out)
    assert abs(summary["phases"]["+1"]["analytic"] - np.pi) < 1e-9


def test_run_file_path_source(tmp_path):
    from fiberphase.geometry import helix_path

    p = helix_path(np.pi / 3, 1.0, 2.0, 1.0, 256)
    lines = [
        f"{float(t)!r} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
        for t, v in zip(p.times, p.k_mag * p.k_hat)
    ]
    traj = tmp_path / "traj.txt"
    traj.write_text("# imported path\n" + "\n".join(lines) + "\n")
    out = str(tmp_path / "out")
    cfg = helix_cfg(out, path={"type": "file", "filename": "traj.txt"})
    config = write_config(tmp_path, "filepath.json", cfg)
    assert main(["run", config, "--quiet"]) == 0
    summary = read_summary(out)
    assert abs(summary["path"]["k_mag"] - 2.0) < 1e-9
    assert abs(summary["phases"]["+1"]["analytic"] - np.pi) < 1e-6


def _phase_columns(out_dir):
    """The phase_* columns of results.csv, as the written text."""
    with open(os.path.join(out_dir, "results.csv")) as fh:
        header = fh.readline().rstrip("\n").split(",")
        keep = [i for i, name in enumerate(header) if name.startswith("phase_")]
        return [[row.split(",")[i] for i in keep] for row in fh]


@pytest.mark.parametrize("k_mag", [1e200, 1e-160, 1e-200])
def test_run_phases_do_not_depend_on_k_mag(tmp_path, capsys, k_mag):
    # H = (k_hat x k_hat_dot) . S: with h built from k = k_mag k_hat and divided
    # by k_mag**2, 1e200 overflowed, 1e-200 exited 3 and 1e-160 was off by 1e-4 rad
    runs = {}
    for mag in (1.0, k_mag):
        out = tmp_path / f"out_{mag!r}"
        cfg = helix_cfg(str(out))
        cfg["path"].update(cone_angle=1.0, k_mag=mag, n_steps=256)
        config = write_config(tmp_path, "k_mag.json", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning would reach stderr
            assert main(["run", config, "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        runs[mag] = _phase_columns(out), read_summary(out)["phases"]
    assert runs[k_mag] == runs[1.0]


def _results_columns(out_dir):
    """results.csv's columns by header name, each as the tuple of its written fields."""
    with open(os.path.join(out_dir, "results.csv")) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    return dict(zip(header, zip(*rows)))


def test_run_transport_does_not_depend_on_the_clock(tmp_path):
    # the transport reads the sequence of directions alone, never t or dt: the
    # demo loop's k rows under a shifted, a rescaled and a shifted and
    # rescaled clock write the same angles, flags and transport phases, byte
    # for byte, and the multiples of W move by rounding at most (4.4e-16
    # measured)
    rows = np.loadtxt(os.path.join(os.path.dirname(__file__), os.pardir, "demos", "configs", "loop_1025.txt"))
    runs = []
    for clock in (lambda t: t, lambda t: 1234.5 + t, lambda t: 3.7e-3 * t, lambda t: -7.25 + 40.0 * t):
        name = f"clock_{len(runs)}"
        np.savetxt(tmp_path / f"{name}.txt", np.column_stack([clock(rows[:, 0]), rows[:, 1:]]), fmt="%.17g")
        cfg = helix_cfg(str(tmp_path / name), path={"type": "file", "filename": f"{name}.txt"})
        assert main(["run", write_config(tmp_path, f"{name}.json", cfg), "--quiet"]) == 0
        runs.append(_results_columns(tmp_path / name))
    first, *others = runs
    transport = ["lambda", "gamma", "flagged", "phase_geometric_R", "phase_geometric_L"]
    w_based = ["phase_analytic_R", "phase_analytic_L", "phase_quantal", "phase_vacuum_L", "phase_vacuum_R",
               "phase_vacuum_net"]
    for run in others:
        assert run["t"] != first["t"]
        for name in transport:
            assert run[name] == first[name], name
        for name in w_based:
            assert np.abs(np.array(run[name], dtype=float) - np.array(first[name], dtype=float)).max() <= 1e-13, name


def test_a_utf8_comment_loads_whatever_the_locale(tmp_path):
    # the file was decoded in the locale's encoding: under the C locale a
    # UTF-8 comment exited 2 with "path.filename: 'ascii' codec can't decode
    # byte 0xce in position 2"
    from fiberphase.geometry import helix_path

    p = helix_path(np.pi / 3, 1.0, 2.0, 1.0, 128)
    lines = [f"{float(t)!r} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for t, v in zip(p.times, p.k_mag * p.k_hat)]
    (tmp_path / "traj.txt").write_bytes(("# \u03b8 loop\n" + "\n".join(lines) + "\n").encode())
    out = tmp_path / "out"
    config = write_config(tmp_path, "filepath.json", helix_cfg(str(out), path={"type": "file", "filename": "traj.txt"}))
    proc = _fiberphase("run", config, "--quiet", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert read_summary(str(out))["path"]["n_samples"] == 129


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
def test_run_file_path_non_finite_token_exits_2(tmp_path, capsys, token):
    from fiberphase.geometry import helix_path

    p = helix_path(np.pi / 3, 1.0, 2.0, 1.0, 128)
    lines = [
        f"{float(t)!r} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}"
        for t, v in zip(p.times, p.k_mag * p.k_hat)
    ]
    lines[49] = f"{float(p.times[49])!r} {token} 0 0"
    traj = tmp_path / "traj.txt"
    traj.write_text("# imported path\n" + "\n".join(lines) + "\n")
    out = tmp_path / "out"
    cfg = helix_cfg(str(out), path={"type": "file", "filename": "traj.txt"})
    config = write_config(tmp_path, "filepath.json", cfg)
    assert main(["run", config, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"traj.txt:51: non-finite value {token!r}" in err
    assert "Traceback" not in err and "np.float64" not in err
    assert not (out / "summary.json").exists()


# ---------------------------------------------------------------- exit codes

def test_invalid_config_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "bad.json", {"path": {"type": "helix"}})
    assert main(["run", config]) == 2
    assert "path.cone_angle" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text('{"path": ')
    assert main(["run", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_duplicate_config_key_exits_2(tmp_path, capsys):
    # JSON keeps a repeated key's last value, so a bad value given first would go unchecked
    out = tmp_path / "out"
    for section, key, pair in ((None, "k0", ["-5", "1.0"]), ("path", "omega", ['"fast"', "1.0"])):
        for values in (pair, pair[::-1]):
            cfg = helix_cfg(str(out))
            del (cfg[section] if section else cfg)[key]
            opening = f'"{section}": {{' if section else "{"
            text = json.dumps(cfg).replace(opening, opening + "".join(f'"{key}": {v}, ' for v in values), 1)
            config = tmp_path / "duplicate.json"
            config.write_text(text)
            assert main(["run", str(config), "--quiet"]) == 2
            assert capsys.readouterr() == ("", f"config error: {config}: duplicate key '{key}'\n")
            assert not out.exists()


def test_bad_steps_exits_2(tmp_path):
    cfg = helix_cfg("out")
    cfg["path"]["n_steps"] = 32
    config = write_config(tmp_path, "few.json", cfg)
    assert main(["run", config]) == 2


_DELETE = object()  # removes the field

# (command: run or the swept parameter, dotted field, its value, the stderr line after "config error: ")
CONFIG_ERRORS = [
    ("run", "path", _DELETE, "missing required field 'path'"),
    ("run", "path", 3, "path: expected dict, got 3"),
    ("run", "path.k_mag", _DELETE, "missing required field 'path.k_mag'"),
    ("run", "path.cone_angle", _DELETE, "missing required field 'path.cone_angle'"),
    ("run", "path.n_steps", _DELETE, "missing required field 'path.n_steps'"),
    ("run", "path.omega", "fast", "path.omega: expected a number, got 'fast'"),
    ("run", "path.n_cycles", True, "path.n_cycles: expected a number, got True"),
    ("run", "path.n_steps", 100.0, "path.n_steps: expected an integer, got 100.0"),
    ("run", "path.n_steps", True, "path.n_steps: expected an integer, got True"),
    ("run", "path.n_steps", 63, "path.n_steps: at least 64 steps required, got 63"),
    ("run", "path.cone_angle", 4.0, "path.cone_angle: cone angle must lie in [0, pi], got 4.0"),
    ("run", "path.cone_angle", "-1 deg", "path.cone_angle: cone angle must lie in [0, pi], got -0.017453292519943295"),
    ("run", "path.cone_angle", "abc deg", "path.cone_angle: cannot parse degrees value 'abc deg'"),
    ("run", "path.cone_angle", "1.0 rad", "path.cone_angle: angle strings must end in 'deg', got '1.0 rad'"),
    ("run", "path.cone_angle", [1], "path.cone_angle: expected a number or 'NNN deg' string, got [1]"),
    ("run", "path.cone_angle", True, "path.cone_angle: expected a number or 'NNN deg' string, got True"),
    ("run", "path.k_mag", -1, "path: k_mag must be a positive finite number, got -1.0"),
    ("run", "path", {"type": "file"}, "missing required field 'path.filename'"),
    ("run", "path", {"type": "file", "filename": 5}, "path.filename: expected str, got 5"),
    ("run", "k0", -1, "k0: expected a positive finite number, got -1"),
    ("run", "k0", "1", "k0: expected a positive finite number, got '1'"),
    ("run", "chamber_length", 0, "chamber_length: expected a positive finite number, got 0"),
    ("run", "medium", {"eps1": "x", "eps2": 1.0}, "medium.eps1: expected a number, got 'x'"),
    ("run", "occupations.n_left", -1, "occupations.n_left: expected a nonnegative integer below 2**52, got -1"),
    ("run", "occupations.n_right", 1.0, "occupations.n_right: expected a nonnegative integer below 2**52, got 1.0"),
    ("cone_angle", "sweep", _DELETE, "missing required field 'sweep'"),
    ("cone_angle", "sweep", [], "sweep: expected dict, got []"),
    ("cone_angle", "sweep.values", ["abc deg"], "sweep.values: cannot parse degrees value 'abc deg'"),
    ("cone_angle", "sweep.values", [3.5], "sweep.values: cone angle must lie in [0, pi], got 3.5"),
    ("cone_angle", "path.cone_angle", "2 rad", "path.cone_angle: angle strings must end in 'deg', got '2 rad'"),
    ("cone_angle", "path.k_mag", 0, "path: k_mag must be a positive finite number, got 0.0"),
    ("n_steps", "sweep.values", [10], "sweep.values: at least 64 steps required, got 10"),
    ("n_steps", "sweep.values", [64.0], "sweep.values: expected an integer, got 64.0"),
    ("n_steps", "path.n_steps", 1.5, "path.n_steps: expected an integer, got 1.5"),
    ("occupations", "sweep.values", [[0, -2]],
     "sweep.values: n_right: expected a nonnegative integer below 2**52, got -2"),
    # from 2**53 steps the sample times are not exact, and the checks walked about n / 2**14 chunks:
    # 2**60 steps ran past 8 s, and 10**30 past 60 s
    ("run", "path.n_steps", 2**60, "path.n_steps: expected fewer than 2**53 steps, got 1152921504606846976"),
    ("n_steps", "sweep.values", [128, 10**30],
     "sweep.values: expected fewer than 2**53 steps, got 1000000000000000000000000000000"),
    ("n_steps", "path.n_steps", 2**53, "path.n_steps: expected fewer than 2**53 steps, got 9007199254740992"),
]
VALID_SWEEP_VALUES = {"cone_angle": ["30 deg"], "n_steps": [128], "occupations": [[0, 1]]}


@pytest.mark.parametrize("command, field, value, message", CONFIG_ERRORS,
                         ids=[f"{command}-{field}-{i}" for i, (command, field, _, _) in enumerate(CONFIG_ERRORS)])
def test_each_validator_exits_2_with_its_message(tmp_path, capsys, monkeypatch, command, field, value, message):
    # every field and every sweep value is checked before a path is built: a bad sweep value comes after a
    # valid one, and a bad field outside the path section exits with no path built; a path's k_mag is
    # checked before its samples, so no case evaluates a helix row
    import fiberphase.scenario as scenario_mod
    from fiberphase import geometry

    built, build_path = [], scenario_mod.build_path
    evaluated, helix_rows = [], geometry._HelixRows.__call__

    def spy(*args, **kwargs):
        built.append(args)
        return build_path(*args, **kwargs)

    def rows_spy(self, lo, hi):
        evaluated.append((lo, hi))
        return helix_rows(self, lo, hi)

    monkeypatch.setattr(scenario_mod, "build_path", spy)
    monkeypatch.setattr(geometry._HelixRows, "__call__", rows_spy)
    out = tmp_path / "out"
    cfg = helix_cfg(str(out))
    if command != "run":
        cfg = sweep_cfg(cfg, command, VALID_SWEEP_VALUES[command])
    if field == "sweep.values":
        value = VALID_SWEEP_VALUES[command] + value
    *parents, key = field.split(".")
    section = cfg
    for name in parents:
        section = section[name]
    if value is _DELETE:
        del section[key]
    else:
        section[key] = value
    config = write_config(tmp_path, "invalid.json", cfg)
    assert main(["run" if command == "run" else "sweep", config, "--quiet"]) == 2
    assert capsys.readouterr() == ("", f"config error: {message}\n")
    assert not out.exists()
    assert evaluated == []
    if field.split(".")[0] != "path":
        assert built == []


def test_unwritable_output_exits_4(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg = helix_cfg(str(blocker / "sub"))
    cfg["path"]["n_steps"] = 128
    config = write_config(tmp_path, "io.json", cfg)
    assert main(["run", config, "--quiet"]) == 4


@pytest.mark.parametrize("column", results_header((1, -1))[:-1])  # every float column; flagged is not a float
def test_non_finite_results_exit_3(tmp_path, monkeypatch, column):
    import fiberphase.scenario as scenario_mod

    original = scenario_mod.compute_scenario

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        # every column reads a series of the pass: poison this one alone with a series whose rows are all NaN
        result["columns"][column] = ("nan", 1.0)
        series = result["series"]
        result["series"] = lambda: ({**chunk, "nan": np.full(len(chunk["t"]), np.nan)} for chunk in series())
        return result

    monkeypatch.setattr(scenario_mod, "compute_scenario", poisoned)
    (tmp_path / "kept").mkdir()
    cfg = helix_cfg(str(tmp_path / "kept" / "made" / "out"))
    cfg["path"]["n_steps"] = 128
    config = write_config(tmp_path, "nan.json", cfg)
    assert main(["run", config, "--quiet"]) == 3
    assert os.listdir(tmp_path / "kept") == []  # no file and no directory that the run made; the one it found stays


@pytest.mark.parametrize("polarizations", [[1, -1], [-1]], ids=["R,L", "L"])
def test_non_finite_late_chunk_exits_3_and_leaves_the_directory_as_it_was(tmp_path, monkeypatch, polarizations):
    # a NaN in the last row of the last of three chunks, after the writer has
    # written every earlier row under its temporary names: they are removed,
    # and a results.csv from an earlier run keeps its bytes
    import fiberphase.scenario as scenario_mod

    original = scenario_mod._series

    def poisoned(path, polarization):
        rows = 0
        for series in original(path, polarization):
            rows += len(series["t"])
            if rows == path.n_samples:
                series["invariant_residual"][-1] = np.nan
            yield series

    monkeypatch.setattr(scenario_mod, "_series", poisoned)
    monkeypatch.setattr(scenario_mod.geometry, "_CHUNK_ROWS", 256)
    out = tmp_path / "out"
    out.mkdir()
    (out / "results.csv").write_bytes(b"an earlier run's rows\n")
    cfg = helix_cfg(str(out), polarizations=polarizations)
    cfg["path"]["n_steps"] = 700  # three chunks of the pass
    assert main(["run", write_config(tmp_path, "late_nan.json", cfg), "--quiet"]) == 3
    assert os.listdir(out) == ["results.csv"]
    assert (out / "results.csv").read_bytes() == b"an earlier run's rows\n"


def _fiberphase(*argv, **environ):
    """``python -m fiberphase`` in a child process, with ``environ`` set, whose stderr shows any numpy RuntimeWarning."""
    env = {**os.environ, **environ}
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "fiberphase", *argv], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_overflowing_path_exits_3_with_only_the_failure_line(tmp_path, command):
    # omega * t overflows: stderr held three numpy RuntimeWarnings before the failure
    # line, and an n_steps sweep wrote inf and nan into sweep.csv before it exited 3
    out = tmp_path / "out"
    cfg = helix_cfg(str(out))
    cfg["path"].update(omega=1e300, n_steps=128)
    if command == "sweep":
        cfg = sweep_cfg(cfg, "n_steps", [64, 128])
    proc = _fiberphase(command, write_config(tmp_path, "overflow.json", cfg), "--quiet")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "numerical failure: non-finite value detected in results\n"
    for name in ("results.csv", "sweep.csv", "summary.json"):
        assert not (out / name).exists(), name


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("field, value, message", [
    ("omega", 1e-320, "times and k_hat must be finite"),  # the duration overflows: times[0] = 0 * inf
    ("n_cycles", 5e-324, "times must be strictly increasing"),  # the step underflows: linspace's zero-step branch
])
def test_degenerate_helix_grid_exits_2_with_the_failed_check(tmp_path, capsys, command, field, value, message):
    # a helix evaluated on each read fails the same first check as its held samples did
    out = tmp_path / "out"
    cfg = helix_cfg(str(out))
    cfg["path"][field] = value
    if command == "sweep":
        cfg = sweep_cfg(cfg, "cone_angle", ["90 deg", 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would reach stderr
        assert main([command, write_config(tmp_path, "degenerate.json", cfg), "--quiet"]) == 2
    assert capsys.readouterr() == ("", f"config error: path: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("cone, code", [(1e-160, 0), (1.0, 3)])  # the rates of a wider cone overflow
def test_subnormal_step_helix_matches_a_path_of_held_arrays(tmp_path, monkeypatch, capsys, cone, code):
    # omega = 1e308 gives a subnormal dt; the helix is accepted, and its
    # outputs are those of the same samples built whole and held
    from test_path_properties import eager_helix

    import fiberphase.geometry as geometry_mod

    def held_helix(cone_angle, omega, k_mag, n_cycles, n_steps):
        times, k_hat = eager_helix(cone_angle, omega, n_cycles, n_steps)
        return geometry_mod.FiberPath(times=times, k_hat=k_hat, k_mag=float(k_mag))

    cfg = helix_cfg("out")
    cfg["path"].update(cone_angle=cone, omega=1e308, n_steps=256)
    config = write_config(tmp_path, "subnormal.json", cfg)
    runs = []
    for name in ("on_demand", "held"):
        if name == "held":
            monkeypatch.setattr(geometry_mod, "helix_path", held_helix)
        out = tmp_path / name
        runs.append((main(["run", config, "--out", str(out)]), capsys.readouterr(),
                     {f.name: f.read_bytes() for f in out.glob("*")} if out.exists() else {}))
    (got_code, got_std, got_files), (want_code, want_std, want_files) = runs
    assert got_code == want_code == code
    assert got_std.out.replace("on_demand", "held") == want_std.out and got_std.err == want_std.err
    assert got_files == want_files and len(got_files) == (2 if code == 0 else 0)  # results.csv, summary.json
    if code == 0:
        assert 0.0 < json.loads(got_files["summary.json"])["path"]["dt"] < 2.2250738585072014e-308


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("field, medium, k0", [
    ("medium", {"eps1": 1e200, "eps2": 0.0, "mu1": 1e200, "mu2": 0.0}, 1.0),  # n^2 = 1e400
    ("medium", {"eps1": 1e308, "eps2": 1e308, "mu1": 1.0, "mu2": 0.0}, 1.0),  # eps1 + eps2 overflows
    ("k0", {"eps1": 4.0, "eps2": 0.0, "mu1": 1.0, "mu2": 0.0}, 1e308),  # finite n^2 = 4, n k0 = 2e308
], ids=["n2", "eps-sum", "k0"])
def test_overflowing_medium_exits_2_without_writing(tmp_path, command, field, medium, k0):
    # an infinite n^2 or k = n k0 reached only summary.json, which failed with
    # exit 3 after results.csv had been written
    out = tmp_path / "out"
    cfg = helix_cfg(str(out), medium=medium, k0=k0)
    cfg["path"]["n_steps"] = 128
    if command == "sweep":
        cfg = sweep_cfg(cfg, "cone_angle", ["30 deg", "60 deg"])
    proc = _fiberphase(command, write_config(tmp_path, "medium.json", cfg), "--quiet")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"config error: {field}: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("field, value", [
    ("k0", float("nan")),
    ("k0", float("inf")),
    ("chamber_length", float("nan")),
    ("path.omega", float("nan")),
    ("path.k_mag", float("nan")),
])
def test_non_finite_config_exits_2(tmp_path, capsys, field, value):
    out = tmp_path / "out"
    cfg = helix_cfg(str(out))
    cfg["path"]["n_steps"] = 128
    if field.startswith("path."):
        cfg["path"][field[5:]] = value
    else:
        cfg[field] = value
    config = write_config(tmp_path, "nonfinite.json", cfg)
    text = (tmp_path / "nonfinite.json").read_text()
    assert "NaN" in text or "Infinity" in text
    assert main(["run", config, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert field.split(".")[-1] in err
    assert "Traceback" not in err
    assert not (out / "summary.json").exists()


def test_non_finite_summary_exits_3_without_writing(tmp_path, monkeypatch):
    import fiberphase.scenario as scenario_mod

    original = scenario_mod.summarize

    def poisoned(*args, **kwargs):
        summary = original(*args, **kwargs)
        summary["quantal_final"] = float("nan")
        return summary

    monkeypatch.setattr(scenario_mod, "summarize", poisoned)
    out = tmp_path / "out"
    cfg = helix_cfg(str(out))
    cfg["path"]["n_steps"] = 128
    config = write_config(tmp_path, "nan_summary.json", cfg)
    assert main(["run", config, "--quiet"]) == 3
    assert not out.exists()  # every row was written, under temporary names, in a directory that is gone


def _joined_outputs(result):
    """results.csv as the writer's whole-array join: the byte oracle.

    Each column is computed whole as series * weight + 0.0 and the file is
    joined from one list of lines: one row per sample, headed by the names
    of the result's columns.
    """
    from fiberphase.scenario import _fmt

    columns = [np.concatenate([series[key] for series in result["series"]()]) * weight + 0.0
               for key, weight in result["columns"].values()]
    lines = [",".join(result["columns"])]
    for i in range(len(columns[0])):
        lines.append(",".join([_fmt(values[i]) for values in columns[:-1]] + ["1" if columns[-1][i] else "0"]))
    return ("\n".join(lines) + "\n").encode()


def _run_pass(out_dir, result, path, scenario, summarize=None):
    """A run's one pass committed into ``out_dir`` as ``run_scenario`` commits it, summary.json last; the summary."""
    import fiberphase.scenario as scenario_mod

    with scenario_mod._committed(str(out_dir)) as create:
        reduced = scenario_mod.write_results_csv(create, result)
        summary = {**(summarize or scenario_mod.summarize)(result, path, scenario, reduced), "command": "run"}
        create("summary.json").write(scenario_mod._json(summary))
    return summary


def _written(tmp_path, result):
    import fiberphase.scenario as scenario_mod

    tmp_path.mkdir(parents=True, exist_ok=True)
    with scenario_mod._committed(str(tmp_path)) as create:
        scenario_mod.write_results_csv(create, result)
    return (tmp_path / "results.csv").read_bytes()


def test_results_csv_streaming_is_byte_identical(tmp_path):
    import fiberphase.scenario as scenario_mod
    from fiberphase.fock import Ordering
    from fiberphase.geometry import helix_path

    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 100)
    scenario = scenario_mod.Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None)
    result = scenario_mod.compute_scenario(p, scenario)
    written = _written(tmp_path, result)
    assert written == _joined_outputs(result)
    lines = written.decode().split("\n")
    assert len(lines) == 1 + p.n_samples + 1 and lines[-1] == ""


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), chunk=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       pols=st.sampled_from([(1, -1), (-1, 1), (1,), (-1,)]))
def test_chunked_writers_match_whole_array_join(tmp_path_factory, n, chunk, seed, pols):
    # random series with zeros of both signs, at lengths below, at and past multiples of the chunk
    import fiberphase.scenario as scenario_mod

    rng = np.random.default_rng(seed)

    def series():
        values = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        values[rng.random(n) < 0.2] = 0.0
        values[rng.random(n) < 0.2] = -0.0
        return values

    weights = [1.0, -1.0, 0.5, -0.5, 0.0, 3.0]
    # each polarization's two columns read one series per kind, each column with its own weight, so a writer
    # that took one polarization's column for another's fails; phase_geometric_<S> has weight sigma, as in a
    # run, so the writer toggles the signs of one polarization's fields for the other's
    polarized = ("phase_geometric", "phase_analytic")
    columns = {name: (name[:-2] if name[:-2] in polarized else name, float(rng.choice(weights)))
               for name in results_header(pols)}
    columns |= {f"phase_geometric_{'R' if pol == 1 else 'L'}": ("phase_geometric", float(pol)) for pol in pols}
    columns["flagged"] = ("flagged", 1.0)
    values = {key: series() for key in dict.fromkeys(key for key, _ in columns.values())}
    values["flagged"] = rng.random(n) < 0.3

    def pass_chunks():  # chunks of 2 * chunk + 1 rows, which the writer writes in slices of chunk rows
        for lo in range(0, n, 2 * chunk + 1):
            yield {name: series[lo : lo + 2 * chunk + 1] for name, series in values.items()}

    result = {"columns": columns, "series": pass_chunks}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_mod, "_WRITE_ROWS", chunk)
        assert _written(tmp_path_factory.mktemp("chunked"), result) == _joined_outputs(result)


def _writer_peaks(tmp_path, n_steps, slices=None, pols=(1,)):
    """Traced peaks of a run's passes: _reduce's alone, then the writer's, which also reduces.

    With a list ``slices``, the peak of each writer slice above what was in
    use when it began is appended to it, and the writer's own peak is lost.
    One polarization by default, as tracing every string is slow.
    """
    import tracemalloc

    import fiberphase.scenario as scenario_mod
    from fiberphase.fock import Ordering
    from fiberphase.geometry import helix_path

    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
    scenario = scenario_mod.Scenario(pols, 0, 1, Ordering.SYMMETRIC, None, 1.0, None)
    result = scenario_mod.compute_scenario(path, scenario)
    tmp_path.mkdir()
    original = scenario_mod.geometry._row_slices

    def measured(start, stop, step=None):  # the writer's slices are the ones with an explicit size
        for rows in original(start, stop, step):
            if step is None or slices is None:
                yield rows
                continue
            in_use = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield rows
            slices.append(tracemalloc.get_traced_memory()[1] - in_use)

    peaks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario_mod.geometry, "_row_slices", measured)
        for run in (lambda: scenario_mod._reduce(result["series"](), result["columns"].values()),
                    lambda: _run_pass(tmp_path, result, path, scenario)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    return peaks


def test_writer_holds_one_chunk_of_strings(tmp_path):
    # one slice of formatted columns at a time; a full-length column of
    # strings alone would be about 70 bytes per step.  The writer's pass
    # computes and reduces the series as the reduction's does, so what the
    # writer adds is its peak above the reduction's: 1.4 B/step at 4000
    # steps and 2.7 at 3000 (a slice weighs more per step in a shorter
    # run), one slice of strings next to the pass's one chunk of series,
    # less the kernels' temporaries, against 949 (1044 at 1e5) for a
    # writer that keeps every slice's strings; 1e5 steps took 14-21 s
    # under tracemalloc
    n_steps = 4000
    reduction, writer = _writer_peaks(tmp_path / "out", n_steps)
    assert (writer - reduction) / n_steps < 12, (reduction, writer)  # bytes per step
    assert sorted(os.listdir(tmp_path / "out")) == sorted(_RUN_FILES)


@pytest.mark.parametrize(("n_steps", "pols"), [(3000, (1,)), (8000, (1,)), (8000, (1, -1))], ids=["3000", "8000", "8000-R,L"])
def test_writer_adds_at_most_one_slice_of_strings(tmp_path, n_steps, pols):
    # the same bound at any size and for the bench's two polarizations, per
    # slice: a slice holds its own strings and one column's floats, about
    # 770 bytes per row of the slice with one polarization and 930 with
    # two, wherever it sits in its chunk; the writer's peak above the
    # reduction's (8 kB at 3000 steps, one chunk; 17 kB at 8000, two, with
    # one or two polarizations) is no more than one slice's, so it
    # measures only the strings and not the reduction the writer now does.
    # A writer that kept every slice's strings would add about 7.6 MB at
    # 8000 steps
    from fiberphase.scenario import _WRITE_ROWS

    reduction, writer = _writer_peaks(tmp_path / "whole", n_steps, pols=pols)
    slices = []
    _writer_peaks(tmp_path / "slices", n_steps, slices, pols)
    assert len(slices) >= (n_steps + 1) / _WRITE_ROWS  # every slice measured
    one_slice = max(slices)
    assert one_slice / _WRITE_ROWS < 1300, slices  # bytes per row of a slice
    assert writer - reduction < one_slice, (reduction, writer, one_slice)


def _check_field(x):
    # a float field reads back as the same double, sign included, is no longer
    # than the 17-digit "%.16e", and toggling its '-' gives the field of -x
    from fiberphase.scenario import _fmt, _negated

    text = _fmt(x)
    assert float(text).hex() == x.hex(), (x, text)
    assert len(text) <= len("%.16e" % x), (x, text)
    assert _negated([text]) == [_fmt(-x) if x != 0 else "0.0"], (x, text)


@settings(max_examples=2000, deadline=None)
@given(bits=st.integers(0, 2**64 - 1))
def test_float_field_of_any_bit_pattern(bits):
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    if math.isfinite(x):  # every finite double, subnormals and both zeros included
        _check_field(x)


def _edge_doubles():
    powers = [float(f"1e{k}") for k in range(-308, 309)]
    powers += [math.ldexp(1.0, k) for k in range(-1074, 1024)]
    values = [0.0, 5e-324, sys.float_info.min, sys.float_info.max, 0.1, 1e23, 2.0**52 - 0.5, 2.0**51 + 0.5]
    values += [k + 0.5 for k in range(-64, 64)]  # exact halves
    for x in powers:
        values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    return values + [-x for x in values]


def test_float_field_of_edge_doubles():
    for x in _edge_doubles():
        _check_field(x)


def test_formatted_fields_are_the_repr_of_each_weighted_column():
    # the writer's per-slice formatter, which any faster one must match: each
    # distinct column's fields are repr(x * w + 0.0), and a column whose
    # weight is the negative of one formatted before it takes that one's
    # fields negated, the repr of its own values (zero stays '0.0')
    import fiberphase.scenario as scenario_mod

    rng = np.random.default_rng(20261021)
    bits = np.concatenate([rng.integers(0, 2**64, size=3000, dtype=np.uint64),
                           rng.integers(1, 2**52, size=300, dtype=np.uint64)])  # any double, then subnormals
    edges = [0.0, 5e-324, sys.float_info.min]
    for x in (1e-4, 2e-4, 1e16, 2e16):  # where repr turns positional or exponent, under weights 1 and 1/2
        edges += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    values = bits.view(np.float64)
    values = np.concatenate([values[np.isfinite(values)], edges, np.negative(edges)])
    rng.shuffle(values)
    series = {"x": values, "y": values[::-1].copy()}
    columns = [("x", 1.0), ("x", 0.5), ("y", -0.5), ("x", -1.0), ("x", -0.5), ("y", 0.5), ("y", -1.0)]
    rows = slice(7, len(values) - 3)
    text = scenario_mod._formatted(series, columns, rows)
    assert list(text) == columns
    for key, weight in columns:
        assert text[key, weight] == [repr(x * weight + 0.0) for x in series[key][rows].tolist()], (key, weight)
    for key, weight in columns[3:5]:  # the mirrors of columns 0 and 1: the repr of the negation
        assert text[key, weight] == [repr(-float(field) + 0.0) for field in text[key, -weight]]


_RUN_FILES = {"results.csv", "summary.json"}


def _spy_open(monkeypatch):
    """Every file the writer opens, as (name, mode, handle), through the module's ``open``."""
    import builtins

    import fiberphase.scenario as scenario_mod

    opened = []

    def spy(file, mode="r", *args, **kwargs):
        opened.append((os.path.basename(file), mode, builtins.open(file, mode, *args, **kwargs)))
        return opened[-1][2]

    monkeypatch.setattr(scenario_mod, "open", spy, raising=False)
    return opened


@pytest.mark.parametrize("pols", [[1, -1], [-1]], ids=["R,L", "L"])
def test_run_writes_exactly_the_documented_files(tmp_path, monkeypatch, pols):
    # each file is created under a hidden temporary name, write-only, and
    # renamed: one per documented file, results.csv holding every
    # polarization's columns, and none is reopened
    opened = _spy_open(monkeypatch)
    cfg = helix_cfg(str(tmp_path / "out"), polarizations=pols)
    cfg["path"]["n_steps"] = 700  # three writer slices
    assert main(["run", write_config(tmp_path, "run.json", cfg), "--quiet"]) == 0
    assert sorted(os.listdir(tmp_path / "out")) == sorted(_RUN_FILES)
    created = [name for name, mode, fh in opened if mode == "x"]
    assert all(name.startswith(".") and name.endswith(".tmp") and not fh.readable() and fh.closed
               for name, mode, fh in opened if mode == "x")
    assert sorted(name[1:].rsplit(".", 2)[0] for name in created) == sorted(_RUN_FILES)
    assert [(name, mode) for name, mode, _ in opened if mode != "x" and name.startswith(".")] == []


@pytest.mark.parametrize("pols", [[1, -1], [-1, 1]], ids=["R,L", "L,R"])
def test_results_csv_columns_read_back_by_header_name(tmp_path, pols):
    # README's plotting recipe: numpy's genfromtxt reads every column of
    # results.csv by its header name, each value the double of its field,
    # bit for bit, here on an equator with flagged samples and in either
    # polarization order
    out, config = _equator_two_cycles(tmp_path, pols)
    assert main(["run", config, "--quiet"]) == 0
    table = np.genfromtxt(os.path.join(out, "results.csv"), delimiter=",", names=True)
    with open(os.path.join(out, "results.csv")) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    assert table.dtype.names == tuple(header) == tuple(results_header(pols))
    fields = dict(zip(header, zip(*rows)))
    assert fields["flagged"].count("1") == 2
    for name in header:
        want = np.array([float(field) for field in fields[name]])
        assert np.array_equal(table[name].view(np.uint64), want.view(np.uint64)), name


def test_a_run_leaves_an_earlier_versions_plot_files_as_they_are(tmp_path):
    # a directory an earlier version wrote: the run replaces results.csv and
    # summary.json and leaves each plot_*.dat with its bytes, as README says
    out = tmp_path / "out"
    out.mkdir()
    stale = {name: f"stale {name}\n".encode() for name in
             ("results.csv", "summary.json", "plot_quantal.dat", "plot_geometric_R.dat")}
    for name, data in stale.items():
        (out / name).write_bytes(data)
    assert main(["run", write_config(tmp_path, "run.json", helix_cfg(str(out))), "--quiet"]) == 0
    files = {f.name: f.read_bytes() for f in out.iterdir()}
    assert sorted(files) == sorted(stale)
    assert {name: files[name] for name in files if name.startswith("plot_")} == {
        name: data for name, data in stale.items() if name.startswith("plot_")}
    assert files["results.csv"].startswith(",".join(results_header((1, -1))).encode() + b"\n")
    assert read_summary(str(out))["quantal_final"] != 0.0


def test_quantal_column_is_the_right_analytic_column_on_the_bench_config(tmp_path):
    # the bench's run config at 2000 steps has n_R - n_L = 1, so the quantal
    # phase (n_R - n_L) W is the sigma = +1 analytic phase, W: the two
    # columns of results.csv are the same strings, field for field
    out = tmp_path / "out"
    cfg = helix_cfg(str(out), medium={"eps1": 2.0, "eps2": 3.0, "mu1": 2.0, "mu2": 1.0}, chamber_length=10.0)
    cfg["path"].update(cone_angle=0.9, n_steps=2000)
    assert main(["run", write_config(tmp_path, "bench.json", cfg), "--quiet"]) == 0
    assert sorted(os.listdir(out)) == sorted(_RUN_FILES)
    with open(out / "results.csv") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    columns = dict(zip(header, zip(*rows)))
    assert len(rows) == 2001 and any(float(field) != 0.0 for field in columns["phase_quantal"])
    assert columns["phase_quantal"] == columns["phase_analytic_R"]


@pytest.mark.parametrize("pols", [[1, -1], [-1, 1]], ids=["R,L", "L,R"])
def test_polarized_columns_are_written_sigma_conjugate(tmp_path, pols):
    # the opposite helicity picks up the opposite transport phase along the
    # same path: each _L column's text is that of its _R column with the sign
    # toggled, field for field, whichever polarization is transported, on an
    # equator with flagged samples
    from fiberphase.scenario import _negated

    out, config = _equator_two_cycles(tmp_path, pols)
    assert main(["run", config, "--quiet"]) == 0
    with open(os.path.join(out, "results.csv")) as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    columns = dict(zip(header, zip(*rows)))
    assert columns["flagged"].count("1") == 2
    for kind in ("geometric", "analytic"):
        assert list(columns[f"phase_{kind}_L"]) == _negated(columns[f"phase_{kind}_R"]), kind


@pytest.mark.parametrize("where", ["chunk", "summary", "rename", "last_rename"])
def test_writer_error_leaves_no_temporary_file(tmp_path, monkeypatch, where):
    # an OSError in the second chunk, once every row is written but before
    # summary.json is made, at the first rename or at the last one (once
    # every other file is renamed) propagates with every file closed, and
    # leaves no file in the directory
    import errno

    import fiberphase.scenario as scenario_mod
    from fiberphase.fock import Ordering
    from fiberphase.geometry import helix_path

    def full(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    opened = _spy_open(monkeypatch)
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 700)
    scenario = scenario_mod.Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None)
    result = scenario_mod.compute_scenario(path, scenario)
    if where == "chunk":
        series = result["series"]

        def failing():  # the pass fails past its first chunk
            chunks = series()
            yield next(chunks)
            full()

        monkeypatch.setattr(scenario_mod.geometry, "_CHUNK_ROWS", 256)  # three chunks of the pass
        result["series"] = failing
    elif where == "rename":
        monkeypatch.setattr(os, "replace", full)
    elif where == "last_rename":
        replace, renamed = os.replace, []

        def last_fails(src, dst):
            if os.path.basename(dst) == "summary.json":
                full()
            replace(src, dst)
            renamed.append(os.path.basename(dst))

        monkeypatch.setattr(os, "replace", last_fails)
    with pytest.raises(OSError, match="No space left"):  # "summary": every row is written, then the summary fails
        _run_pass(tmp_path, result, path, scenario, full if where == "summary" else None)
    assert os.listdir(tmp_path) == []
    if where == "last_rename":
        assert renamed == ["results.csv"]
    assert opened and all(fh.closed for _, _, fh in opened)


def _small_cfg(out, command):
    """A 128-step helix run, or a two-point cone sweep of it, into ``out``."""
    cfg = helix_cfg(str(out))
    cfg["path"]["n_steps"] = 128
    if command == "sweep":
        cfg["sweep"] = {"parameter": "cone_angle", "values": [np.pi / 6, np.pi / 3]}
    return cfg


def _disk_full(*args):
    raise OSError(errno.ENOSPC, "No space left on device")


def test_io_error_exits_4_and_leaves_the_directory_as_it_was(tmp_path, monkeypatch, capsys):
    # a full disk at the first rename, once every file is written: exit 4,
    # no temporary file, and a results.csv or sweep.csv from an earlier
    # command keeps its bytes
    monkeypatch.setattr(os, "replace", _disk_full)
    for command, earlier in (("run", "results.csv"), ("sweep", "sweep.csv")):
        out = tmp_path / command
        out.mkdir()
        (out / earlier).write_bytes(b"an earlier command's rows\n")
        assert main([command, write_config(tmp_path, "full.json", _small_cfg(out, command)), "--quiet"]) == 4
        assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
        assert os.listdir(out) == [earlier]
        assert (out / earlier).read_bytes() == b"an earlier command's rows\n"


def test_sweep_failing_at_a_rename_removes_the_directories_it_made(tmp_path, monkeypatch):
    # as a failed run's (test_non_finite_results_exit_3): no file and no
    # directory that the sweep made is left; the one it found stays
    monkeypatch.setattr(os, "replace", _disk_full)
    (tmp_path / "kept").mkdir()
    config = write_config(tmp_path, "sweep.json", _small_cfg(tmp_path / "kept" / "made" / "out", "sweep"))
    assert main(["sweep", config, "--quiet"]) == 4
    assert os.listdir(tmp_path / "kept") == []


def test_sweep_writes_exactly_the_documented_files(tmp_path, monkeypatch):
    # sweep.csv, then summary.json, each created once under a hidden
    # temporary name, write-only, closed and renamed; the config is the only
    # other file opened
    opened = _spy_open(monkeypatch)
    out = tmp_path / "out"
    assert main(["sweep", write_config(tmp_path, "sweep.json", _small_cfg(out, "sweep")), "--quiet"]) == 0
    assert sorted(os.listdir(out)) == ["summary.json", "sweep.csv"]
    created = [(name, fh) for name, mode, fh in opened if mode == "x"]
    assert [name[1:].rsplit(".", 2)[0] for name, _ in created] == ["sweep.csv", "summary.json"]
    assert all(name.startswith(".") and name.endswith(".tmp") and not fh.readable() for name, fh in created)
    assert [(name, mode) for name, mode, _ in opened if mode != "x"] == [("sweep.json", "r")]
    assert all(fh.closed for _, _, fh in opened)


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_each_command_commits_its_files_through_one_committed(tmp_path, monkeypatch, command):
    # one commit site per command: the writer only formats, and a run, as a
    # sweep, opens the one _committed that all its files go through
    import fiberphase.scenario as scenario_mod

    entered, committed = [], scenario_mod._committed

    @contextmanager
    def spy(out_dir):
        with committed(out_dir) as create:
            entered.append(out_dir)
            yield create

    monkeypatch.setattr(scenario_mod, "_committed", spy)
    out = tmp_path / "out"
    assert main([command, write_config(tmp_path, f"{command}.json", _small_cfg(out, command)), "--quiet"]) == 0
    assert entered == [str(out)]
    assert "summary.json" in os.listdir(out)


@pytest.mark.parametrize("command, blocked", [
    pytest.param("run", "summary.json", id="summary.json"),
    pytest.param("run", "results.csv", id="results.csv"),
    pytest.param("sweep", "summary.json", id="sweep-summary.json"),
    pytest.param("sweep", "sweep.csv", id="sweep-sweep.csv"),
])
def test_a_target_that_is_not_a_file_exits_4_before_any_rename(tmp_path, capsys, command, blocked):
    # an earlier command's file replaced by a directory: every target is
    # checked before the first rename, so the command exits 4 and the earlier
    # command's other files keep their bytes, even where a rename before the
    # blocked one's would have replaced them (summary.json is renamed last)
    out = tmp_path / "out"
    cfg = _small_cfg(out, command)
    assert main([command, write_config(tmp_path, "first.json", cfg), "--quiet"]) == 0
    (out / blocked).unlink()
    (out / blocked).mkdir()
    earlier = {f.name: f.read_bytes() for f in out.iterdir() if f.is_file()}
    first = "results.csv" if command == "run" else "sweep.csv"
    assert first in earlier or blocked == first
    cfg["path"]["n_steps"] = 256  # every file of this command would differ from the earlier one's
    assert main([command, write_config(tmp_path, "second.json", cfg), "--quiet"]) == 4
    assert capsys.readouterr().err == f"i/o error: {out / blocked}: exists and is not a regular file\n"
    assert sorted(os.listdir(out)) == sorted([*earlier, blocked])  # no temporary file left
    assert {name: (out / name).read_bytes() for name in earlier} == earlier
    assert (out / blocked).is_dir() and not os.listdir(out / blocked)


def test_orthogonal_passage_warns_but_run_continues(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = helix_cfg(out)
    cfg["path"]["cone_angle"] = np.pi / 2
    cfg["path"]["n_steps"] = 1024
    config = write_config(tmp_path, "equator.json", cfg)
    assert main(["run", config, "--quiet"]) == 0
    assert "orthogonal" in capsys.readouterr().err
    summary = read_summary(out)
    assert summary["phases"]["+1"]["flagged_samples"] > 0


def _equator_two_cycles(tmp_path, pols):
    out = str(tmp_path / "out")
    cfg = helix_cfg(out, polarizations=pols)
    cfg["path"].update(cone_angle=np.pi / 2, n_cycles=2.0, n_steps=5000)
    return out, write_config(tmp_path, "equator.json", cfg)


@pytest.mark.parametrize("pols", [[1, -1], [-1, 1]], ids=["R,L", "L,R"])
def test_each_polarization_reports_its_orthogonal_passages(tmp_path, capsys, pols):
    # the second polarization is derived from the first, yet it still prints
    # its own line, in config order and with its own label
    _, config = _equator_two_cycles(tmp_path, pols)
    assert main(["run", config, "--quiet"]) == 0
    tail = ("2 sample(s) passed within 1e-09 of orthogonality; "
            "their total phase is interpolated from neighbours\n")
    assert capsys.readouterr().err == "".join(f"warning: sigma={pol:+d}: {tail}" for pol in pols)


@pytest.mark.parametrize("pols", [[1, -1], [-1, 1]], ids=["R,L", "L,R"])
def test_derived_phases_start_at_positive_zero(tmp_path, pols):
    # negating the first polarization's phases must not write -0.0 at t = 0
    out, config = _equator_two_cycles(tmp_path, pols)
    assert main(["run", config, "--quiet"]) == 0
    with open(os.path.join(out, "results.csv")) as fh:
        first_row = dict(zip(fh.readline().rstrip("\n").split(","), fh.readline().rstrip("\n").split(",")))
    derived = "R" if pols[1] == 1 else "L"
    for kind in ("geometric", "analytic"):
        assert first_row[f"phase_{kind}_{derived}"] == "0.0", kind


def _has_negative_zero(value):
    if isinstance(value, dict):
        return any(_has_negative_zero(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_negative_zero(v) for v in value)
    return isinstance(value, float) and value == 0.0 and np.signbit(value)


def test_no_output_writes_negative_zero(tmp_path):
    # clockwise, so W < 0: n_R - n_L = 0, the normal-ordering zero-point weight
    # and sigma = -1 all multiply a negative W at t > 0 and W[0] = 0 at t = 0
    cfg = helix_cfg(str(tmp_path / "run"), polarizations=[-1, 1], ordering="normal",
                    occupations={"n_left": 2, "n_right": 2})
    cfg["path"].update(omega=-1.0, n_steps=512)
    assert main(["run", write_config(tmp_path, "run.json", cfg), "--quiet"]) == 0
    cfg = sweep_cfg(cfg, "occupations", [[0, 0], [2, 2], [3, 1]])
    cfg["output_dir"] = str(tmp_path / "sweep")
    assert main(["sweep", write_config(tmp_path, "sweep.json", cfg), "--quiet"]) == 0

    written = sorted((tmp_path / "run").glob("*.*")) + sorted((tmp_path / "sweep").glob("*.*"))
    assert {f.name for f in written} == {"results.csv", "summary.json", "sweep.csv"}
    _assert_no_negative_zero(written)
    assert read_summary(str(tmp_path / "run"))["quantal_final"] == 0.0


def _assert_no_negative_zero(files):
    for f in files:
        text = f.read_text()
        if f.suffix == ".json":
            assert not _has_negative_zero(json.loads(text)), f
        else:
            assert "-0.0" not in re.split(r"[ ,\n]", text), f


@pytest.mark.parametrize("cone", [-0.0, "-0 deg"], ids=["-0.0", "-0 deg"])
def test_negative_zero_inputs_are_written_as_zero(tmp_path, cone):
    # (1 + -1)(-0.5 + -0.5) is -0.0, and so are the cone angles -0.0 and -0 deg
    medium = {"eps1": 1.0, "eps2": -1.0, "mu1": -0.5, "mu2": -0.5}
    cfg = helix_cfg(str(tmp_path / "run"), medium=medium)
    cfg["path"]["n_steps"] = 256
    assert main(["run", write_config(tmp_path, "run.json", cfg), "--quiet"]) == 0
    assert read_summary(str(tmp_path / "run"))["medium"]["n2_plus"] == 0.0
    cfg = sweep_cfg(cfg, "cone_angle", [cone, 0.5])
    cfg["output_dir"] = str(tmp_path / "sweep")
    assert main(["sweep", write_config(tmp_path, "sweep.json", cfg), "--quiet"]) == 0
    assert read_summary(str(tmp_path / "sweep"))["rows"][0]["cone_angle"] == 0.0
    _assert_no_negative_zero(sorted((tmp_path / "run").glob("*.*")) + sorted((tmp_path / "sweep").glob("*.*")))


# --------------------------------------------------------------------- sweeps

def test_sweep_cone_angle(tmp_path):
    out = str(tmp_path / "out")
    cfg = helix_cfg(out)
    cfg["path"]["n_steps"] = 1024
    cfg["sweep"] = {"parameter": "cone_angle", "values": [np.pi / 6, np.pi / 3, np.pi / 2]}
    config = write_config(tmp_path, "sweep.json", cfg)
    assert main(["sweep", config, "--quiet"]) == 0
    summary = read_summary(out)
    rows = summary["rows"]
    assert [round(r["cone_angle"], 6) for r in rows] == [round(v, 6) for v in (np.pi / 6, np.pi / 3, np.pi / 2)]
    for row in rows:
        expected = 2.0 * np.pi * (1.0 - np.cos(row["cone_angle"]))
        assert abs(row["analytic_R"] - expected) < 1e-3
        assert abs(row["analytic_L"] + expected) < 1e-3
    # away from the orthogonal-passage cone the transported phase agrees too
    for row in rows[:2]:
        assert abs(row["geometric_R"] - row["analytic_R"]) < 1e-3
        assert row["flagged_R"] == 0
    # on the equator the overlap passes through zero and the row is flagged
    assert rows[2]["flagged_R"] > 0


SWEPT_PATH_VALUES = {"cone_angle": [0.3, "75 deg", None], "n_steps": [64, 4096, None]}


@pytest.mark.parametrize("parameter", sorted(SWEPT_PATH_VALUES))
def test_sweep_overrides_the_swept_path_field(tmp_path, parameter):
    # a sweep point replaces path.<parameter> with its own value, so the
    # config's value (or its absence) changes no output byte
    values = [0.4, 0.9] if parameter == "cone_angle" else [128, 256]
    outputs = []
    for i, value in enumerate(SWEPT_PATH_VALUES[parameter]):
        out = tmp_path / f"out{i}"
        cfg = sweep_cfg(helix_cfg(str(out)), parameter, values)
        cfg["path"]["n_steps"] = 256
        if value is None:
            del cfg["path"][parameter]
        else:
            cfg["path"][parameter] = value
        assert main(["sweep", write_config(tmp_path, f"sweep{i}.json", cfg), "--quiet"]) == 0
        outputs.append({name: (out / name).read_bytes() for name in ("sweep.csv", "summary.json")})
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


@pytest.mark.parametrize("parameter, value", [
    ("cone_angle", "banana"),
    ("cone_angle", -5.0),
    ("cone_angle", 4.0),
    ("cone_angle", True),
    ("n_steps", "x"),
    ("n_steps", 3),
    ("n_steps", True),
])
def test_sweep_checks_the_swept_path_field(tmp_path, capsys, parameter, value):
    # the field may be left out, but a value given there is checked as run checks it
    out = tmp_path / "out"
    values = [0.4] if parameter == "cone_angle" else [128]
    cfg = sweep_cfg(helix_cfg(str(out)), parameter, values)
    cfg["path"]["n_steps"] = 128
    cfg["path"][parameter] = value
    assert main(["sweep", write_config(tmp_path, "swept.json", cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"path.{parameter}" in err
    assert "Traceback" not in err
    assert not out.exists()
    # run rejects the same value
    run_cfg = helix_cfg(str(out))
    run_cfg["path"]["n_steps"] = 128
    run_cfg["path"][parameter] = value
    assert main(["run", write_config(tmp_path, "run.json", run_cfg), "--quiet"]) == 2
    assert f"path.{parameter}" in capsys.readouterr().err


@pytest.mark.parametrize("parameter, value", [("cone_angle", 4.0), ("cone_angle", "banana"), ("n_steps", 3)])
def test_sweep_point_value_errors_name_sweep_values(tmp_path, capsys, parameter, value):
    out = tmp_path / "out"
    cfg = sweep_cfg(helix_cfg(str(out)), parameter, [value])
    cfg["path"]["n_steps"] = 128
    assert main(["sweep", write_config(tmp_path, "point.json", cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "sweep.values" in err and "path." not in err
    assert "Traceback" not in err


def test_sweep_n_steps_convergence(tmp_path):
    out = str(tmp_path / "out")
    cfg = sweep_cfg(helix_cfg(out), "n_steps", [512, 1024])
    config = write_config(tmp_path, "nsweep.json", cfg)
    assert main(["sweep", config, "--quiet"]) == 0
    rows = read_summary(out)["rows"]
    assert rows[0]["n_steps"] == 512 and rows[1]["n_steps"] == 1024
    # stencils are second order; constant-speed circles superconverge, so the
    # ratio is at least ~4 unless the residual already sits at rounding
    assert rows[1]["motion_ratio"] > 3.5 or rows[1]["motion_at_rounding_floor"]
    assert rows[1]["invariant_ratio"] > 3.5 or rows[1]["invariant_at_rounding_floor"]
    assert rows[1]["max_motion_residual"] < 1e-3
    assert rows[1]["max_invariant_residual"] < 1e-3


def test_sweep_n_steps_exact_zero_residual_stays_valid_json(tmp_path):
    # on the pole the residuals are exactly zero: no ratio, and no Infinity in summary.json
    out = tmp_path / "out"
    cfg = sweep_cfg(helix_cfg(str(out)), "n_steps", [128, 256])
    cfg["path"]["cone_angle"] = 0.0
    config = write_config(tmp_path, "pole_sweep.json", cfg)
    assert main(["sweep", config, "--quiet"]) == 0
    rows = _strict_json((out / "summary.json").read_text())["rows"]
    assert rows[1]["max_invariant_residual"] == 0.0
    assert rows[1]["invariant_ratio"] is None and rows[1]["invariant_order"] is None
    assert rows[1]["invariant_at_rounding_floor"]


def test_sweep_occupations_linear(tmp_path):
    out = str(tmp_path / "out")
    cfg = sweep_cfg(helix_cfg(out), "occupations", [[0, n] for n in range(5)])
    cfg["path"]["n_steps"] = 256
    config = write_config(tmp_path, "osweep.json", cfg)
    assert main(["sweep", config, "--quiet"]) == 0
    rows = read_summary(out)["rows"]
    slope = 2.0 * np.pi * (1.0 - np.cos(np.pi / 3))
    for n, row in enumerate(rows):
        assert row["n_right"] == n
        assert abs(row["quantal"] - n * slope) < 1e-6


@pytest.mark.parametrize("ordering", ["symmetric", "normal"])
def test_sweep_occupations_matches_inline_weights(tmp_path, ordering):
    from fiberphase import geometry
    from fiberphase.scenario import _fmt, build_path

    out = tmp_path / "out"
    pairs = [[3, 1], [0, 0], [0, 2], [7, 4]]
    cfg = sweep_cfg(helix_cfg(str(out), ordering=ordering), "occupations", pairs)
    cfg["path"]["n_steps"] = 256
    config = write_config(tmp_path, "osweep.json", cfg)
    assert main(["sweep", config, "--quiet"]) == 0

    # the weights as they were written inline before the sweep reused fock._weight;
    # + 0.0 writes a zero phase as 0.0, never -0.0
    swept = float(geometry.spherical_angles(build_path(cfg)).solid_angle[-1])
    half = 0.5 if ordering == "symmetric" else 0.0
    expected = [
        {"n_left": nl, "n_right": nr, "quantal": float((nr - nl) * swept) + 0.0,
         "phi_left": -(nl + half) * swept + 0.0, "phi_right": +(nr + half) * swept + 0.0}
        for nl, nr in sorted(pairs)
    ]
    assert read_summary(str(out))["rows"] == expected
    lines = ["n_left,n_right,quantal,phi_left,phi_right"] + [
        f"{r['n_left']},{r['n_right']},{_fmt(r['quantal'])},{_fmt(r['phi_left'])},{_fmt(r['phi_right'])}"
        for r in expected
    ]
    assert (out / "sweep.csv").read_text() == "\n".join(lines) + "\n"


def test_occupations_sweep_with_non_finite_W_exits_3_without_writing(tmp_path):
    # a time step of 1e-310 overflows the azimuth rate, so W is inf: the sweep
    # wrote 0,1,inf,-inf,inf to sweep.csv before summary.json failed
    phi = 2.0 * np.pi * np.arange(200) / 199
    k = np.stack([np.sin(1.0) * np.cos(phi), np.sin(1.0) * np.sin(phi), np.full(200, np.cos(1.0))], axis=1)
    np.savetxt(tmp_path / "loop.txt", np.column_stack([1e-310 * np.arange(200), k]), fmt="%.17g")
    out = tmp_path / "out"
    cfg = {"path": {"type": "file", "filename": "loop.txt"}, "ordering": "symmetric", "output_dir": str(out),
           "sweep": {"parameter": "occupations", "values": [[0, 1]]}}
    proc = _fiberphase("sweep", write_config(tmp_path, "tiny_dt.json", cfg), "--quiet")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "numerical failure: non-finite value detected in results\n"
    assert not out.exists()


def test_sweep_requires_sweep_section(tmp_path):
    config = write_config(tmp_path, "nosweep.json", helix_cfg("out"))
    assert main(["sweep", config]) == 2


def test_sweep_rejects_empty_values(tmp_path):
    cfg = helix_cfg("out")
    cfg["sweep"] = {"parameter": "cone_angle", "values": []}
    config = write_config(tmp_path, "empty.json", cfg)
    assert main(["sweep", config]) == 2


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_non_string_output_dir_exits_2(tmp_path, monkeypatch, capsys, command):
    # the config's output_dir is checked also when --out overrides it
    monkeypatch.chdir(tmp_path)
    cfg = helix_cfg(5)
    cfg["path"]["n_steps"] = 128
    cfg["sweep"] = {"parameter": "cone_angle", "values": ["30 deg"]}
    config = write_config(tmp_path, "outdir.json", cfg)
    for extra in ([], ["--out", "given"]):
        assert main([command, config, "--quiet", *extra]) == 2, extra
        err = capsys.readouterr().err
        assert "output_dir: expected a string, got 5" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("summary.json"))


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_empty_output_dir_exits_2(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    # an empty output_dir in the config, also under a valid --out, and an explicit --out "" over a valid one
    for output_dir, extra in (("", []), ("", ["--out", "given"]), ("out", ["--out", ""])):
        cfg = helix_cfg(output_dir)
        cfg["path"]["n_steps"] = 128
        cfg["sweep"] = {"parameter": "cone_angle", "values": ["30 deg"]}
        config = write_config(tmp_path, "outdir.json", cfg)
        assert main([command, config, "--quiet", *extra]) == 2, extra
        err = capsys.readouterr().err
        assert "output_dir: expected a directory name, got ''" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("summary.json"))


@pytest.mark.parametrize("values", [[1.0, -1], [1, -1.0], [True]])
def test_non_integer_polarizations_exit_2(tmp_path, capsys, values):
    out = tmp_path / "out"
    cfg = helix_cfg(str(out), polarizations=values)
    cfg["path"]["n_steps"] = 128
    config = write_config(tmp_path, "pols.json", cfg)
    assert main(["run", config, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "polarizations" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("n", [2**52, 10**400, -1, 1.0, True], ids=["2**52", "10**400", "-1", "1.0", "true"])
@pytest.mark.parametrize("side", ["n_left", "n_right"])
def test_out_of_range_occupation_exits_2(tmp_path, capsys, side, n):
    out = tmp_path / "out"
    occupations = {"n_left": 0, "n_right": 0, side: n}
    cfg = helix_cfg(str(out), occupations=occupations)
    cfg["path"]["n_steps"] = 128
    config = write_config(tmp_path, "occ.json", cfg)
    assert main(["run", config, "--quiet"]) == 2
    pair = [occupations["n_left"], occupations["n_right"]]
    config = write_config(tmp_path, "occ_sweep.json", sweep_cfg(cfg, "occupations", [[0, 1], pair]))
    assert main(["sweep", config, "--quiet"]) == 2
    run_err, sweep_err = capsys.readouterr().err.splitlines()
    assert f"occupations.{side}:" in run_err
    assert f"sweep.values: {side}:" in sweep_err
    assert "Traceback" not in run_err + sweep_err
    assert not out.exists()


def test_largest_exact_occupation_is_accepted(tmp_path):
    out = tmp_path / "out"
    n = 2**52 - 1
    cfg = helix_cfg(str(out), occupations={"n_left": n, "n_right": 0})
    cfg["path"]["n_steps"] = 128
    assert main(["run", write_config(tmp_path, "occ.json", cfg), "--quiet"]) == 0
    assert read_summary(str(out))["occupations"]["n_left"] == n
    config = write_config(tmp_path, "occ_sweep.json", sweep_cfg(cfg, "occupations", [[0, n]]))
    assert main(["sweep", config, "--quiet"]) == 0
    assert read_summary(str(out))["rows"][0]["n_right"] == n


@pytest.mark.parametrize("key", ["eps3", "mu3", "epsilon1"])
def test_unknown_medium_key_exits_2(tmp_path, capsys, key):
    out = tmp_path / "out"
    cfg = helix_cfg(str(out), medium={"eps1": 2.0, "eps2": 3.0, "mu1": 2.0, "mu2": 1.0, key: 1.0})
    cfg["path"]["n_steps"] = 128
    config = write_config(tmp_path, "medium.json", cfg)
    assert main(["run", config, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"medium.{key}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, path", [
    ("run", None, "ordring", None),
    ("sweep", None, "ordring", None),
    ("run", "occupations", "n_lft", None),
    ("run", "path", "radius", None),
    ("sweep", "path", "n_step", None),
    ("run", "path", "n_steps", {"type": "file", "filename": "traj.txt"}),  # the keys depend on the path type
    ("sweep", "sweep", "value", None),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, command, section, key, path):
    out = tmp_path / "out"
    cfg = helix_cfg(str(out))
    cfg["path"]["n_steps"] = 128
    if path is not None:
        cfg["path"] = path
    cfg["sweep"] = {"parameter": "cone_angle", "values": ["30 deg"]}
    (cfg if section is None else cfg[section])[key] = 3
    config = write_config(tmp_path, "typo.json", cfg)
    assert main([command, config, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{key if section is None else f'{section}.{key}'}: unknown key" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("content", [b'{"path": "\xff"}', b"[" * 100_000], ids=["not-utf8", "deep-nesting"])
def test_unreadable_config_exits_2_without_traceback(tmp_path, capsys, content):
    config = tmp_path / "bad.json"
    config.write_bytes(content)
    assert main(["run", str(config), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {config}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("parameter, values", [
    ("cone_angle", ["30 deg"]),
    ("n_steps", [128]),
    ("occupations", [[0, 1]]),
])
@pytest.mark.parametrize("field, value", [
    ("polarizations", "garbage"),
    ("ordering", "sideways"),
    ("k0", -1),
    ("medium", [3]),
])
def test_sweep_validates_common_fields(tmp_path, capsys, parameter, values, field, value):
    out = tmp_path / "out"
    cfg = helix_cfg(str(out), **{field: value})
    cfg["path"]["n_steps"] = 128
    cfg["sweep"] = {"parameter": parameter, "values": values}
    config = write_config(tmp_path, "common.json", cfg)
    assert main(["sweep", config, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"{field}:" in err
    assert "Traceback" not in err
    assert not out.exists()


# a valid value of every field that some sweep never reads
READ_BY_CONE_SWEEP = {
    "polarizations": [1],
    "occupations": {"n_left": 0, "n_right": 1},
    "ordering": "normal",
    "medium": {"eps1": 2.0, "eps2": 3.0, "mu1": 2.0, "mu2": 1.0},
    "k0": 2.0,
    "chamber_length": 10.0,
}


@pytest.mark.parametrize("command, parameter, field", [
    ("run", None, "sweep"),
    *(("sweep", parameter, field) for parameter, fields in UNREAD_BY_SWEEP.items() for field in fields),
])
def test_unread_config_field_exits_2(tmp_path, capsys, command, parameter, field):
    out = tmp_path / "out"
    cfg = {"path": helix_cfg(None)["path"], "output_dir": str(out)}
    cfg["path"]["n_steps"] = 128
    if command == "run":
        control, accepted = "run", dict(cfg)
        cfg["sweep"] = {"parameter": "cone_angle", "values": ["30 deg"]}
    else:
        values = {"n_steps": [128], "occupations": [[0, 1]]}[parameter]
        control = "sweep"
        accepted = {**cfg, field: READ_BY_CONE_SWEEP[field], "sweep": {"parameter": "cone_angle", "values": [1.0]}}
        cfg = {**sweep_cfg(cfg, parameter, values), field: READ_BY_CONE_SWEEP[field]}
    assert main([command, write_config(tmp_path, "unread.json", cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: not read by "), err
    assert "Traceback" not in err
    assert not out.exists()
    # the same field is accepted where it is read: by a run, or by a cone_angle sweep
    assert main([control, write_config(tmp_path, "read.json", accepted), "--quiet"]) == 0


@pytest.mark.parametrize("parameter", ["cone_angle", "n_steps"])
@pytest.mark.parametrize("section", [[1], "helix", None])
def test_sweep_non_object_path_exits_2(tmp_path, monkeypatch, capsys, parameter, section):
    monkeypatch.chdir(tmp_path)
    cfg = helix_cfg("out", path=section)
    cfg["sweep"] = {"parameter": parameter, "values": [128]}
    config = write_config(tmp_path, "badpath.json", cfg)
    assert main(["sweep", config, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"path: expected dict, got {section!r}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.rglob("summary.json"))


# ---------------------------------------------------------------------- check

def test_check_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_check_measures_what_each_step_conserves(capsys):
    # results.csv writes no drift and no dynamical phase: the check prints
    # each as evolve measures it, with acceptance criterion 7's bounds
    assert main(["check"]) == 0
    lines = {line.split(": ")[0]: line.split(": ")[-1] for line in capsys.readouterr().out.splitlines()}
    for name, bound in (("PASS  evolve's norm drift there, max |norm - 1|", "1e-10"),
                        ("PASS  evolve's helicity drift there", "1e-05"),
                        ("PASS  evolve's dynamical phase there, max |phase|", "1e-10")):
        value, limit = lines[name].split(" <= ")
        assert limit == bound and float(value) <= 1e-14, name


@pytest.mark.parametrize("series", ["norms", "helicity", "dynamical"])
def test_check_fails_on_a_drifting_trajectory(monkeypatch, capsys, series):
    # a trajectory whose series drifts past its bound fails the check with exit 3
    from fiberphase import evolution

    evolve = evolution.evolve

    def drifting(path, polarization):
        traj = evolve(path, polarization)
        drift = np.linspace(0.0, 2e-5, path.n_samples)  # past every bound at the last row
        return traj._replace(**{series: getattr(traj, series) + drift})

    monkeypatch.setattr(evolution, "evolve", drifting)
    assert main(["check"]) == 3
    captured = capsys.readouterr()
    failed = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
    # the geometric phase is total - dynamical, so a drifting dynamical phase also moves the cycle phase
    want = {"norms": ["norm drift"], "helicity": ["helicity drift"], "dynamical": ["cycle phase", "dynamical phase"]}
    assert len(failed) == len(want[series]) and all(w in f for w, f in zip(want[series], failed)), failed
    assert captured.err == "self-check failed\n"


def test_check_quiet_is_silent(capsys):
    assert main(["check", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


# --------------------------------------------------------------- entry point

def test_module_entry_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "fiberphase", "check", "--quiet"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0
