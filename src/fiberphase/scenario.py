"""Config-driven pipelines behind the command-line front end.

A scenario is a JSON file naming one path source (helix parameters or a
trajectory file), the polarizations to transport, the mode occupations and
ordering, and optionally a gyrotropic medium plus chamber length.  ``run``
produces results.csv / summary.json / plot_*.dat in the output directory;
``sweep`` repeats the pipeline over one swept parameter.  All emitted files
are byte-deterministic for a given config.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from collections.abc import Callable
from contextlib import ExitStack
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from . import evolution, fock, geometry, media, spin

SCHEMA_VERSION = 1

RESULT_COLUMNS = [
    "sigma",
    "t",
    "lambda",
    "gamma",
    "phase_total",
    "phase_dynamical",
    "phase_geometric",
    "phase_analytic",
    "phase_quantal",
    "phase_vacuum_L",
    "phase_vacuum_R",
    "phase_vacuum_net",
    "norm_drift",
    "helicity_drift",
    "invariant_residual",
    "motion_residual",
    "flagged",
]

_SIGMA_SUFFIX = {+1: "R", -1: "L"}


class ScenarioError(Exception):
    """The configuration is invalid; the message names the offending field."""


class NumericalError(Exception):
    """A non-finite value appeared in computed results."""


def parse_angle(value, field):
    """Angle in radians from a number, or from a string with a 'deg' suffix."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        body = value.strip()
        if body.endswith("deg"):
            try:
                return float(body[:-3].strip()) * np.pi / 180.0
            except ValueError:
                raise ScenarioError(f"{field}: cannot parse degrees value {value!r}") from None
        raise ScenarioError(f"{field}: angle strings must end in 'deg', got {value!r}")
    raise ScenarioError(f"{field}: expected a number or 'NNN deg' string, got {value!r}")


def _require(cfg, key, check, field=None):
    """``cfg[key]``, checked by ``check``: a type, or a function of the value and ``field`` (default ``key``)."""
    field = field or key
    if key not in cfg:
        raise ScenarioError(f"missing required field '{field}'")
    value = cfg[key]
    if not isinstance(check, type):
        return check(value, field)
    if not isinstance(value, check):
        raise ScenarioError(f"{field}: expected {check.__name__}, got {value!r}")
    return value


def _number(value, field):
    """``value`` as a float if it is an int or a float (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{field}: expected a number, got {value!r}")
    return float(value)


def _check_keys(section, known, prefix=""):
    """Reject the first key of ``section`` that is not in ``known``, naming it ``prefix + key``."""
    for key in section:
        if key not in known:
            raise ScenarioError(f"{prefix}{key}: unknown key; expected {', '.join(known)}")


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ScenarioError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioError(f"{path}: nested too deeply to parse") from None
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{path}: top level must be an object")
    _check_keys(cfg, ("path", "polarizations", "occupations", "ordering", "medium", "k0", "chamber_length",
                      "output_dir", "sweep"))
    return cfg


def _cone_angle(value, field):
    """A helix cone half-angle in [0, pi], from a number or a 'NNN deg' string."""
    cone = parse_angle(value, field)
    if not 0.0 <= cone <= np.pi:
        raise ScenarioError(f"{field}: cone angle must lie in [0, pi], got {cone!r}")
    return cone


def _n_steps(value, field):
    """A helix step count: an integer of at least 64."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{field}: expected an integer, got {value!r}")
    if value < 64:
        raise ScenarioError(f"{field}: at least 64 steps required, got {value}")
    return value


def build_path(cfg, base_dir=".") -> geometry.FiberPath:
    section = _require(cfg, "path", dict)
    kind = section.get("type")
    if kind == "helix":
        _check_keys(section, ("type", "cone_angle", "omega", "k_mag", "n_cycles", "n_steps"), "path.")
        cone = _require(section, "cone_angle", _cone_angle, "path.cone_angle")
        n_steps = _require(section, "n_steps", _n_steps, "path.n_steps")
        try:
            return geometry.helix_path(
                cone_angle=cone,
                omega=_require(section, "omega", _number, "path.omega"),
                k_mag=_require(section, "k_mag", _number, "path.k_mag"),
                n_cycles=_require(section, "n_cycles", _number, "path.n_cycles"),
                n_steps=n_steps,
            )
        except ValueError as exc:
            raise ScenarioError(f"path: {exc}") from None
    if kind == "file":
        _check_keys(section, ("type", "filename"), "path.")
        filename = _require(section, "filename", str, "path.filename")
        if not os.path.isabs(filename):
            filename = os.path.join(base_dir, filename)
        try:
            loaded = geometry.load_path(filename)
        except ValueError as exc:
            raise ScenarioError(f"path.filename: {exc}") from None
        if loaded.n_samples < 65:
            raise ScenarioError(f"path.filename: at least 64 steps required, file has {loaded.n_samples - 1}")
        return loaded
    raise ScenarioError(f"path.type must be 'helix' or 'file', got {kind!r}")


def _parse_polarizations(cfg):
    values = cfg.get("polarizations", [+1, -1])
    if not isinstance(values, list) or not values:
        raise ScenarioError(f"polarizations: expected a nonempty list, got {values!r}")
    out = []
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int) or v not in (-1, +1):
            raise ScenarioError(f"polarizations: entries must be the integers 1 or -1, got {v!r}")
        if v not in out:
            out.append(v)
    return tuple(out)


def _occupation(n, field):
    try:
        return fock._check_occupation(n, field)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def _parse_occupations(cfg):
    occ = cfg.get("occupations", {"n_left": 0, "n_right": 0})
    if not isinstance(occ, dict):
        raise ScenarioError(f"occupations: expected an object, got {occ!r}")
    _check_keys(occ, ("n_left", "n_right"), "occupations.")
    return (_occupation(occ.get("n_left", 0), "occupations.n_left"),
            _occupation(occ.get("n_right", 0), "occupations.n_right"))


def _parse_medium(cfg):
    raw = cfg.get("medium")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ScenarioError(f"medium: expected an object, got {raw!r}")
    _check_keys(raw, ("eps1", "eps2", "mu1", "mu2"), "medium.")
    kwargs = {name: _require(raw, name, _number, f"medium.{name}") for name in raw}
    for name in ("eps1", "eps2"):
        if name not in kwargs:
            raise ScenarioError(f"medium.{name}: required when a medium is given")
    try:
        return media.GyrotropicMedium(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"medium: {exc}") from None


def _positive_number(value, field):
    """``value`` as a float if it is a finite positive number (NaN and Infinity are not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (0 < value < float("inf")):
        raise ScenarioError(f"{field}: expected a positive finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Scenario:
    """The parsed config fields that every point of a run or sweep shares."""

    polarizations: tuple[int, ...]
    n_left: int
    n_right: int
    ordering: fock.Ordering
    medium: media.GyrotropicMedium | None
    k0: float
    chamber_length: float | None


def _parse_common(cfg) -> Scenario:
    pols = _parse_polarizations(cfg)
    nl, nr = _parse_occupations(cfg)
    try:
        ordering = fock.Ordering.coerce(cfg.get("ordering", "symmetric"))
    except ValueError as exc:
        raise ScenarioError(f"ordering: {exc}") from None
    medium = _parse_medium(cfg)
    k0 = _positive_number(cfg.get("k0", 1.0), "k0")
    if medium is not None:  # summary.json reports both n^2 and both k = n k0
        n2 = media.refractive_indices_squared(medium)
        if not np.isfinite(n2).all():
            raise ScenarioError(f"medium: refractive indices squared must be finite, got {n2[0]!r} and {n2[1]!r}")
        if not all(np.isfinite(media.effective_wave_vector(medium, k0, pol) or 0.0) for pol in (+1, -1)):
            raise ScenarioError(f"k0: the in-medium wave vector n k0 overflows float64 (k0 = {k0!r})")
    chamber = cfg.get("chamber_length")
    if chamber is not None:
        chamber = _positive_number(chamber, "chamber_length")
    return Scenario(pols, nl, nr, ordering, medium, k0, chamber)


FREE_SPACE = media.GyrotropicMedium(eps1=1.0, eps2=0.0, mu1=1.0, mu2=0.0)


@dataclass(frozen=True)
class Column:
    """A results column of ``length`` rows: rows [start, stop) are ``rows(start, stop)[index] * weight + 0.0``.

    ``rows`` gives rows of a tuple of series: ``FiberPath.rows``, or the
    ``read`` of a ``geometry._OrderedRows``, in order from row 0.  A column
    is read only by a slice of rows, so no reader builds a full-length
    temporary.  The multiples of one series share its ``rows`` and
    ``index``, so ``(rows, index, abs(weight))`` keys the distinct values of
    a table.  The + 0.0 turns -0.0 into 0.0 and nothing else.
    """

    rows: Callable[[int, int], tuple]
    length: int
    index: int = 0
    weight: float = 1.0

    def __getitem__(self, index: slice) -> np.ndarray:
        start, stop, _ = index.indices(self.length)
        return self.rows(start, stop)[self.index] * self.weight + 0.0


def _residuals(path):
    """The two residual columns of ``path``, computed together from its ``k_hat`` rows when read."""
    read = evolution._ResidualRows(path).read
    return {
        "invariant_residual": Column(read, path.n_samples, 0),
        "motion_residual": Column(read, path.n_samples, 1),
    }


def compute_scenario(path, scenario: Scenario, hold: bool = True):
    """Set up every pipeline stage on one path; returns one results.csv table per polarization.

    ``tables[pol]`` maps every results.csv column after ``sigma`` to a
    :class:`Column`.  The phases proportional to the swept solid angle read
    the one ``W``, with weights sigma (analytic), n_R - n_L (quantal), -+z
    (vacuum L/R) and z * (plus survives - minus survives) (vacuum net),
    where z is the zero-point weight: 1/2, or 0 under normal ordering.
    Only the first polarization is evolved: every step is a real rotation
    in the Cartesian representation, so the opposite helicity is the
    conjugate state, psi_{-s} = e^{i a} conj psi_s.  Its total, dynamical
    and geometric phases are the first's with weight -1, and it shares the
    drifts (<S> only flips sign) and flags.  Every other weight is 1.

    With ``hold`` (a run, whose reduction and writer passes all read the
    trajectory) one scan fills its five series into arrays the result
    holds; without it (a sweep point, whose reduction is its one pass) the
    phase, drift and flag columns, which read one
    ``evolution._TrajectoryRows``, scan them a tile at a time in each pass.
    The residuals are computed from ``k_hat``, and ``lambda``, ``gamma``
    and ``W`` read one ``geometry._AngleRows``, one pass of which gives the
    final ``W`` of the net vacuum phase here.  :func:`summarize` prints the
    warnings of flagged samples once its reduction has counted them.
    """
    n = path.n_samples
    first = scenario.polarizations[0]
    traj = evolution._TrajectoryRows(path, first, hold).read
    reader = geometry._AngleRows(path)
    net = media._net_vacuum_phase(scenario.medium or FREE_SPACE, scenario.k0, reader.final_solid_angle(),
                                  scenario.chamber_length, scenario.ordering)
    angles = reader.read
    z = fock._weight(0, scenario.ordering)
    shared = {
        "t": Column(path.rows, n),
        "lambda": Column(angles, n, 0),
        "gamma": Column(angles, n, 1),
        "phase_quantal": Column(angles, n, 2, float(scenario.n_right - scenario.n_left)),
        "phase_vacuum_L": Column(angles, n, 2, -z),
        "phase_vacuum_R": Column(angles, n, 2, +z),
        "phase_vacuum_net": Column(angles, n, 2, z * (net.plus_survives - net.minus_survives)),
        "norm_drift": Column(traj, n, 4),
        "helicity_drift": Column(traj, n, 5),
        **_residuals(path),
        "flagged": Column(traj, n, 1),
    }
    tables = {}
    for pol in scenario.polarizations:
        sign = 1.0 if pol == first else -1.0
        tables[pol] = {
            **shared,
            **{name: Column(traj, n, index, sign)
               for name, index in (("phase_total", 0), ("phase_dynamical", 2), ("phase_geometric", 3))},
            "phase_analytic": Column(angles, n, 2, float(pol)),
        }
    return {
        "tables": tables,
        "vacuum_net": net,
        "mode_status": media.mode_status(scenario.medium) if scenario.medium is not None else None,
    }


def _reduce(columns):
    """Dicts of each distinct column's last value, maximum and number of nonzero rows.

    Every column has the same length, and the pass reads one quarter chunk
    of rows (``geometry._stencil_slices``) of every distinct column before
    the next, as the writer reads its chunks, so a reader that serves
    several columns computes each chunk once and keeps only one quarter
    chunk.  Raises NumericalError on a non-finite value; a command reduces
    its columns before it writes a file, so a failure leaves no file behind.
    """
    columns = list(dict.fromkeys(columns))
    last, peak, nonzero = dict.fromkeys(columns), dict.fromkeys(columns, -np.inf), dict.fromkeys(columns, 0)
    for rows in geometry._stencil_slices(0, columns[0].length):
        for column in columns:
            values = column[rows]
            if not np.isfinite(values).all():
                raise NumericalError("non-finite value detected in results")
            peak[column] = max(peak[column], float(values.max()))
            nonzero[column] += int(np.count_nonzero(values))
            last[column] = float(values[-1])
    return last, peak, nonzero


_fmt = float.__repr__  # a float field: the shortest text that reads back as the same double, as in summary.json


def _negated(strings):
    """The fields of -x from those of finite x: IEEE negation is exact, and the + 0.0 keeps zero '0.0'."""
    return [s[1:] if s[0] == "-" else s if s == "0.0" else "-" + s for s in strings]


_WRITE_ROWS = 256  # samples per writer chunk, whose columns are held as lists of strings


def write_results_csv(out_dir, result):
    """Write results.csv and every plot file in one pass, formatting each distinct column once per chunk.

    A column whose weight is the negative of a column already formatted in
    the chunk takes its strings with each leading '-' toggled.  results.csv
    lists each polarization's rows in turn, so a later one's rows go to an
    unnamed temporary file in ``out_dir``, appended at the end and gone on
    every exit path.  The plots of the columns every table shares (quantal,
    net vacuum) go with the first table.  One chunk of strings is held at a time.
    """
    tables = result["tables"]
    first, *later = tables
    columns = list(dict.fromkeys(table[name] for table in tables.values() for name in RESULT_COLUMNS[1:-1]))
    names = [(pol, kind, f"{kind}_{_SIGMA_SUFFIX[pol]}") for pol in tables for kind in ("total", "geometric", "analytic")]
    names += [(first, kind, kind) for kind in ("quantal", "vacuum_net")]
    with ExitStack() as stack:
        def open_text(name):
            return stack.enter_context(open(os.path.join(out_dir, name), "w", newline="\n"))

        sinks = {first: open_text("results.csv")}
        sinks |= {pol: stack.enter_context(tempfile.TemporaryFile("w+", newline="\n", dir=out_dir)) for pol in later}
        plots = [(open_text(f"plot_{name}.dat"), tables[pol]["t"], tables[pol][f"phase_{kind}"]) for pol, kind, name in names]
        sinks[first].write(",".join(RESULT_COLUMNS) + "\n")
        for rows in geometry._row_slices(0, tables[first]["t"].length, _WRITE_ROWS):
            text = {}
            for column in columns:
                mirror = text.get(replace(column, weight=-column.weight))
                text[column] = _negated(mirror) if mirror is not None else list(map(_fmt, column[rows].tolist()))
            for pol, table in tables.items():
                flags = ["1" if flag else "0" for flag in table["flagged"][rows].tolist()]
                fields = zip(repeat(str(pol)), *(text[table[name]] for name in RESULT_COLUMNS[1:-1]), flags)
                sinks[pol].write("\n".join(map(",".join, fields)) + "\n")
            for fh, t, column in plots:
                fh.write("\n".join(map(" ".join, zip(text[t], text[column]))) + "\n")
        for pol in later:
            sinks[pol].seek(0)
            shutil.copyfileobj(sinks[pol], sinks[first])


def summarize(result, path, scenario: Scenario):
    """The summary of a result; its one read of every column raises NumericalError on a non-finite value.

    Once that read has counted each polarization's flagged samples, their
    orthogonal-passage warnings are printed to stderr.
    """
    tables = result["tables"]
    t_first, t_last = (path.rows(i, i + 1)[0][0] for i in (0, path.n_samples - 1))
    last, peak, nonzero = _reduce(column for table in tables.values() for column in table.values())
    phases = {}
    for pol, table in tables.items():
        phases[f"{pol:+d}"] = {
            **{kind: last[table[f"phase_{kind}"]] for kind in ("total", "dynamical", "geometric", "analytic")},
            "flagged_samples": nonzero[table["flagged"]],
            "max_norm_drift": peak[table["norm_drift"]],
            "max_helicity_drift": peak[table["helicity_drift"]],
        }
        if count := nonzero[table["flagged"]]:
            print(f"warning: sigma={pol:+d}: {evolution._passage_warning(count)}", file=sys.stderr)
    shared = tables[scenario.polarizations[0]]  # the columns every table shares
    net = result["vacuum_net"]
    summary = {
        "schema_version": SCHEMA_VERSION,
        "path": {
            "n_samples": path.n_samples,
            "dt": path.dt,
            "k_mag": path.k_mag,
            "duration": float(t_last - t_first),
        },
        "ordering": scenario.ordering.value,
        "occupations": {"n_left": scenario.n_left, "n_right": scenario.n_right},
        "phases": phases,
        "quantal_final": last[shared["phase_quantal"]],
        "vacuum": {
            "left_final": last[shared["phase_vacuum_L"]],
            "right_final": last[shared["phase_vacuum_R"]],
            "net_final": float(net.phase),
            "plus_survives": bool(net.plus_survives),
            "minus_survives": bool(net.minus_survives),
            "no_propagating_modes": bool(net.no_propagating_modes),
        },
        "diagnostics": {
            "max_invariant_residual": peak[shared["invariant_residual"]],
            "max_motion_residual": peak[shared["motion_residual"]],
        },
        "k0": scenario.k0,
        "chamber_length": scenario.chamber_length,
        "medium": None,
    }
    status = result["mode_status"]
    if status is not None:
        summary["medium"] = {
            "n2_plus": float(status.n2_plus),
            "n2_minus": float(status.n2_minus),
            "plus_propagates": bool(status.plus_propagates),
            "minus_propagates": bool(status.minus_propagates),
            "k_plus": media.effective_wave_vector(scenario.medium, scenario.k0, +1),
            "k_minus": media.effective_wave_vector(scenario.medium, scenario.k0, -1),
        }
    return summary


def _write_summary(out_dir, summary):
    try:
        text = json.dumps(summary, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise NumericalError("non-finite value in summary.json") from None
    with open(os.path.join(out_dir, "summary.json"), "w", newline="\n") as fh:
        fh.write(text + "\n")


def _output_dir(cfg, out_dir):
    """``out_dir`` if given, else the config's ``output_dir`` (default 'out'), as a nonempty string."""
    if out_dir is None:
        out_dir = cfg.get("output_dir", "out")
    if not isinstance(out_dir, str):
        raise ScenarioError(f"output_dir: expected a string, got {out_dir!r}")
    if not out_dir:
        raise ScenarioError("output_dir: expected a directory name, got ''")
    return out_dir


@np.errstate(all="ignore")  # no floating-point warnings: _reduce reports a non-finite value, once
def run_scenario(config_path, out_dir=None, quiet=False) -> dict:
    """Execute a 'run' scenario; returns the summary dict after writing files."""
    cfg = load_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    out_dir = _output_dir(cfg, out_dir)
    path = build_path(cfg, base_dir)
    scenario = _parse_common(cfg)
    if "sweep" in cfg:
        raise ScenarioError("sweep: not read by 'run'; remove it, or use 'fiberphase sweep'")

    result = compute_scenario(path, scenario)
    summary = summarize(result, path, scenario)
    summary["command"] = "run"

    os.makedirs(out_dir, exist_ok=True)
    write_results_csv(out_dir, result)
    _write_summary(out_dir, summary)
    if not quiet:
        print(f"wrote {out_dir}/results.csv, summary.json and plot files")
        for key in sorted(summary["phases"]):
            block = summary["phases"][key]
            print(f"  sigma {key}: geometric {block['geometric']:+.6f} rad (analytic {block['analytic']:+.6f})")
        print(f"  vacuum net {summary['vacuum']['net_final']:+.6f} rad")
    return summary


# The top-level fields a sweep over each parameter never reads; a config that
# gives one is rejected rather than silently ignored.
_UNREAD = {
    "cone_angle": (),
    "n_steps": ("polarizations", "occupations", "ordering", "medium", "k0", "chamber_length"),
    "occupations": ("occupations", "polarizations", "medium", "k0", "chamber_length"),
}
_SWEEPABLE = tuple(_UNREAD)


def _require_helix_path(cfg, parameter):
    """A cone_angle or n_steps sweep needs a helix; the swept field, if given, is checked as ``run`` does.

    Every point replaces ``path.<parameter>`` with its own value, so the
    field may be left out, but a value given there must still be valid.
    """
    section = _require(cfg, "path", dict)
    if section.get("type") != "helix":
        raise ScenarioError(f"sweep.parameter '{parameter}' needs a helix path source")
    if parameter in section:
        _SWEPT_CHECKS[parameter](section[parameter], f"path.{parameter}")


_SWEPT_CHECKS = {"cone_angle": _cone_angle, "n_steps": _n_steps}


# Each sweep point is computed in its own call, which returns only the point's
# row, so one point's path and arrays are freed before the next is built.

def _with_path_value(cfg, key, value):
    """``cfg`` with ``path[key]`` replaced; the other sections are shared, not copied."""
    return {**cfg, "path": {**cfg["path"], key: value}}


def _cone_row(cfg, base_dir, value, scenario):
    cone = _cone_angle(value, "sweep.values")
    path = build_path(_with_path_value(cfg, "cone_angle", cone), base_dir)
    summary = summarize(compute_scenario(path, scenario, hold=False), path, scenario)
    row = {"cone_angle": cone}
    for pol in scenario.polarizations:
        phases, suffix = summary["phases"][f"{pol:+d}"], _SIGMA_SUFFIX[pol]
        row[f"geometric_{suffix}"] = phases["geometric"]
        row[f"analytic_{suffix}"] = phases["analytic"]
        row[f"flagged_{suffix}"] = phases["flagged_samples"]
    row["quantal"] = summary["quantal_final"]
    row["vacuum_net"] = summary["vacuum"]["net_final"]
    return row


def _steps_row(cfg, base_dir, value):
    _n_steps(value, "sweep.values")
    path = build_path(_with_path_value(cfg, "n_steps", value), base_dir)
    residuals = _residuals(path)
    peak = _reduce(residuals.values())[1]
    return {"n_steps": value, **{f"max_{name}": peak[column] for name, column in residuals.items()}}


def _sweep_rows_steps(cfg, base_dir, values):
    rows = sorted((_steps_row(cfg, base_dir, value) for value in values), key=lambda r: r["n_steps"])
    for prev, row in zip([None, *rows], rows):  # no ratio for the first row, or to an exact zero
        for kind in ("invariant", "motion"):
            cur = row[f"max_{kind}_residual"]
            ratio = prev[f"max_{kind}_residual"] / cur if prev and cur > 0 else None
            row[f"{kind}_ratio"] = ratio
            row[f"{kind}_order"] = float(np.log2(ratio)) if ratio else None
            row[f"{kind}_at_rounding_floor"] = bool(cur < 1e-10)
    return rows


def _sweep_rows_occupations(cfg, base_dir, values, ordering):
    w = geometry._AngleRows(build_path(cfg, base_dir)).final_solid_angle()  # each phase is a multiple of it
    rows = []
    for pair in values:
        if (not isinstance(pair, list)) or len(pair) != 2:
            raise ScenarioError(f"sweep.values: occupation entries must be [n_left, n_right] pairs, got {pair!r}")
        nl = _occupation(pair[0], "sweep.values: n_left")
        nr = _occupation(pair[1], "sweep.values: n_right")
        rows.append({
            "n_left": nl,
            "n_right": nr,
            "quantal": float(w * float(nr - nl) + 0.0),  # + 0.0 as in a column
            "phi_left": float(w * -fock._weight(nl, ordering) + 0.0),
            "phi_right": float(w * +fock._weight(nr, ordering) + 0.0),
        })
    if not np.isfinite(w):  # checked after the config and before any file is written, as _reduce is
        raise NumericalError("non-finite value detected in results")
    rows.sort(key=lambda r: (r["n_left"], r["n_right"]))
    return rows


def _cell(value) -> str:
    """A sweep.csv field: empty for None, 1 or 0 for a bool, an int as is, a float as in results.csv."""
    if value is None or isinstance(value, bool):
        return "" if value is None else str(int(value))
    return str(value) if isinstance(value, int) else _fmt(value)


@np.errstate(all="ignore")  # as run_scenario
def run_sweep(config_path, out_dir=None, quiet=False) -> dict:
    """Execute a 'sweep' scenario; one row per sweep point, sorted by key."""
    cfg = load_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    sweep = _require(cfg, "sweep", dict)
    _check_keys(sweep, ("parameter", "values"), "sweep.")
    parameter = sweep.get("parameter")
    if parameter not in _SWEEPABLE:
        raise ScenarioError(f"sweep.parameter must be one of {_SWEEPABLE}, got {parameter!r}")
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ScenarioError("sweep.values: expected a nonempty list")
    out_dir = _output_dir(cfg, out_dir)
    scenario = _parse_common(cfg)
    if parameter != "occupations":
        _require_helix_path(cfg, parameter)
    for key in cfg:
        if key in _UNREAD[parameter]:
            raise ScenarioError(f"{key}: not read by a sweep over '{parameter}'; remove it")

    if parameter == "cone_angle":
        rows = sorted((_cone_row(cfg, base_dir, value, scenario) for value in values), key=lambda r: r["cone_angle"])
    elif parameter == "n_steps":
        rows = _sweep_rows_steps(cfg, base_dir, values)
    else:
        rows = _sweep_rows_occupations(cfg, base_dir, values, scenario.ordering)

    os.makedirs(out_dir, exist_ok=True)
    lines = [",".join(rows[0])] + [",".join(map(_cell, row.values())) for row in rows]  # every row has one key order
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "parameter": parameter,
        "rows": rows,
    }
    _write_summary(out_dir, summary)
    if not quiet:
        print(f"wrote {out_dir}/sweep.csv and summary.json ({len(rows)} points)")
    return summary


def self_check(quiet=False) -> bool:
    """Deterministic self-test of the algebra and geometry invariants."""
    checks = []
    S = spin.spin1_matrices()

    comm = [
        np.abs(S.s1 @ S.s2 - S.s2 @ S.s1 - 1j * S.s3).max(),
        np.abs(S.s2 @ S.s3 - S.s3 @ S.s2 - 1j * S.s1).max(),
        np.abs(S.s3 @ S.s1 - S.s1 @ S.s3 - 1j * S.s2).max(),
    ]
    checks.append(("spin commutators S x S = iS", max(comm) <= 1e-15))
    casimir = np.abs(S.s1 @ S.s1 + S.s2 @ S.s2 + S.s3 @ S.s3 - 2 * np.eye(3)).max()
    checks.append(("spin Casimir S^2 = 2", casimir <= 1e-15))

    rng = np.random.default_rng(20240817)
    worst_herm, worst_eig, worst_res = 0.0, 0.0, 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        op = spin.helicity_operator(v, S)
        worst_herm = max(worst_herm, np.abs(op - op.conj().T).max())
        w = np.linalg.eigvalsh(op)
        worst_eig = max(worst_eig, np.abs(w - [-1.0, 0.0, 1.0]).max())
        basis = spin.helicity_eigenstates(v, S)
        for val, vec in ((-1, basis.e_minus), (0, basis.e_zero), (1, basis.e_plus)):
            worst_res = max(worst_res, np.linalg.norm(op @ vec - val * vec))
    checks.append(("helicity operator Hermitian (1000 random directions)", worst_herm < 1e-14))
    checks.append(("helicity spectrum {-1, 0, +1}", worst_eig < 1e-10))
    checks.append(("helicity eigenpair residuals", worst_res < 1e-12))

    d = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
    a = spin.helicity_eigenstates(d, S)
    b = spin.helicity_eigenstates(d, S)
    same = all(np.array_equal(x, y) for x, y in ((a.e_minus, b.e_minus), (a.e_zero, b.e_zero), (a.e_plus, b.e_plus)))
    checks.append(("gauge determinism (bitwise repeatable eigenvectors)", same))

    ok_roundtrip = True
    for cone in (0.1, np.pi / 3, np.pi / 2, 2.8):
        p = geometry.helix_path(cone, 1.0, 1.0, 2.0, 256)
        ang = geometry.spherical_angles(p)
        rebuilt = np.stack([
            np.sin(ang.polar) * np.cos(ang.azimuth),
            np.sin(ang.polar) * np.sin(ang.azimuth),
            np.cos(ang.polar),
        ], axis=1)
        ok_roundtrip &= bool(np.abs(rebuilt - p.k_hat).max() < 1e-9)
    checks.append(("helix angle round trip", ok_roundtrip))

    p = geometry.helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
    checks.append(("motion residual small on smooth path", float(geometry.motion_residual(p).max()) < 1e-3))
    checks.append(("invariant residual small on smooth path", float(evolution.invariant_residual_series(p).max()) < 1e-3))

    all_ok = True
    for name, ok in checks:
        all_ok &= ok
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return all_ok
