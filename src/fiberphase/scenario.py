"""Config-driven pipelines behind the command-line front end.

A scenario is a JSON file naming one path source (helix parameters or a
trajectory file), the polarizations to transport, the mode occupations and
ordering, and optionally a gyrotropic medium plus chamber length.  ``run``
writes results.csv (one row per sample) and summary.json to the output
directory in one pass over the path; ``sweep`` repeats the pipeline over
one swept parameter.  Each command checks its config before it computes
anything (``run`` rejects a ``sweep`` section once the path is built) and
commits its files through one ``_committed``, summary.json last; a failed
command leaves no file or directory of its own behind.  All emitted files
are byte-deterministic for a given config.
"""
from __future__ import annotations

import json
import os
import sys
from collections import deque
from contextlib import ExitStack, contextmanager, suppress
from functools import partial
from typing import NamedTuple

import numpy as np

from . import evolution, fock, geometry, media, spin

SCHEMA_VERSION = 2

_SIGMA_SUFFIX = {+1: "R", -1: "L"}


class ScenarioError(Exception):
    """The configuration is invalid; the message names the offending field."""


class NumericalError(Exception):
    """A non-finite value appeared in computed results."""


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
    """A helix cone half-angle in [0, pi], in radians from a number or from a string with a 'deg' suffix."""
    if isinstance(value, str):
        if not (body := value.strip()).endswith("deg"):
            raise ScenarioError(f"{field}: angle strings must end in 'deg', got {value!r}")
        try:
            cone = float(body[:-3].strip()) * np.pi / 180.0
        except ValueError:
            raise ScenarioError(f"{field}: cannot parse degrees value {value!r}") from None
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        cone = float(value)
    else:
        raise ScenarioError(f"{field}: expected a number or 'NNN deg' string, got {value!r}")
    try:
        geometry._check_cone_angle(cone)
    except ValueError:
        raise ScenarioError(f"{field}: cone angle must lie in [0, pi], got {cone!r}") from None
    return cone + 0.0  # -0.0 (from -0.0 or '-0 deg') is written as 0.0


def _n_steps(value, field):
    """A helix step count: an integer of at least 64 and below 2**53 (``geometry.helix_path``'s bound)."""
    if not geometry._is_integer(value):
        raise ScenarioError(f"{field}: expected an integer, got {value!r}")
    if value < 64:
        raise ScenarioError(f"{field}: at least 64 steps required, got {value}")
    if value >= 2**53:
        raise ScenarioError(f"{field}: expected fewer than 2**53 steps, got {value}")
    return value


# The helix fields, in the order of geometry.helix_path's parameters, each with its check.
_HELIX = {"cone_angle": _cone_angle, "omega": _number, "k_mag": _number, "n_cycles": _number, "n_steps": _n_steps}


def build_path(cfg, base_dir=".") -> geometry.FiberPath:
    section = _require(cfg, "path", dict)
    kind = section.get("type")
    if kind == "helix":
        _check_keys(section, ("type", *_HELIX), "path.")
        fields = {key: _require(section, key, check, f"path.{key}") for key, check in _HELIX.items()}
        try:
            return geometry.helix_path(**fields)
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
        try:
            spin._check_polarization(v)
        except ValueError:
            raise ScenarioError(f"polarizations: entries must be the integers 1 or -1, got {v!r}") from None
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


class Scenario(NamedTuple):
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


def _series(path, polarization):
    """One pass over the path: per chunk of rows, a dict of the series that the results columns read.

    Each chunk's window of rows (``geometry._windows``) is read once and
    handed to three kernels at once: the transport in closed form for
    ``polarization`` (total and flagged), the angles (lambda, gamma and W)
    and the invariant residual.  The last stage, the transport's hold
    (``evolution._unwrapped``), unwraps each chunk's total in place and
    hands its dict on once the flagged runs in it have met their next
    unflagged row.
    """
    angles = geometry._Angles(path.dt)

    def chunks():
        for total, flagged, window in evolution._fan(geometry._windows(path), polarization):
            polar, azimuth, w = angles(window)
            yield total, flagged, {"t": window[1], "lambda": polar, "gamma": azimuth, "W": w, "total": total,
                                   "flagged": flagged, "invariant_residual": geometry._invariant_residual(path, window)}

    for _, _, series in evolution._unwrapped(chunks()):
        yield series


def _values(series, column, rows=slice(None)):
    """Rows of a column (key, weight) of a chunk's ``series``: series[key][rows] * weight + 0.0 (never -0.0)."""
    key, weight = column
    return series[key][rows] * weight + 0.0


def compute_scenario(path, scenario: Scenario):
    """Set up every pipeline stage on one path; returns the results layout as one map, ``columns``.

    ``columns`` maps each results.csv header name, in order, to a column
    (key, weight) of the series of a pass (see ``_values``): t, lambda and
    gamma; phase_geometric and phase_analytic of each polarization in turn,
    suffixed R or L; then the columns every polarization shares: the
    quantal and vacuum phases, invariant_residual and flagged.  Every column
    reads a series the pass computes.  The phases proportional to the
    swept solid angle read the one ``W``, with weights sigma (analytic),
    n_R - n_L (quantal), -+z (vacuum L/R) and z * (plus survives - minus
    survives) (vacuum net), where z is the zero-point weight: 1/2, or 0
    under normal ordering.  Only the first polarization's transport is
    read: every step is a real rotation in the Cartesian representation, so
    the opposite helicity is the conjugate state, psi_{-s} = e^{i a} conj
    psi_s.  Its geometric phase is the first's with weight -1, and it
    shares the flags.  Every other weight is 1.

    ``series()`` starts a pass (``_series``), so the result holds no
    per-step series; a run's writer, which also reduces every column, and
    a cone sweep point's reduction are one pass each.  No row is read here:
    the survival flags need no ``W``, and the final net vacuum phase is the
    last row of its column.  :func:`summarize` prints the warnings of
    flagged samples once the reduction has counted them.
    """
    first = scenario.polarizations[0]
    medium = scenario.medium or FREE_SPACE
    plus, minus = (media._survives(medium, scenario.k0, scenario.chamber_length, pol) for pol in (+1, -1))
    z = fock._weight(0, scenario.ordering)
    columns = {name: (name, 1.0) for name in ("t", "lambda", "gamma")}
    for pol in scenario.polarizations:
        sign, suffix = 1.0 if pol == first else -1.0, _SIGMA_SUFFIX[pol]
        columns |= {f"phase_geometric_{suffix}": ("total", sign), f"phase_analytic_{suffix}": ("W", float(pol))}
    columns |= {
        "phase_quantal": ("W", float(scenario.n_right - scenario.n_left)),
        "phase_vacuum_L": ("W", -z),
        "phase_vacuum_R": ("W", +z),
        "phase_vacuum_net": ("W", z * (plus - minus)),
        **{name: (name, 1.0) for name in ("invariant_residual", "flagged")},
    }
    return {"columns": columns, "series": partial(_series, path, first), "survives": (plus, minus)}


def _reduce(chunks, columns, each=None):
    """Dicts of each distinct column's last value, maximum and number of nonzero rows, from one pass.

    ``chunks`` are a pass's dicts of series, one per chunk of rows; every
    distinct column of ``columns`` is computed from each chunk once, and
    the chunk is then handed to ``each``, if given (a run's writer).
    Raises NumericalError on a non-finite value, before its chunk is
    handed on.
    """
    columns = list(dict.fromkeys(columns))
    last, peak, nonzero = dict.fromkeys(columns), dict.fromkeys(columns, -np.inf), dict.fromkeys(columns, 0)

    def fold(column, values):  # which frees the chunk's column before ``each`` runs
        if not np.isfinite(values).all():
            raise NumericalError("non-finite value detected in results")
        peak[column] = max(peak[column], float(values.max()))
        nonzero[column] += int(np.count_nonzero(values))
        last[column] = float(values[-1])

    for series in chunks:
        for column in columns:
            fold(column, _values(series, column))
        if each is not None:
            each(series)
    return last, peak, nonzero


_fmt = float.__repr__  # a float field: the shortest text that reads back as the same double, as in summary.json


def _negated(strings):
    """The fields of -x from those of finite x: IEEE negation is exact, and the + 0.0 keeps zero '0.0'."""
    return [s[1:] if s[0] == "-" else s if s == "0.0" else "-" + s for s in strings]


_WRITE_ROWS = 256  # samples per writer slice, whose columns are held as lists of strings


@contextmanager
def _committed(out_dir):
    """Make ``out_dir`` and its missing parents; yields ``create(name)``, a write-only handle to the file ``name``.

    Each file is written under a hidden name, ``.<name>.<random hex>.tmp``; once the body returns, every
    handle is closed and each file renamed, in the order made, if no target is a non-regular file.  On
    any exception every file and directory made here is removed, deepest first.
    """
    made = [out_dir]  # out_dir and its parents up to the first that exists, which os.makedirs leaves as it is
    while made[-1] and not os.path.exists(made[-1]):
        made.append(os.path.dirname(made[-1]))
    files = {}  # file name -> the temporary path it is written to, then the path it is renamed to
    try:
        os.makedirs(out_dir, exist_ok=True)
        with ExitStack() as stack:
            def create(name):
                temporary = os.path.join(out_dir, f".{name}.{os.urandom(6).hex()}.tmp")
                fh = stack.enter_context(open(temporary, "x", newline="\n"))  # created here, so never another's to remove
                files[name] = temporary
                return fh
            yield create
        for name in files:  # before the first rename, so that a failed command replaces none of an earlier one's files
            if os.path.lexists(target := os.path.join(out_dir, name)) and not os.path.isfile(target):
                raise FileExistsError(f"{target}: exists and is not a regular file")
        for name, temporary in files.items():
            os.replace(temporary, renamed := os.path.join(out_dir, name))
            files[name] = renamed
    except BaseException:
        for written in files.values():
            os.remove(written)
        for directory in made[:-1]:
            with suppress(OSError):  # one never made, or holding another's file, stays as it is
                os.rmdir(directory)
        raise


def _formatted(series, columns, rows):
    """Each distinct column's fields in ``rows`` of a chunk's ``series``: ``_fmt`` of its values, or, when
    one already formatted has the opposite weight, that one's fields ``_negated``."""
    text = {}
    for column in columns:
        mirror = text.get((column[0], -column[1]))
        text[column] = _negated(mirror) if mirror is not None else list(map(_fmt, _values(series, column, rows).tolist()))
    return text


def write_results_csv(create, result):
    """Write results.csv through ``create`` in one pass; returns the pass's ``_reduce``.

    ``create`` is what an open ``_committed`` yields.  results.csv has one
    row per sample, headed by the names of ``result["columns"]`` in order.
    Each chunk is written, once reduced and checked, in slices of
    ``_WRITE_ROWS`` rows whose strings (``_formatted``) are held one slice
    at a time.
    """
    columns = result["columns"]
    *fields, flagged = columns.values()
    distinct = list(dict.fromkeys(fields))
    csv = create("results.csv")

    def write_slice(series, rows):  # whose strings go when it returns, before the next slice is formatted
        text = _formatted(series, distinct, rows)
        flags = ["1\n" if flag else "0\n" for flag in _values(series, flagged, rows).tolist()]
        csv.writelines(map(",".join, zip(*(text[column] for column in fields), flags)))

    def write_chunk(series):
        for rows in geometry._row_slices(0, len(series["t"]), _WRITE_ROWS):
            write_slice(series, rows)

    csv.write(",".join(columns) + "\n")
    return _reduce(result["series"](), columns.values(), write_chunk)


def summarize(result, path, scenario: Scenario, reduced):
    """The summary of a result, from ``reduced``, the ``_reduce`` of every column of one pass.

    Schema 2: each polarization's final geometric and analytic phases and
    flag count, the final quantal and vacuum phases, the invariant
    residual's maximum, and the medium's mode status.  Each polarization's
    orthogonal-passage warning, with the count of its flagged samples, is
    printed to stderr.
    """
    columns = result["columns"]
    t_first, t_last = (path.rows(i, i + 1)[0][0] for i in (0, path.n_samples - 1))
    last, peak, nonzero = reduced
    phases = {}
    for pol in scenario.polarizations:
        suffix = _SIGMA_SUFFIX[pol]
        phases[f"{pol:+d}"] = {**{kind: last[columns[f"phase_{kind}_{suffix}"]] for kind in ("geometric", "analytic")},
                               "flagged_samples": nonzero[columns["flagged"]]}
        if count := nonzero[columns["flagged"]]:
            print(f"warning: sigma={pol:+d}: {evolution._passage_warning(count)}", file=sys.stderr)
    plus, minus = result["survives"]
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
        "quantal_final": last[columns["phase_quantal"]],
        "vacuum": {
            "left_final": last[columns["phase_vacuum_L"]],
            "right_final": last[columns["phase_vacuum_R"]],
            # bitwise net_vacuum_phase's 0.0 + z W (plus - minus): z in {1/2, 0} makes both products exact
            "net_final": last[columns["phase_vacuum_net"]],
            "plus_survives": plus,
            "minus_survives": minus,
            "no_propagating_modes": not (plus or minus),
        },
        "diagnostics": {"max_invariant_residual": peak[columns["invariant_residual"]]},
        "k0": scenario.k0,
        "chamber_length": scenario.chamber_length,
        "medium": None,
    }
    if scenario.medium is not None:
        status = media.mode_status(scenario.medium)
        summary["medium"] = {
            "n2_plus": float(status.n2_plus) + 0.0,  # + 0.0: no field of a file is -0.0
            "n2_minus": float(status.n2_minus) + 0.0,
            "plus_propagates": bool(status.plus_propagates),
            "minus_propagates": bool(status.minus_propagates),
            "k_plus": media.effective_wave_vector(scenario.medium, scenario.k0, +1),
            "k_minus": media.effective_wave_vector(scenario.medium, scenario.k0, -1),
        }
    return summary


def _json(summary):
    """summary.json's text; NumericalError on a non-finite value."""
    try:
        return json.dumps(summary, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise NumericalError("non-finite value in summary.json") from None


def _output_dir(cfg, out_dir):
    """``out_dir`` if given, else the config's ``output_dir`` (default 'out'); each one given must be a nonempty string."""
    given = [cfg.get("output_dir", "out"), *([] if out_dir is None else [out_dir])]
    for value in given:
        if not isinstance(value, str):
            raise ScenarioError(f"output_dir: expected a string, got {value!r}")
        if not value:
            raise ScenarioError("output_dir: expected a directory name, got ''")
    return given[-1]


@np.errstate(all="ignore")  # no floating-point warnings: the writer reports a non-finite value, once
def run_scenario(config_path, out_dir=None, quiet=False) -> dict:
    """Execute a 'run' scenario; returns the summary, made from the writer's pass and committed last."""
    cfg = load_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    out_dir = _output_dir(cfg, out_dir)
    scenario = _parse_common(cfg)
    path = build_path(cfg, base_dir)
    if "sweep" in cfg:
        raise ScenarioError("sweep: not read by 'run'; remove it, or use 'fiberphase sweep'")

    result = compute_scenario(path, scenario)
    with _committed(out_dir) as create:
        summary = {**summarize(result, path, scenario, write_results_csv(create, result)), "command": "run"}
        create("summary.json").write(_json(summary))
    if not quiet:
        print(f"wrote {out_dir}/results.csv and summary.json")
        for key in sorted(summary["phases"]):
            block = summary["phases"][key]
            print(f"  sigma {key}: geometric {block['geometric']:+.6f} rad (analytic {block['analytic']:+.6f})")
        print(f"  vacuum net {summary['vacuum']['net_final']:+.6f} rad")
    return summary


def _require_helix_path(cfg, parameter):
    """A cone_angle or n_steps sweep needs a helix; the swept field may be left out, as each point replaces
    ``path.<parameter>``, but one given is checked as ``run`` does."""
    section = _require(cfg, "path", dict)
    if section.get("type") != "helix":
        raise ScenarioError(f"sweep.parameter '{parameter}' needs a helix path source")
    if parameter in section:
        _HELIX[parameter](section[parameter], f"path.{parameter}")


# A helix sweep's points are (value, path) pairs: a helix holds only its parameters.  Each point is
# computed in its own call, which returns only its row, so one point's arrays are freed before the next's.

def _cone_row(cone, path, scenario):
    result = compute_scenario(path, scenario)
    summary = summarize(result, path, scenario, _reduce(result["series"](), result["columns"].values()))
    row = {"cone_angle": cone}
    for pol in scenario.polarizations:
        phases, suffix = summary["phases"][f"{pol:+d}"], _SIGMA_SUFFIX[pol]
        row[f"geometric_{suffix}"] = phases["geometric"]
        row[f"analytic_{suffix}"] = phases["analytic"]
        row[f"flagged_{suffix}"] = phases["flagged_samples"]
    row["quantal"] = summary["quantal_final"]
    row["vacuum_net"] = summary["vacuum"]["net_final"]
    return row


def _sweep_rows_cone(cfg, base_dir, points, scenario):
    return sorted((_cone_row(*point, scenario) for point in points), key=lambda r: r["cone_angle"])


def _steps_row(n_steps, path):
    kernels = {"invariant_residual": geometry._invariant_residual, "motion_residual": geometry._motion_residual}
    chunks = ({name: kernel(path, window) for name, kernel in kernels.items()} for window in geometry._windows(path))
    peak = _reduce(chunks, [(name, 1.0) for name in kernels])[1]
    return {"n_steps": n_steps, **{f"max_{name}": peak[name, 1.0] for name in kernels}}


def _sweep_rows_steps(cfg, base_dir, points, scenario):
    rows = sorted((_steps_row(*point) for point in points), key=lambda r: r["n_steps"])
    for prev, row in zip([None, *rows], rows):  # no ratio for the first row, or to an exact zero
        for kind in ("invariant", "motion"):
            cur = row[f"max_{kind}_residual"]
            ratio = prev[f"max_{kind}_residual"] / cur if prev and cur > 0 else None
            row[f"{kind}_ratio"] = ratio
            row[f"{kind}_order"] = float(np.log2(ratio)) if ratio else None
            row[f"{kind}_at_rounding_floor"] = bool(cur < 1e-10)
    return rows


def _occupation_pair(pair, field):
    if not isinstance(pair, list) or len(pair) != 2:
        raise ScenarioError(f"{field}: occupation entries must be [n_left, n_right] pairs, got {pair!r}")
    return tuple(_occupation(n, f"{field}: {side}") for n, side in zip(pair, ("n_left", "n_right")))


def _sweep_rows_occupations(cfg, base_dir, pairs, scenario):
    path = build_path(cfg, base_dir)
    w = float(deque(map(geometry._Angles(path.dt), geometry._windows(path)), maxlen=1)[0][2][-1])  # the final W
    if not np.isfinite(w):  # before any file is written, as _reduce checks each column
        raise NumericalError("non-finite value detected in results")
    return [{  # each phase is a multiple of w
        "n_left": nl,
        "n_right": nr,
        "quantal": float(w * float(nr - nl) + 0.0),  # + 0.0 as in a column
        "phi_left": float(w * -fock._weight(nl, scenario.ordering) + 0.0),
        "phi_right": float(w * +fock._weight(nr, scenario.ordering) + 0.0),
    } for nl, nr in sorted(pairs)]


# Each sweep parameter: its value check, its rows from the checked values (sorted by the swept key) and the
# top-level fields that it never reads; a config that gives one is rejected rather than silently ignored.
_SWEEPS = {
    "cone_angle": (_cone_angle, _sweep_rows_cone, ()),
    "n_steps": (_n_steps, _sweep_rows_steps,
                ("polarizations", "occupations", "ordering", "medium", "k0", "chamber_length")),
    "occupations": (_occupation_pair, _sweep_rows_occupations,
                    ("occupations", "polarizations", "medium", "k0", "chamber_length")),
}


def _cell(value) -> str:
    """A sweep.csv field: empty for None, 1 or 0 for a bool, an int as is, a float as in results.csv."""
    if value is None or isinstance(value, bool):
        return "" if value is None else str(int(value))
    return str(value) if isinstance(value, int) else _fmt(value)


@np.errstate(all="ignore")  # as run_scenario
def run_sweep(config_path, out_dir=None, quiet=False) -> dict:
    """Execute a 'sweep' scenario; one row per sweep point, sorted by key.

    The shared fields, a helix sweep's path type and swept field, the unread fields and then every value
    are checked, and each point's helix built, before the first point is computed.
    """
    cfg = load_config(config_path)
    base_dir = os.path.dirname(os.path.abspath(config_path))
    sweep = _require(cfg, "sweep", dict)
    _check_keys(sweep, ("parameter", "values"), "sweep.")
    parameter = sweep.get("parameter")
    if parameter not in (sweepable := tuple(_SWEEPS)):  # a tuple: a list or a dict is not hashable
        raise ScenarioError(f"sweep.parameter must be one of {sweepable}, got {parameter!r}")
    values = sweep.get("values")
    if not isinstance(values, list) or not values:
        raise ScenarioError("sweep.values: expected a nonempty list")
    out_dir = _output_dir(cfg, out_dir)
    scenario = _parse_common(cfg)
    check, sweep_rows, unread = _SWEEPS[parameter]
    if parameter in _HELIX:
        _require_helix_path(cfg, parameter)
    for key in cfg:
        if key in unread:
            raise ScenarioError(f"{key}: not read by a sweep over '{parameter}'; remove it")
    points = [check(value, "sweep.values") for value in values]
    if parameter in _HELIX:
        points = [(point, build_path({**cfg, "path": {**cfg["path"], parameter: point}}, base_dir)) for point in points]
    rows = sweep_rows(cfg, base_dir, points, scenario)

    lines = [",".join(rows[0])] + [",".join(map(_cell, row.values())) for row in rows]  # every row has one key order
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "sweep",
        "parameter": parameter,
        "rows": rows,
    }
    with _committed(out_dir) as create:
        create("sweep.csv").write("\n".join(lines) + "\n")
        create("summary.json").write(_json(summary))
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
        op = spin.helicity_operator(v)
        worst_herm = max(worst_herm, np.abs(op - op.conj().T).max())
        w = np.linalg.eigvalsh(op)
        worst_eig = max(worst_eig, np.abs(w - [-1.0, 0.0, 1.0]).max())
        basis = spin.helicity_eigenstates(v)
        for val, vec in ((-1, basis.e_minus), (0, basis.e_zero), (1, basis.e_plus)):
            worst_res = max(worst_res, np.linalg.norm(op @ vec - val * vec))
    checks.append(("helicity operator Hermitian (1000 random directions)", worst_herm < 1e-14))
    checks.append(("helicity spectrum {-1, 0, +1}", worst_eig < 1e-10))
    checks.append(("helicity eigenpair residuals", worst_res < 1e-12))

    d = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
    a = spin.helicity_eigenstates(d)
    b = spin.helicity_eigenstates(d)
    same = all(np.array_equal(x, y) for x, y in ((a.e_minus, b.e_minus), (a.e_zero, b.e_zero), (a.e_plus, b.e_plus)))
    checks.append(("gauge determinism (bitwise repeatable eigenvectors)", same))

    def direction(polar, azimuth):
        return np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)

    ok_roundtrip = True
    for cone in (0.1, np.pi / 3, np.pi / 2, 2.8):
        p = geometry.helix_path(cone, 1.0, 1.0, 2.0, 256)
        ang = geometry.spherical_angles(p)
        ok_roundtrip &= bool(np.abs(direction(ang.polar, ang.azimuth) - p.k_hat).max() < 1e-9)
    checks.append(("helix angle round trip", ok_roundtrip))

    p = geometry.helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
    checks.append(("motion residual small on smooth path", float(geometry.motion_residual(p).max()) < 1e-3))
    checks.append(("invariant residual small on smooth path", float(evolution.invariant_residual_series(p).max()) < 1e-3))

    traj = evolution.evolve(geometry.helix_path(np.pi / 3, 1.0, 1.0, 1.0, 4096), +1)
    error = abs(float(traj.geometric[-1]) - 2.0 * np.pi * (1.0 - np.cos(np.pi / 3)))
    phi = np.linspace(0.0, 2.0 * np.pi, 257)
    loop = geometry.FiberPath(phi, direction(0.8 + 0.25 * np.sin(3.0 * phi), phi), 1.0)
    closed_form = np.concatenate([series["total"] for series in _series(loop, +1)])
    gap = float(np.abs(closed_form - evolution.evolve(loop, +1).total).max())
    for name, value, bound in (("evolve's cycle phase on the pi/3 helix, 4096 steps, against 2 pi (1 - cos c)", error, 1e-5),
                               ("evolve's norm drift there, max |norm - 1|", np.abs(traj.norms - 1.0).max(), 1e-10),
                               ("evolve's helicity drift there", np.abs(traj.helicity - traj.helicity[0]).max(), 1e-5),
                               ("evolve's dynamical phase there, max |phase|", np.abs(traj.dynamical).max(), 1e-10),
                               ("swept-area transport against evolve, row by row, 256-step three-lobe loop", gap, 1e-13)):
        checks.append((f"{name}: {value:.2e} <= {bound:g}", bool(value <= bound)))

    all_ok = True
    for name, ok in checks:
        all_ok &= ok
        if not quiet:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return all_ok
