"""Check that another checkout of fiberphase gives byte-identical outputs to this one.

    python3 tools/same_outputs.py OTHER_CHECKOUT

Runs each command twice, once with this checkout's sources and once with
OTHER_CHECKOUT's, each in a fresh empty working directory:

- every config in demos/configs, with ``run`` or ``sweep`` as the config
  asks, with and without ``--quiet``;
- ``fiberphase check``;
- the demo scripts demos/0*.py;
- the benchmark workloads at full size for seeds 1-3.  Their inputs are
  generated once for both checkouts by this checkout's bench/workloads.py,
  which is imported without writing bytecode.

Each checkout runs its own demo configs and scripts.  For every command it
compares the exit code, stdout and stderr (the working directory and the
checkout's root replaced by placeholders) and every file the command
wrote (SHA-256).  It goes through every command and prints each
difference: the first differing line of stdout or stderr, and for a
differing CSV or ``summary.json`` file the largest absolute
difference of each column or key that moved, with its row (counted from 1
below the header) or its JSON list indices.  CSV columns are matched by
header name and summary.json keys by name: the columns or keys found in
only one file are listed, and the shared ones compared.  Exits 0 when all
are identical, else 1.  A kernel change that moves last digits on purpose
differs here by design, and this report is the deviation to record, so
this is a tool to run by hand, not a test.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def _workloads():
    """The benchmark's workloads, from this checkout's bench/workloads.py."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_workloads", HERE / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look the module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _commands(scratch: Path):
    """(label, argv of ``python`` for a checkout) of every command; bench inputs are written to ``scratch``."""
    cli = ["-m", "fiberphase"]
    for config in sorted((HERE / "demos" / "configs").glob("*.json")):
        command = "sweep" if "sweep" in json.loads(config.read_text()) else "run"
        for quiet in ([], ["--quiet"]):
            argv = [command, f"demos/configs/{config.name}", "--out", "out", *quiet]
            yield " ".join(argv), lambda tree, argv=argv: [*cli, *argv[:1], str(tree / argv[1]), *argv[2:]]
    yield "check", lambda tree: [*cli, "check"]
    for script in sorted((HERE / "demos").glob("0*.py")):
        yield f"demos/{script.name}", lambda tree, name=script.name: [str(tree / "demos" / name)]
    for name, workload in _workloads().items():
        for seed in SEEDS:
            inputs = scratch / "inputs"
            shutil.rmtree(inputs, ignore_errors=True)
            inputs.mkdir()
            argv = [*workload.generate(seed, str(inputs), workload.size).argv, "--out", "out"]
            yield f"{name} seed {seed}", lambda tree, argv=argv: [*cli, *argv]


def _outcome(tree: Path, argv, work: Path) -> dict:
    """Exit code, normalised stdout and stderr, and the SHA-256 of every file of one command run in ``work``."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-B", *argv], cwd=work, env=env, capture_output=True)

    def normalised(text: bytes) -> bytes:
        return text.replace(str(work).encode(), b"<work>").replace(str(tree).encode(), b"<checkout>")

    outcome = {"exit code": proc.returncode, "stdout": normalised(proc.stdout), "stderr": normalised(proc.stderr)}
    for file in sorted(p for p in work.rglob("*") if p.is_file()):
        outcome[f"file {file.relative_to(work).as_posix()}"] = hashlib.sha256(file.read_bytes()).hexdigest()
    return outcome


class _Largest:
    """The largest absolute difference of each column or key, where it is, and both values."""

    def __init__(self):
        self.worst = {}

    def add(self, name, where, a, b):
        try:
            moved = abs(float(a) - float(b))
        except (TypeError, ValueError):  # text, a missing field, or a JSON object or null
            moved = math.inf
        moved = math.inf if math.isnan(moved) else moved
        if name not in self.worst or moved > self.worst[name][0]:
            self.worst[name] = (moved, where, a, b)

    def lines(self, file: str) -> list[str]:
        return [f"{file} {name}: largest |difference| {moved:.3g}{where} ({a!r} here, {b!r} in the other checkout)"
                for name, (moved, where, a, b) in self.worst.items()]


def _named(line: str, header: list[str]) -> dict:
    """A row's fields by column name; a field past the header by its position from 1."""
    return {header[i] if i < len(header) else i + 1: x for i, x in enumerate(line.rstrip("\n").split(","))}


def _table_moves(file: str, a: Path, b: Path) -> list[str]:
    """The largest move of each column of two CSV files, each headed by its column names.

    Columns are matched by name, so two CSV headers that differ name the
    columns found on only one side, and the shared columns are compared.
    """
    largest, found = _Largest(), []
    with open(a) as fa, open(b) as fb:
        headers = [fh.readline().rstrip("\n").split(",") for fh in (fa, fb)]
        one_side = set(headers[0]).symmetric_difference(headers[1])
        for side, mine in (("this", headers[0]), ("the other", headers[1])):
            if only := [name for name in mine if name in one_side]:
                found.append(f"{file}: columns only in {side} checkout's file: {', '.join(only)}")
        if not one_side and headers[0] != headers[1]:
            found.append(f"{file}: the headers list the same columns in another order")
        for row, (line_a, line_b) in enumerate(zip_longest(fa, fb), 1):
            if line_a is None or line_b is None:
                side = "this" if line_a is None else "the other"
                return [*found, *largest.lines(file), f"{file}: {side} checkout's file ends before row {row}"]
            if line_a == line_b:
                continue
            x, y = _named(line_a, headers[0]), _named(line_b, headers[1])
            for name in dict.fromkeys([*x, *y]):
                if name not in one_side and x.get(name) != y.get(name):
                    largest.add(f"column {name}", f" at row {row}", x.get(name), y.get(name))
    return [*found, *largest.lines(file)]


def _leaves(value, key="", index=""):
    """(key, list indices, value) of every leaf of a JSON value; a list's items share the key ``name[]``."""
    if isinstance(value, dict):
        for name, item in value.items():
            yield from _leaves(item, f"{key}.{name}" if key else name, index)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _leaves(item, f"{key}[]", f"{index}[{i}]")
    else:
        yield key, index, value


def _json_moves(file: str, a: Path, b: Path) -> list[str]:
    """The largest move of each key of two JSON files; a key inside lists names the list indices of its move.

    Keys are matched by name, as ``_table_moves`` matches columns: the keys
    found in only one file are listed once, and the shared keys compared.
    """
    largest = _Largest()
    leaves = [{(key, index): value for key, index, value in _leaves(json.loads(p.read_text()))} for p in (a, b)]
    keys = [dict.fromkeys(key for key, _ in side) for side in leaves]
    one_side = set(keys[0]).symmetric_difference(keys[1])
    found = [f"{file}: keys only in {side} checkout's summary.json: {', '.join(only)}"
             for side, mine in (("this", keys[0]), ("the other", keys[1]))
             if (only := [key for key in mine if key in one_side])]
    for key, index in dict.fromkeys([*leaves[0], *leaves[1]]):
        x, y = (side.get((key, index), "(absent)") for side in leaves)
        if key not in one_side and (x != y or type(x) is not type(y)):
            largest.add(f"key {key}", f" at {index}" if index else "", x, y)
    return [*found, *largest.lines(file)]


def _differences(this: dict, other: dict, works) -> list[str]:
    """Every item on which two outcomes differ, in words; a differing table or summary gives its largest moves."""
    found = []
    for key in [*this, *(k for k in other if k not in this)]:
        a, b = this.get(key, "(absent)"), other.get(key, "(absent)")
        if a == b:
            continue
        name = key.removeprefix("file ")
        both = key.startswith("file ") and "(absent)" not in (a, b)
        if both and name.endswith(".csv"):
            found += _table_moves(key, *(work / name for work in works)) or [f"{key}: same fields, other bytes"]
        elif both and name.endswith("summary.json"):
            found += _json_moves(key, *(work / name for work in works)) or [f"{key}: same values, other bytes"]
        else:
            if isinstance(a, bytes) and isinstance(b, bytes):
                lines = zip(a.splitlines() + [b"(end)"], b.splitlines() + [b"(end)"])
                if hit := next(((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1]), None):
                    key, (a, b) = f"{key} line {hit[0]}", hit[1]
            found.append(f"{key}: {a!r} here, {b!r} in the other checkout")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the other checkout")
    other = parser.parse_args(argv).other.resolve()
    if not (other / "src" / "fiberphase").is_dir():
        parser.error(f"{other} has no src/fiberphase")
    count = files = differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        works = (scratch / "this", scratch / "other")
        for label, command in _commands(scratch):
            this, that = (_outcome(tree, command(tree), work) for tree, work in zip((HERE, other), works))
            if found := _differences(this, that, works):
                differing += 1
                print(f"differ: {label}:", *found, sep="\n  ", flush=True)
            count, files = count + 1, files + sum(key.startswith("file ") for key in this)
            for work in works:
                shutil.rmtree(work)
    if differing:
        print(f"{differing} of {count} commands differ")
        return 1
    print(f"same outputs: {count} commands, {files} files, every exit code, stdout, stderr and file identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
