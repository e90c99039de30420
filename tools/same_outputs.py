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
wrote (SHA-256).  Exits 0 when all are identical, else 1 naming the first
difference.  A kernel change that moves last digits on purpose differs
here by design, so this is a tool to run by hand, not a test.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
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
    shutil.rmtree(work)
    return outcome


def _difference(this: dict, other: dict) -> str | None:
    """The first item on which two outcomes differ, in words; None if they are identical."""
    for key in [*this, *(k for k in other if k not in this)]:
        a, b = this.get(key, "(absent)"), other.get(key, "(absent)")
        if a == b:
            continue
        if isinstance(a, bytes) and isinstance(b, bytes):
            lines = zip(a.splitlines() + [b"(end)"], b.splitlines() + [b"(end)"])
            if found := next(((i, pair) for i, pair in enumerate(lines, 1) if pair[0] != pair[1]), None):
                key, (a, b) = f"{key} line {found[0]}", found[1]
        return f"{key}: {a!r} here, {b!r} in the other checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path, help="root of the other checkout")
    other = parser.parse_args(argv).other.resolve()
    if not (other / "src" / "fiberphase").is_dir():
        parser.error(f"{other} has no src/fiberphase")
    count = files = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for label, command in _commands(scratch):
            this, that = (_outcome(tree, command(tree), scratch / "work") for tree in (HERE, other))
            if (difference := _difference(this, that)) is not None:
                print(f"differ: {label}: {difference}")
                return 1
            count, files = count + 1, files + sum(key.startswith("file ") for key in this)
    print(f"same outputs: {count} commands, {files} files, every exit code, stdout, stderr and file identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
