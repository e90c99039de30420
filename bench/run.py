"""fiberphase benchmark: CLI commands timed end to end, or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S [--record FILE]
    python3 bench/run.py --smoke

Each command runs ``fiberphase.cli.main`` in a fresh child interpreter
(``child.py``), one at a time, and every run's outputs are checked before its
numbers count.  Inputs come from ``--seed`` and are generated before timing.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` traced and untraced commands alternate and it holds the
per-layer metrics of ``tracing.py`` and the tracing overhead.  The lines
before it show every metric measured, with sample counts.  ``--workload all``
runs every workload round-robin and prints all their metrics; ``--smoke``
does that at 4096 steps, traced and untraced, as a check of the harness.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from tracing import layer_metrics
from workloads import SMOKE_SIZE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CHILD = Path(__file__).resolve().parent / "child.py"
CHILD_TIMEOUT_S = 150
PROBES_PER_COMMAND = 8  # extra import-only children per timed command, for setup_s
MB = 1024 * 1024

UNTRACED = ("wall_s", "peak_rss_mb", "setup_s", "output_mb")


def registered():
    """Units of the (end_to_end, per_layer) metrics that BENCHMARK.json registers."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


class HarnessError(Exception):
    """The harness itself cannot run: no sources, or a warm-up or probe failed."""


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_child(argv, trace, result_file):
    """Run child.py; returns (record or None, stderr)."""
    result_file.unlink(missing_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(result_file), "1" if trace else "0", "--", *argv],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, f"no result within {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_file.exists():
        return None, proc.stderr.strip() or f"exit status {proc.returncode}"
    return json.loads(result_file.read_text()), proc.stderr


class Runner:
    """One workload's generated case and the commands run on it."""

    def __init__(self, workload, seed, size, work_dir):
        self.workload = workload
        self.dir = work_dir
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        self.case = workload.generate(seed, str(work_dir), size)
        self.hashes = None
        self.untraced, self.traced, self.setup = [], [], []
        self.attempted = self.failed = 0

    def command(self, trace):
        """Run the command once and check its outputs; returns the problems found."""
        out = self.dir / "out"
        shutil.rmtree(out, ignore_errors=True)
        record, stderr = run_child([*self.case.argv, "--out", str(out)], trace, self.dir / "child.json")
        self.attempted += 1
        problems, err = self._check(record, stderr, out)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"{self.workload.name}: FAILED: {problem}", file=sys.stderr)
            return problems
        sample = {
            "wall_s": record["wall_s"],
            "peak_rss_mb": record["peak_rss_mb"],
            "setup_s": record["setup_s"],
            "output_mb": sum(p.stat().st_size for p in out.iterdir()) / MB,
            "geometric_phase_err_rad": err,
        }
        if trace:
            sample["layers"] = layer_metrics(record["spans"], record["absent"])
            self.traced.append(sample)
        else:
            self.untraced.append(sample)
            self.setup.append(record["setup_s"])
        return []

    def _check(self, record, stderr, out):
        """Problems with one command's outputs, and its phase error vs the closed form."""
        if record is None:
            return [f"command died: {stderr.splitlines()[-1] if stderr else 'no output'}"], None
        if record["exit_code"] != 0:
            return [f"exit code {record['exit_code']}: {stderr.strip()}"], None
        try:
            summary = json.loads((out / "summary.json").read_text(), parse_constant=_reject_constant)
            problems, err = self.workload.check(summary, self.case.reference)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"summary.json: {type(exc).__name__}: {exc}"], None
        hashes = {p.name: _sha256(p) for p in sorted(out.iterdir())}
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            problems.append("output bytes differ from the first run of this command")
        return problems, err

    def probe(self, count):
        """Import-only children: more set-up samples per command."""
        for _ in range(count):
            record, stderr = run_child([], False, self.dir / "probe.json")
            if record is None:
                raise HarnessError(f"import probe failed: {stderr}")
            self.setup.append(record["setup_s"])


def warm_up(workload, seed, work_dir, case):
    """Untimed: one command at smoke size, and the real inputs read through once.

    After it the inputs sit in the page cache and every module's .pyc exists,
    which a user's second run would also find.
    """
    runner = Runner(workload, seed, SMOKE_SIZE, work_dir)
    problems = runner.command(trace=False)
    if problems:
        raise HarnessError(f"{workload.name}: warm-up failed: {problems[0]}")
    for filename in case.inputs:
        with open(filename, "rb") as fh:
            while fh.read(1 << 22):
                pass
    shutil.rmtree(work_dir, ignore_errors=True)


def environment(seed):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def _spread(values):
    return f"best of {len(values)}; median {statistics.median(values):.6g}, max {max(values):.6g}"


def summarize(runner, trace):
    """Metrics of one workload: end-to-end from untraced runs, per-layer from traced.

    Every value is the best (minimum) over the run's samples: contention
    from other tenants only ever adds time, so the best sample is the one it
    disturbed least.  The median is printed beside it.
    """
    metrics, notes = {}, {}
    if runner.untraced:
        for name in UNTRACED:
            values = runner.setup if name == "setup_s" else [s[name] for s in runner.untraced]
            metrics[name] = min(values)
            notes[name] = _spread(values)
    if trace and runner.traced:
        for name in runner.traced[0]["layers"]:
            metrics[name] = min(s["layers"][name] for s in runner.traced)
        metrics["evolution.geometric_phase_err_rad"] = min(s["geometric_phase_err_rad"] for s in runner.traced)
        if runner.untraced:
            metrics["trace.overhead_frac"] = metrics["cli.main.s"] / metrics["wall_s"] - 1.0
        notes["cli.main.s"] = _spread([s["layers"]["cli.main.s"] for s in runner.traced])
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0.0, help="measuring time; at least one round runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="4096-step inputs, traced and untraced, one round each")
    parser.add_argument("--record", help="also write the full record (environment, samples, metrics) to this JSON file")
    args = parser.parse_args(argv)
    if args.smoke:
        args.workload, args.trace, args.seconds = "all", 1, 0.0
    if not (ROOT / "src" / "fiberphase" / "cli.py").is_file():
        raise HarnessError(f"no fiberphase sources under {ROOT / 'src'}; run from the root of a checkout")

    env = environment(args.seed)
    env["loadavg_before"] = os.getloadavg()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runners = []
    for name in names:
        workload = WORKLOADS[name]
        runner = Runner(workload, args.seed, SMOKE_SIZE if args.smoke else workload.size, WORK / name)
        warm_up(workload, args.seed, WORK / f"{name}.warm", runner.case)
        runners.append(runner)

    # Round-robin, so drift in machine speed spreads over every workload alike.
    # With tracing, traced and untraced rounds alternate, starting traced.
    start, rounds = time.perf_counter(), 0
    while rounds < (2 if args.trace else 1) or time.perf_counter() - start < args.seconds:
        traced = bool(args.trace) and rounds % 2 == 0
        for runner in runners:
            runner.command(traced)
            if not traced:
                runner.probe(PROBES_PER_COMMAND)
        rounds += 1
    env["loadavg_after"] = os.getloadavg()

    print(f"# env {json.dumps(env)}")
    end_to_end, per_layer = registered()
    units = {**end_to_end, **per_layer}
    wanted = per_layer if args.trace else end_to_end
    metrics, record = {}, {"environment": env, "seconds": args.seconds, "workloads": {}}
    for runner in runners:
        name = runner.workload.name
        mine, notes = summarize(runner, args.trace)
        error_rate = runner.failed / runner.attempted
        print(f"{name}: {runner.attempted} commands, {runner.failed} failed, error_rate {error_rate:g}")
        for metric, value in mine.items():
            note = f"  ({notes[metric]})" if metric in notes else ""
            print(f"  {metric:42s} {value:14.6g} {units.get(metric, '')}{note}")
        if not wanted.keys() <= mine.keys():
            raise HarnessError(f"{name}: too few commands passed their checks to measure every metric")
        prefix = "" if len(runners) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": mine[k], "unit": unit} for k, unit in wanted.items()})
        record["workloads"][name] = {
            "attempted": runner.attempted,
            "failed": runner.failed,
            "error_rate": error_rate,
            "metrics": mine,
            "untraced": runner.untraced,
            "traced": runner.traced,
            "setup_s": runner.setup,
        }
    shutil.rmtree(WORK, ignore_errors=True)
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    if args.record:
        with open(args.record, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except HarnessError as exc:
        sys.exit(f"bench: {exc}")
