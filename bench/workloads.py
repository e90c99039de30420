"""The benchmark's workloads: seeded inputs, closed-form references, output checks.

Each workload turns a seed into the files one fiberphase command reads (a
config, and for the file-loaded path a trajectory) plus the values its
outputs must reproduce.  Generation happens before any timing, and the
program sees only the generated files.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
CYCLE_TOL = 1e-3  # acceptance criterion 1: cyclic geometric phase
EXACT_TOL = 1e-9  # phases the program forms from the solid-angle kernel alone


@dataclass(frozen=True)
class Case:
    """One generated invocation: CLI arguments (without --out) and references."""

    argv: list
    reference: dict
    inputs: list


def _cycle(cone):
    return float(TWO_PI * (1.0 - np.cos(cone)))


def _write_config(work_dir, cfg):
    filename = os.path.join(work_dir, "config.json")
    with open(filename, "w") as fh:
        json.dump(cfg, fh, indent=1)
    return filename


def _helix(cone, n_steps):
    return {"type": "helix", "cone_angle": cone, "omega": 1.0, "k_mag": 1.0, "n_cycles": 1.0, "n_steps": n_steps}


def _close(value, expected, tol):
    return abs(value - expected) <= tol * max(1.0, abs(expected))


class RunHelix:
    """``fiberphase run`` on a one-cycle helix with every layer switched on."""

    name = "run_helix_1e5"
    size = 100_000

    def generate(self, seed, work_dir, size):
        cone = float(np.deg2rad(np.random.default_rng(seed).uniform(20.0, 75.0)))
        cfg = {
            "path": _helix(cone, size),
            "polarizations": [1, -1],
            "occupations": {"n_left": 0, "n_right": 1},
            "ordering": "symmetric",
            # n2_minus = (2 - 3)(2 - 1) < 0 suppresses the left mode; the chamber keeps the right one.
            "medium": {"eps1": 2.0, "eps2": 3.0, "mu1": 2.0, "mu2": 1.0},
            "k0": 1.0,
            "chamber_length": 10.0,
        }
        config = _write_config(work_dir, cfg)
        return Case(["run", config, "--quiet"], {"cone": cone}, [config])

    def check(self, summary, reference):
        """Problems found, and the largest phase error against the closed form."""
        cycle = _cycle(reference["cone"])
        problems, err = [], 0.0
        for sigma in (+1, -1):
            geo = summary["phases"][f"{sigma:+d}"]["geometric"]
            err = max(err, abs(geo - sigma * cycle))
            if not _close(geo, sigma * cycle, CYCLE_TOL):
                problems.append(f"sigma {sigma:+d}: geometric {geo!r} vs {sigma * cycle!r}")
        vac = summary["vacuum"]
        expected = {
            "quantal_final": (summary["quantal_final"], cycle),
            "vacuum.net_final": (vac["net_final"], 0.5 * cycle),
        }
        for label, (value, want) in expected.items():
            if not _close(value, want, EXACT_TOL):
                problems.append(f"{label} {value!r} vs {want!r}")
        flags = (vac["plus_survives"], vac["minus_survives"], vac["no_propagating_modes"])
        if flags != (True, False, False):
            problems.append(f"survival flags (plus, minus, none) = {flags}")
        return problems, err


class SweepCone:
    """``fiberphase sweep`` over cone_angle: the equator and one seeded angle."""

    name = "sweep_cone_2p5e5"
    size = 250_000

    def generate(self, seed, work_dir, size):
        cone = float(np.deg2rad(np.random.default_rng(seed).uniform(20.0, 75.0)))
        cfg = {
            "path": _helix(cone, size),
            "polarizations": [1, -1],
            "sweep": {"parameter": "cone_angle", "values": ["90 deg", cone]},
        }
        config = _write_config(work_dir, cfg)
        return Case(["sweep", config, "--quiet"], {"cones": sorted([0.5 * np.pi, cone])}, [config])

    def check(self, summary, reference):
        rows = summary["rows"]
        got = [row["cone_angle"] for row in rows]
        if len(got) != 2 or not np.allclose(got, reference["cones"], rtol=0, atol=1e-12):
            return [f"sweep points {got} vs {reference['cones']}"], 0.0
        problems, err = [], 0.0
        for row in rows:
            for sigma, suffix in ((+1, "R"), (-1, "L")):
                diff = row[f"geometric_{suffix}"] - sigma * _cycle(row["cone_angle"])
                wrapped = abs((diff + np.pi) % TWO_PI - np.pi)
                err = max(err, wrapped)
                if wrapped > CYCLE_TOL:
                    problems.append(f"cone {row['cone_angle']!r} sigma {sigma:+d}: phase off by {wrapped!r} mod 2pi")
        return problems, err


class SweepOccupationsFile:
    """``fiberphase sweep`` over occupations on a closed loop read from a text file."""

    name = "sweep_occ_file_1e6"
    size = 1_000_000
    pairs = [[0, 1], [1, 0], [0, 0], [2, 5], [3, 1]]

    def generate(self, seed, work_dir, size):
        rng = np.random.default_rng(seed)
        c0, amp = rng.uniform(0.8, 1.4), rng.uniform(0.2, 0.5)
        phi = np.linspace(0.0, TWO_PI, size)  # last sample repeats the first: a closed loop
        theta = c0 + amp * np.sin(3.0 * phi)
        filename = os.path.join(work_dir, "loop.txt")
        with open(filename, "w") as fh:
            fh.write(f"# closed loop theta = {c0!r} + {amp!r} sin(3 phi); columns t kx ky kz\n")
            chunk = 100_000
            for lo in range(0, size, chunk):
                p, th = phi[lo:lo + chunk], theta[lo:lo + chunk]
                rows = np.column_stack([p, np.sin(th) * np.cos(p), np.sin(th) * np.sin(p), np.cos(th)])
                fh.write(("%.16e %.16e %.16e %.16e\n" * len(rows)) % tuple(rows.ravel().tolist()))
        # Swept solid angle of the loop by periodic trapezoid quadrature over the distinct samples.
        swept = float(np.sum(1.0 - np.cos(theta[:-1])) * (TWO_PI / (size - 1)))
        cfg = {
            "path": {"type": "file", "filename": os.path.basename(filename)},
            "ordering": "symmetric",
            "sweep": {"parameter": "occupations", "values": self.pairs},
        }
        config = _write_config(work_dir, cfg)
        return Case(["sweep", config, "--quiet"], {"swept": swept}, [config, filename])

    def check(self, summary, reference):
        swept = reference["swept"]
        rows = {(row["n_left"], row["n_right"]): row for row in summary["rows"]}
        if sorted(rows) != sorted(map(tuple, self.pairs)):
            return [f"occupation pairs {sorted(rows)}"], 0.0
        problems = []
        for (nl, nr), row in rows.items():
            expected = {"quantal": (nr - nl) * swept, "phi_left": -(nl + 0.5) * swept, "phi_right": (nr + 0.5) * swept}
            for key, want in expected.items():
                if not _close(row[key], want, EXACT_TOL):
                    problems.append(f"({nl},{nr}) {key} {row[key]!r} vs {want!r}")
        return problems, abs(rows[(0, 1)]["quantal"] - swept)


WORKLOADS = {w.name: w for w in (RunHelix(), SweepCone(), SweepOccupationsFile())}
SMOKE_SIZE = 4096
