"""Spans around fiberphase's layer functions, installed from outside the package.

Each listed public function is replaced, on every ``fiberphase`` module
attribute that binds it, by a wrapper that records one span per call: name,
start, end, parent span and the growth of the process's RSS high-water mark.
Rebinding every attribute matters because modules import functions by name
(``evolution`` calls its own ``k_dot``, not ``geometry.k_dot``).  Spans stay in
memory; the child process writes them out when the command has finished.
"""
from __future__ import annotations

import functools
import os
import resource
import sys
import time

# (module, function) pairs, in the pipeline's order.  ``spin`` costs well
# under a millisecond per run and is left out.
TRACED = [
    ("cli", "main"),
    ("geometry", "helix_path"),
    ("geometry", "load_path"),
    ("geometry", "spherical_angles"),
    ("geometry", "k_dot"),
    ("geometry", "solid_angle_series"),
    ("geometry", "motion_residual"),
    ("evolution", "hamiltonian_coefficients"),
    ("evolution", "evolve"),
    ("evolution", "phase_decomposition"),
    ("evolution", "helicity_expectations"),
    ("evolution", "invariant_residual_series"),
    ("fock", "vacuum_phase"),
    ("fock", "quantal_geometric_phase"),
    ("media", "net_vacuum_phase"),
    ("scenario", "compute_scenario"),
    ("scenario", "summarize"),
    ("scenario", "write_results_csv"),
    ("scenario", "write_plot_files"),
]
NAMES = [f"{module}.{func}" for module, func in TRACED]

MB = 1024 * 1024


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux reports KiB


def _dir_mb(directory) -> float:
    with os.scandir(directory) as entries:
        return sum(e.stat().st_size for e in entries if e.is_file()) / MB


# Per-span quantities beyond time and memory.  ``before`` runs ahead of the
# timed interval and ``after`` behind it, so neither is counted as busy time;
# a quantity both give is recorded as the difference (bytes a writer added).
def _writer_dir(args):
    return args[0] if os.path.isdir(args[0]) else os.path.dirname(args[0])


_BEFORE = {
    "scenario.write_results_csv": lambda args: {"mb": _dir_mb(_writer_dir(args))},
    "scenario.write_plot_files": lambda args: {"mb": _dir_mb(_writer_dir(args))},
}
_AFTER = {
    "scenario.write_results_csv": lambda args, out: {"mb": _dir_mb(_writer_dir(args))},
    "scenario.write_plot_files": lambda args, out: {"mb": _dir_mb(_writer_dir(args))},
    "geometry.load_path": lambda args, out: {"input_mb": os.path.getsize(args[0]) / MB},
    "evolution.evolve": lambda args, out: {"steps": args[0].n_samples - 1},
    "evolution.phase_decomposition": lambda args, out: {
        "flagged": int(out.flagged.sum()),
        "samples": int(out.flagged.size),
    },
}
# A later signature change must cost the extra quantity, not the run.
_HOOK_ERRORS = (AttributeError, IndexError, OSError, TypeError)


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._open = []

    def _wrap(self, name, fn):
        before_hook, after_hook = _BEFORE.get(name), _AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None}
            before = {}
            if before_hook:
                try:
                    before = before_hook(args)
                except _HOOK_ERRORS:
                    pass
            self._open.append(len(self.spans))
            self.spans.append(span)
            rss = _maxrss_mb()
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_hwm_mb"] = _maxrss_mb() - rss
                self._open.pop()
            if after_hook:
                try:
                    for key, value in after_hook(args, out).items():
                        span[key] = value - before.get(key, 0)
                except _HOOK_ERRORS:
                    pass
            return out

        return traced

    def install(self):
        """Wrap every function in TRACED; missing ones are recorded in ``absent``."""
        modules = [m for n, m in list(sys.modules.items()) if n == "fiberphase" or n.startswith("fiberphase.")]
        for module, func in TRACED:
            name = f"{module}.{func}"
            original = getattr(sys.modules.get(f"fiberphase.{module}"), func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)


def layer_metrics(spans, absent) -> dict:
    """Per-layer metrics of one traced command, keyed by BENCHMARK.json name."""
    out = {}
    for name in NAMES:
        mine = [s for s in spans if s["name"] == name]
        out[f"{name}.s"] = sum(s["end"] - s["start"] for s in mine)
        out[f"{name}.calls"] = len(mine)
        out[f"{name}.rss_hwm_mb"] = sum(s["rss_hwm_mb"] for s in mine)

    def total(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    out["scenario.write_results_csv.mb"] = total("scenario.write_results_csv", "mb")
    out["scenario.write_plot_files.mb"] = total("scenario.write_plot_files", "mb")
    out["geometry.load_path.input_mb"] = total("geometry.load_path", "input_mb")
    steps = total("evolution.evolve", "steps")
    out["evolution.evolve.ns_per_step"] = out["evolution.evolve.s"] * 1e9 / steps if steps else 0.0
    samples = total("evolution.phase_decomposition", "samples")
    out["evolution.flagged_ratio"] = total("evolution.phase_decomposition", "flagged") / samples if samples else 0.0

    # Self time: the span minus its direct children, which run one after another.
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out["scenario.compute_scenario.self_s"] = sum(
        s["end"] - s["start"] - child_time[i] for i, s in enumerate(spans) if s["name"] == "scenario.compute_scenario"
    )
    out["trace.absent_functions"] = len(absent)
    return out
