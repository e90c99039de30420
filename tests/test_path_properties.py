"""Property tests: chunked FiberPath validation decides exactly as the whole-array checks.

With the chunk size made small, random short paths carry random defects
(off-grid times, non-unit samples, coarse steps) at random rows, so chunk
edges, the one-row overlap of the step check and the last row are all hit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberphase import geometry
from fiberphase.geometry import FiberPath


def _whole_array_checks(t, kh):
    """FiberPath's grid, unit-norm and step checks with full-size temporaries: the oracle."""
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise ValueError("times must be strictly increasing")
    if np.max(np.abs(dt - dt[0])) > 1e-6 * dt[0]:
        raise ValueError("time grid must be uniform")
    norms = np.linalg.norm(kh, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ValueError("k_hat samples must be unit vectors (within 1e-9)")
    steps = np.linalg.norm(np.diff(kh, axis=0), axis=1)
    if np.max(steps) >= 0.5:
        raise ValueError("adjacent k_hat samples differ by >= 0.5; grid too coarse for finite differencing")


def _verdict(check, t, kh):
    try:
        check(t, kh)
    except ValueError as exc:
        return str(exc)
    return None


def _fiber_path(t, kh):
    FiberPath(times=t, k_hat=kh, k_mag=1.0)


# (kind, size): sizes on both sides of each threshold
DEFECTS = st.sampled_from([
    ("time", 1e-8), ("time", 1e-5), ("time", 0.3), ("time", -2.0),
    ("norm", 5e-10), ("norm", 2e-9), ("norm", -0.1),
    ("turn", 0.78), ("turn", 0.85), ("turn", 2.0),
])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=40),
    chunk=st.integers(min_value=1, max_value=9),
    defects=st.lists(st.tuples(DEFECTS, st.floats(min_value=0.0, max_value=1.0)), max_size=3),
)
def test_chunked_validation_matches_whole_array_checks(n, chunk, defects):
    t = 0.1 * np.arange(n)
    phase = 0.05 * np.arange(n)
    kh = np.stack([0.6 * np.cos(phase), 0.6 * np.sin(phase), np.full(n, 0.8)], axis=1)
    for (kind, size), where in defects:
        row = min(int(where * n), n - 1)
        if kind == "time":
            t[row] += size * 0.1
        elif kind == "norm":
            kh[row] *= 1.0 + size
        else:  # rotate rows from here on about z, so one step turns by `size`
            c, s = np.cos(size), np.sin(size)
            kh[row:, :2] = kh[row:, :2] @ np.array([[c, s], [-s, c]])
    want = _verdict(_whole_array_checks, t, kh)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        assert _verdict(_fiber_path, t, kh) == want
