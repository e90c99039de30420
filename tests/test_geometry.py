import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiberphase import evolution, geometry
from fiberphase.evolution import hamiltonian_coefficients
from fiberphase.geometry import (
    FiberPath,
    helix_path,
    k_dot,
    load_path,
    motion_residual,
    rotation_vectors,
    spherical_angles,
)


def wobble_path(n_steps, k_mag=2.0):
    """Constant-|k| path with varying cone angle: exercises the generic case."""
    t = np.linspace(0.0, 2.0 * np.pi, n_steps + 1)
    lam = np.pi / 3 + 0.3 * np.sin(t)
    kh = np.stack([np.sin(lam) * np.cos(t), np.sin(lam) * np.sin(t), np.cos(lam)], axis=1)
    return FiberPath(times=t, k_hat=kh, k_mag=k_mag)


# ---------------------------------------------------------------- helix_path

def test_helix_degenerate_cone_is_constant():
    p = helix_path(0.0, 1.0, 1.0, 1.0, 64)
    assert np.abs(p.k_hat - np.array([0.0, 0.0, 1.0])).max() == 0.0


def test_helix_equator_has_zero_z():
    p = helix_path(np.pi / 2, 1.0, 1.0, 1.0, 256)
    assert np.abs(p.k_hat[:, 2]).max() < 1e-15


def test_helix_angle_recovery():
    p = helix_path(np.pi / 3, 2.0, 5.0, 2.0, 512)
    ang = spherical_angles(p)
    assert np.abs(ang.polar - np.pi / 3).max() < 1e-9
    assert np.abs(ang.azimuth - 2.0 * ang.times).max() < 1e-9


def test_helix_rejects_bad_cone():
    with pytest.raises(ValueError, match=r"\[0, pi\]"):
        helix_path(3.5, 1.0, 1.0, 1.0, 64)
    with pytest.raises(ValueError, match="nonzero"):
        helix_path(1.0, 0.0, 1.0, 1.0, 64)
    with pytest.raises(ValueError, match="16 steps"):
        helix_path(1.0, 1.0, 1.0, 4.0, 32)


@pytest.mark.parametrize("n_steps", [100.7, 100.0, "100", True, np.float64(100.0), float("inf"), float("nan"), None],
                         ids=["100.7", "100.0", "'100'", "True", "np.float64", "inf", "nan", "None"])
def test_helix_rejects_non_integer_step_counts(n_steps):
    # 100.7 and '100' silently built 100 steps, and inf raised OverflowError
    with pytest.raises(ValueError, match=r"^n_steps must be an integer, got "):
        helix_path(1.0, 1.0, 1.0, 1.0, n_steps)


@pytest.mark.parametrize("n_steps", [2**53, 2**60, np.uint64(2**63), 10**30], ids=["2**53", "2**60", "np.uint64", "10**30"])
def test_helix_rejects_step_counts_from_2_53(n_steps):
    # past 2**53 the sample times i * step are not exact, and the checks
    # walked about n / 2**14 chunks: 2**60 steps ran past 8 s
    with pytest.raises(ValueError, match=r"^n_steps must be below 2\*\*53, got "):
        helix_path(1.0, 1.0, 1.0, 1.0, n_steps)
    with pytest.raises(ValueError, match="16 steps"):  # 2**53 - 1 passes that bound, and fails the next
        helix_path(1.0, 1.0, 1.0, 2.0**60, 2**53 - 1)


@pytest.mark.parametrize("n_steps", [np.int64(100), np.uint16(100)], ids=["np.int64", "np.uint16"])
def test_helix_takes_numpy_integer_step_counts(n_steps):
    path = helix_path(1.0, 1.0, 1.0, 1.0, n_steps)
    assert path.n_samples == 101
    assert np.array_equal(path.k_hat, helix_path(1.0, 1.0, 1.0, 1.0, 100).k_hat)


# ---------------------------------------------------------- spherical_angles

def test_angles_pole_convention():
    p = helix_path(0.0, 1.0, 1.0, 1.0, 64)
    ang = spherical_angles(p)
    assert np.array_equal(ang.polar, np.zeros_like(ang.polar))
    assert np.array_equal(ang.azimuth, np.zeros_like(ang.azimuth))


def test_azimuth_unwraps_without_branch_jump():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    ang = spherical_angles(p)
    steps = np.diff(ang.azimuth)
    assert np.all(steps > 0)
    assert np.abs(steps).max() < np.pi


def test_three_cycle_winding():
    p = helix_path(np.pi / 3, 1.0, 1.0, 3.0, 1024)
    ang = spherical_angles(p)
    assert abs((ang.azimuth[-1] - ang.azimuth[0]) - 6.0 * np.pi) < 1e-6


def test_angles_reconstruct_path():
    for cone in (0.1, np.pi / 3, np.pi / 2, 2.8):
        p = helix_path(cone, 1.0, 1.0, 2.0, 256)
        ang = spherical_angles(p)
        rebuilt = np.stack([
            np.sin(ang.polar) * np.cos(ang.azimuth),
            np.sin(ang.polar) * np.sin(ang.azimuth),
            np.cos(ang.polar),
        ], axis=1)
        assert np.abs(rebuilt - p.k_hat).max() < 1e-9


def _sequential_azimuth(path):
    """The per-sample loop spherical_angles replaced: the bitwise oracle."""
    kh = path.k_hat
    raw = np.arctan2(kh[:, 1], kh[:, 0])
    off_pole = np.hypot(kh[:, 0], kh[:, 1]) >= 1e-9
    azimuth = np.empty_like(raw)
    previous = 0.0
    for i in range(len(raw)):
        if off_pole[i]:
            previous = raw[i] + 2.0 * np.pi * np.round((previous - raw[i]) / (2.0 * np.pi))
        azimuth[i] = previous
    return azimuth


def _meridian(t, y_sign=1.0):
    # great circle through both poles; y is a signed zero, so the raw azimuth
    # jumps by pi at every pole crossing and can be -0.0
    return FiberPath(times=t, k_hat=np.stack([np.sin(t), y_sign * 0.0 * t, np.cos(t)], axis=1), k_mag=1.0)


@pytest.mark.parametrize("make_path", [
    *(pytest.param(lambda c=c: helix_path(c, 1.0, 1.0, 3.0, 3000), id=f"helix-{c:.2f}")
      for c in (0.1, 0.9, np.pi / 2, 2.8)),
    pytest.param(lambda: helix_path(0.9, -2.0, 1.0, 40.0, 20000), id="clockwise-40-cycles"),
    pytest.param(lambda: helix_path(0.0, 1.0, 1.0, 1.0, 64), id="on-pole"),
    pytest.param(lambda: _meridian(np.linspace(-1.0, 1.0, 2001)), id="pole-crossing"),
    pytest.param(lambda: _meridian(np.linspace(0.0, 6.0 * np.pi, 20001), -1.0), id="meridian-3-cycles"),
    pytest.param(lambda: wobble_path(4096), id="wobble"),
])
def test_azimuth_bitwise_matches_sequential_rule(make_path):
    p = make_path()
    assert spherical_angles(p).azimuth.tobytes() == _sequential_azimuth(p).tobytes()


# ----------------------------------------------------------------- FiberPath

def test_path_rejects_nonuniform_grid():
    t = np.array([0.0, 0.1, 0.3, 0.4])
    kh = np.tile([0.0, 0.0, 1.0], (4, 1))
    with pytest.raises(ValueError, match="uniform"):
        FiberPath(times=t, k_hat=kh, k_mag=1.0)


def test_path_rejects_non_unit_samples():
    t = np.linspace(0, 1, 4)
    kh = np.tile([0.0, 0.0, 1.1], (4, 1))
    with pytest.raises(ValueError, match="unit"):
        FiberPath(times=t, k_hat=kh, k_mag=1.0)


def test_path_rejects_coarse_sampling():
    t = np.linspace(0, 1, 4)
    kh = np.array([[0, 0, 1.0], [1.0, 0, 0], [0, 0, 1.0], [1.0, 0, 0]])
    with pytest.raises(ValueError, match="coarse"):
        FiberPath(times=t, k_hat=kh, k_mag=1.0)


def test_path_rejects_too_few_samples():
    with pytest.raises(ValueError, match="3 samples"):
        FiberPath(times=np.array([0.0, 1.0]), k_hat=np.tile([0, 0, 1.0], (2, 1)), k_mag=1.0)


@pytest.mark.parametrize("field", ["times", "k_hat", "k_mag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_path_rejects_non_finite(field, bad):
    t = np.linspace(0, 1, 4)
    kh = np.tile([0.0, 0.0, 1.0], (4, 1))
    args = {"times": t, "k_hat": kh, "k_mag": 1.0}
    if field == "k_mag":
        args["k_mag"] = bad
    else:
        args[field][2] = bad
    with pytest.raises(ValueError, match="finite"):
        FiberPath(**args)


# --------------------------------------------------------------------- k_dot

def test_k_dot_constant_path_zero():
    p = helix_path(0.0, 1.0, 1.0, 1.0, 64)
    assert np.abs(k_dot(p)).max() == 0.0


def test_k_dot_equator_magnitude():
    # oracle: |d/dt (cos t, sin t, 0)| = 1; stencil error is O(dt^2)
    for n in (256, 512):
        p = helix_path(np.pi / 2, 1.0, 1.0, 1.0, n)
        err = np.abs(np.linalg.norm(k_dot(p), axis=1) - 1.0).max()
        assert err < p.dt**2


def test_k_dot_orthogonal_to_path():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
    radial = np.abs(np.einsum("ni,ni->n", k_dot(p), p.k_hat)).max()
    assert radial < p.dt**2


# ----------------------------------------------------------- motion_residual

def test_motion_residual_constant_path():
    p = helix_path(0.0, 1.0, 1.0, 1.0, 64)
    assert np.abs(motion_residual(p)).max() == 0.0


def test_motion_residual_helix_magnitude():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
    assert motion_residual(p).max() < 1e-3  # k * omega = 1


def test_motion_residual_converges_second_order_generic():
    # the guaranteed order; constant-speed circles superconverge beyond it
    r1 = motion_residual(wobble_path(512)).max()
    r2 = motion_residual(wobble_path(1024)).max()
    assert 3.0 < r1 / r2 < 5.0


def test_motion_residual_helix_refinement():
    # circle paths beat second order (the dt^2 term cancels); only assert
    # the contracted rate as a floor
    r1 = motion_residual(helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)).max()
    r2 = motion_residual(helix_path(np.pi / 3, 1.0, 1.0, 1.0, 1024)).max()
    assert r1 / r2 > 3.5
    r1 = motion_residual(helix_path(np.pi / 2, 1.0, 1.0, 1.0, 512)).max()
    r2 = motion_residual(helix_path(np.pi / 2, 1.0, 1.0, 1.0, 1024)).max()
    assert r1 / r2 > 3.5


def _cross_product_motion_residual(path):
    """The residual's defining form |k_dot + k x (k x k_dot)/k^2|, kept as the oracle."""
    k = path.k_mag * path.k_hat
    kd = k_dot(path)
    return np.linalg.norm(kd + np.cross(k, np.cross(k, kd)) / path.k_mag**2, axis=1)


def _wobble_file(tmp_path):
    t = np.linspace(0.0, 4.0 * np.pi, 3001)
    polar = 0.9 + 0.3 * np.sin(3.0 * t)
    azimuth = t + 0.2 * np.cos(2.0 * t)
    k = 2.5 * np.stack([np.sin(polar) * np.cos(azimuth), np.sin(polar) * np.sin(azimuth), np.cos(polar)], axis=1)
    filename = tmp_path / "wobble.txt"
    np.savetxt(filename, np.column_stack([t, k]), fmt="%.17g")
    return load_path(str(filename))


@pytest.mark.parametrize("make_path", [
    lambda tmp: helix_path(0.9, 1.0, 1.0, 1.0, 100_000),
    _wobble_file,
    lambda tmp: wobble_path(4096),
], ids=["helix", "wobble-file", "varying-cone"])
def test_motion_residual_matches_cross_product_form(tmp_path, make_path):
    # k_dot + k x (k x k_dot)/k^2 = k_hat (k_hat . k_dot); the two forms differ
    # only by the rounding of the cross products, O(eps |k_dot|)
    p = make_path(tmp_path)
    assert np.abs(motion_residual(p) - _cross_product_motion_residual(p)).max() <= 1e-15


# ---------------------------------------------------------- rotation_vectors

def test_rotation_vector_constant_path():
    p = helix_path(0.0, 1.0, 1.0, 1.0, 64)
    theta = rotation_vectors(p)
    assert theta.shape == (p.n_samples - 1, 3)  # one vector per step
    assert np.abs(theta).max() == 0.0


def test_rotation_vector_equator():
    # oracle: (cos t, sin t, 0) x (cos t', sin t', 0) = (0, 0, sin dt)
    p = helix_path(np.pi / 2, 1.0, 1.0, 1.0, 256)
    dt = p.dt
    theta = rotation_vectors(p)
    assert np.abs(theta - np.array([0.0, 0.0, dt])).max() < dt**3


def test_rotation_vector_matches_k_dot():
    p = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 512)
    kd = k_dot(p)
    k = p.k_mag * p.k_hat
    dt = p.dt
    expected = np.cross(k[:-1], kd[:-1]) / p.k_mag**2 * dt
    assert np.abs(rotation_vectors(p) - expected).max() < 5.0 * dt**2


@pytest.mark.parametrize("k_mag", [1.0, 2.5, 1e200])
def test_rotation_vectors_match_per_step_cross_products(k_mag):
    # oracle: the per-step formula k_hat_i x k_hat_{i+1} = (k_i x k_{i+1}) / k^2,
    # one sample pair at a time; k_mag does not enter it
    p = wobble_path(256, k_mag=k_mag)
    kh = p.k_hat
    expected = np.array([np.cross(kh[i], kh[i + 1]) for i in range(p.n_samples - 1)])
    assert np.array_equal(rotation_vectors(p), expected)


# --------------------------------------------------------- solid angle series

def test_solid_angle_full_cycle_closed_form():
    for cone in (np.pi / 6, np.pi / 3, np.pi / 2):
        p = helix_path(cone, 1.0, 1.0, 1.0, 512)
        series = spherical_angles(p).solid_angle
        assert series[0] == 0.0
        assert abs(series[-1] - 2.0 * np.pi * (1.0 - np.cos(cone))) < 1e-9


def test_solid_angle_zero_at_pole():
    p = helix_path(0.0, 1.0, 1.0, 1.0, 64)
    assert np.abs(spherical_angles(p).solid_angle).max() == 0.0


# ----------------------------------------------------------------- load_path

def test_load_path_roundtrip(tmp_path):
    p = helix_path(np.pi / 3, 1.0, 2.5, 1.0, 64)
    filename = tmp_path / "traj.txt"
    k = p.k_mag * p.k_hat
    lines = ["# t kx ky kz", "   # another comment"]
    for t, v in zip(p.times, k):
        lines.append(f"{float(t)!r} {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}  # sample")
    filename.write_text("\n".join(lines) + "\n")
    loaded = load_path(filename)
    assert abs(loaded.k_mag - 2.5) < 1e-12
    assert np.abs(loaded.k_hat - p.k_hat).max() < 1e-12
    assert np.abs(loaded.times - p.times).max() == 0.0


def test_load_path_rejects_varying_magnitude(tmp_path):
    filename = tmp_path / "bad.txt"
    filename.write_text("0 1 0 0\n0.1 0.99 0.1 0\n0.2 1.2 0 0\n")
    with pytest.raises(ValueError, match="varies"):
        load_path(filename)


def test_load_path_rejects_malformed_record(tmp_path):
    filename = tmp_path / "bad.txt"
    filename.write_text("0 1 0\n")
    with pytest.raises(ValueError, match="expected 4 fields"):
        load_path(filename)


def _list_loader(filename):
    """The former list-of-lists loader, kept as a bitwise oracle for load_path."""
    times, vecs = [], []
    with open(filename) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 4:
                raise ValueError(f"{filename}:{lineno}: expected 4 fields 't kx ky kz', got {len(parts)}")
            try:
                rec = [float(p) for p in parts]
            except ValueError as exc:
                raise ValueError(f"{filename}:{lineno}: {exc}") from None
            times.append(rec[0])
            vecs.append(rec[1:])
    if len(times) < 3:
        raise ValueError(f"{filename}: path needs at least 3 samples, got {len(times)}")
    vecs = np.asarray(vecs, dtype=float)
    norms = np.linalg.norm(vecs, axis=1)
    k_mag = norms[0]
    if k_mag <= 0:
        raise ValueError(f"{filename}: first sample has zero wave vector")
    if np.max(np.abs(norms - k_mag)) > 1e-6 * k_mag:
        raise ValueError(f"{filename}: |k| varies along the path")
    return FiberPath(times=np.asarray(times), k_hat=vecs / norms[:, None], k_mag=float(k_mag))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _mixed_format_text():
    """A valid 1e3-magnitude loop written with every accepted layout quirk."""
    t = np.arange(40) * 0.5
    phi = 2.0 * np.pi * np.arange(40) / 39
    k = 1e3 * np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=1)
    lines = [
        "# imported trajectory",
        "#   columns: t kx ky kz",
        "",
        "0 1e3 0 -0.0  # first sample, inline comment",
        "   ",
        ".5\t" + "\t".join(repr(float(v)) for v in k[1]),
        "\t",
        "+1. " + " ".join(repr(float(v)) for v in k[2]) + "\t# tab before the comment",
    ]
    for i in range(3, 40):
        lines.append(f"  {float(t[i])!r}  {float(k[i, 0])!r} {float(k[i, 1])!r}\t{float(k[i, 2])!r}  ")
        if i % 9 == 0:
            lines.append("# a comment between records")
    return "\r\n".join(lines) + "\r\n"


def test_load_path_bitwise_matches_list_oracle(tmp_path):
    filename = tmp_path / "mixed.txt"
    filename.write_bytes(_mixed_format_text().encode())
    assert b"\r\n" in filename.read_bytes()
    loaded, oracle = load_path(filename), _list_loader(filename)
    assert loaded.n_samples == 40
    assert _same_bits(loaded.times, oracle.times)
    assert _same_bits(loaded.k_hat, oracle.k_hat)
    assert loaded.k_mag == oracle.k_mag == 1e3
    assert np.signbit(loaded.k_hat[0, 2])  # the -0.0 survives
    assert loaded.times.flags.c_contiguous and loaded.k_hat.flags.c_contiguous


def _loop_file(tmp_path, n, k_mag=1.0):
    """A closed loop theta = 1.1 + 0.3 sin 3 phi of n records, 17 significant digits."""
    phi = np.linspace(0.0, 2.0 * np.pi, n)
    theta = 1.1 + 0.3 * np.sin(3.0 * phi)
    k = k_mag * np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1)
    rows = np.column_stack([phi, k])
    filename = tmp_path / "loop.txt"
    filename.write_text("# loop\n" + ("%.16e %.16e %.16e %.16e\n" * n) % tuple(rows.ravel()))
    return filename


def test_load_path_bitwise_matches_list_oracle_on_loop(tmp_path):
    filename = _loop_file(tmp_path, 2001)
    loaded, oracle = load_path(filename), _list_loader(filename)
    assert _same_bits(loaded.times, oracle.times)
    assert _same_bits(loaded.k_hat, oracle.k_hat)
    assert loaded.k_mag == oracle.k_mag


def _ten_line_file(tmp_path, line7):
    lines = ["# header"] + [f"{0.1 * i!r} 1 {0.01 * i!r} 0" for i in range(9)]
    lines[6] = line7
    filename = tmp_path / "ten.txt"
    filename.write_text("\n".join(lines) + "\n")
    return filename


@pytest.mark.parametrize("line7, detail", [
    ("0.5 1 0.05", "expected 4 fields 't kx ky kz', got 3"),
    ("0.5 1 0.05 0 0", "expected 4 fields 't kx ky kz', got 5"),
    ("0.5 1 abc 0", "could not convert string to float: 'abc'"),
])
def test_load_path_record_errors_name_the_line(tmp_path, line7, detail):
    filename = _ten_line_file(tmp_path, line7)
    for loader in (load_path, _list_loader):
        with pytest.raises(ValueError) as info:
            loader(filename)
        assert str(info.value) == f"{filename}:7: {detail}"


@pytest.mark.parametrize("text, message", [
    ("# two records only\n0 1 0 0\n\n0.1 1 0 0\n", "path needs at least 3 samples, got 2"),
    ("# nothing but comments\n\n   \n", "path needs at least 3 samples, got 0"),
    ("0 0 0 0\n0.1 1 0 0\n0.2 1 0 0\n", "first sample has zero wave vector"),
])
def test_load_path_file_errors(tmp_path, text, message):
    filename = tmp_path / "bad.txt"
    filename.write_text(text)
    for loader in (load_path, _list_loader):
        with pytest.raises(ValueError) as info:
            loader(filename)
        assert str(info.value) == f"{filename}: {message}"


@pytest.mark.parametrize("text, sample", [
    ("0 1e200 0 0\n0.1 1e200 1e198 0\n0.2 1e200 2e198 0\n", 0),
    ("0 1e-200 0 0\n0.1 1e-200 1e-202 0\n0.2 1e-200 2e-202 0\n", 0),
    ("0 1 0 0\n0.1 1 0.01 0\n0.2 1e200 0 0\n0.3 1 0.03 0\n", 2),
    ("0 1 0 0\n0.1 1 0.01 0\n0.2 1 0.02 0\n0.3 0 -1e-170 0\n", 3),
], ids=["overflow", "underflow", "later-overflow", "later-underflow"])
def test_load_path_rejects_a_norm_outside_float64(tmp_path, text, sample):
    # |k| past the float64 range overflowed to inf, or underflowed to 0, in the
    # norm: the file was rejected as having k_mag inf or a zero first sample
    filename = tmp_path / "bad.txt"
    filename.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        with pytest.raises(ValueError) as info:
            load_path(filename)
    assert str(info.value) == f"{filename}: sample {sample}: |k| is outside the range of float64 norms"


@pytest.mark.parametrize("k_mag", [3e-162, 1e-160, 1e-155, 2.0**-511, 1e-150])
def test_load_path_norm_with_subnormal_square(tmp_path, k_mag):
    # |k|^2 subnormal: the plain norm lost bits, so 1e-160 was rejected as
    # varying and 1e-155 loaded with k_hat norms off by 2.3e-14
    phi = np.linspace(0.0, 2.0 * np.pi, 200)
    filename = tmp_path / "tiny.txt"
    np.savetxt(filename, np.column_stack([phi, k_mag * np.cos(phi), k_mag * np.sin(phi), 0.0 * phi]), fmt="%.17e")
    path = load_path(filename)
    assert abs(path.k_mag / k_mag - 1.0) <= 2.3e-16
    assert np.abs(np.linalg.norm(path.k_hat, axis=1) - 1.0).max() <= 4.5e-16


def test_load_path_varying_magnitude_message(tmp_path):
    filename = tmp_path / "bad.txt"
    filename.write_text("0 1 0 0\n0.1 0.99 0.1 0\n0.2 1.25 0 0\n")
    with pytest.raises(ValueError) as info:
        load_path(filename)
    assert str(info.value) == (
        f"{filename}: |k| varies along the path (sample 2: 1.25 vs 1.0); "
        "only constant-magnitude trajectories are supported"
    )


@pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "NaN", "+inf", "1e999"])
def test_load_path_rejects_non_finite_token(tmp_path, token):
    filename = _ten_line_file(tmp_path, f"0.5 1 {token} 0")
    with pytest.raises(ValueError) as info:
        load_path(filename)
    assert str(info.value) == f"{filename}:7: non-finite value {token!r}"


def test_load_path_non_finite_reported_before_later_errors(tmp_path):
    filename = tmp_path / "bad.txt"
    filename.write_text("0 1 0 0\n0.1 nan 0 0\n0.2 1 0\n")
    with pytest.raises(ValueError, match=r":2: non-finite value 'nan'$"):
        load_path(filename)


def test_load_path_memory_budget(tmp_path):
    import tracemalloc

    n = 100_000
    phi = np.linspace(0.0, 2.0 * np.pi, n)
    rows = np.column_stack([phi, 0.6 * np.cos(phi), 0.6 * np.sin(phi), np.full(n, 0.8)])
    filename = tmp_path / "big.txt"
    filename.write_text(("%.16e %.16e %.16e %.16e\n" * n) % tuple(rows.ravel()))
    tracemalloc.start()
    try:
        path = load_path(filename)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.n_samples == n
    assert peak / n < 200  # bytes per sample


# ---------------------------------------------------- chunked row-norm passes

CHUNK = geometry._CHUNK_ROWS
N_CHUNKED = 2 * CHUNK + 5  # three chunks, the last one short
BOUNDARY_ROWS = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, N_CHUNKED - 1]

UNIFORM = "time grid must be uniform"
NOT_UNIT = "k_hat samples must be unit vectors (within 1e-9)"
COARSE = "adjacent k_hat samples differ by >= 0.5; grid too coarse for finite differencing"


def _slow_cone(n):
    t = 1e-3 * np.arange(n)
    return t, np.stack([0.6 * np.cos(t), 0.6 * np.sin(t), np.full(n, 0.8)], axis=1)


def test_chunked_checks_accept_a_clean_multi_chunk_path():
    t, kh = _slow_cone(N_CHUNKED)
    assert FiberPath(times=t, k_hat=kh, k_mag=1.0).n_samples == N_CHUNKED


@pytest.mark.parametrize("row", BOUNDARY_ROWS)
def test_non_uniform_time_at_chunk_boundary(row):
    t, kh = _slow_cone(N_CHUNKED)
    t[row] += 0.3e-3
    with pytest.raises(ValueError) as info:
        FiberPath(times=t, k_hat=kh, k_mag=1.0)
    assert str(info.value) == UNIFORM


@pytest.mark.parametrize("row", BOUNDARY_ROWS)
def test_non_unit_sample_at_chunk_boundary(row):
    t, kh = _slow_cone(N_CHUNKED)
    kh[row] *= 1.0 + 2e-9
    with pytest.raises(ValueError) as info:
        FiberPath(times=t, k_hat=kh, k_mag=1.0)
    assert str(info.value) == NOT_UNIT


@pytest.mark.parametrize("row", BOUNDARY_ROWS)
def test_coarse_step_at_chunk_boundary(row):
    # a constant direction that turns by 0.6 rad between rows row-1 and row:
    # the only large step straddles the chunk edge when row is a chunk start
    t = 1e-3 * np.arange(N_CHUNKED)
    kh = np.tile([0.0, 0.0, 1.0], (N_CHUNKED, 1))
    kh[row:] = [np.sin(0.6), 0.0, np.cos(0.6)]
    with pytest.raises(ValueError) as info:
        FiberPath(times=t, k_hat=kh, k_mag=1.0)
    assert str(info.value) == COARSE


def test_row_norms_bitwise_match_whole_array_norm():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(N_CHUNKED, 3))
    assert _same_bits(geometry._row_norms(x), np.linalg.norm(x, axis=1))


def test_load_path_bitwise_matches_list_oracle_across_chunks(tmp_path):
    filename = _loop_file(tmp_path, N_CHUNKED, k_mag=2.5)
    loaded, oracle = load_path(filename), _list_loader(filename)
    assert loaded.n_samples == N_CHUNKED
    assert _same_bits(loaded.times, oracle.times)
    assert _same_bits(loaded.k_hat, oracle.k_hat)
    assert loaded.k_mag == oracle.k_mag


@pytest.mark.parametrize("row", BOUNDARY_ROWS)
def test_load_path_names_a_varying_magnitude_past_the_first_chunk(tmp_path, row):
    t = 1e-3 * np.arange(N_CHUNKED)
    rows = np.column_stack([t, np.zeros(N_CHUNKED), np.zeros(N_CHUNKED), np.ones(N_CHUNKED)])
    rows[row, 3] = 1.25
    filename = tmp_path / "jump.txt"
    filename.write_text(("%r %r %r %r\n" * N_CHUNKED) % tuple(rows.ravel().tolist()))
    with pytest.raises(ValueError) as info:
        load_path(filename)
    assert str(info.value) == (
        f"{filename}: |k| varies along the path (sample {row}: 1.25 vs 1.0); "
        "only constant-magnitude trajectories are supported"
    )


def test_path_layers_memory_budget(tmp_path):
    # each layer holds its outputs, one chunk and O(n) scratch; with full-size
    # temporaries in validation and norms these were 153, 153 and 112 B/sample
    import tracemalloc

    n = 100_000
    filename = _loop_file(tmp_path, n)
    tracemalloc.start()
    try:
        path = load_path(filename)
        loaded = tracemalloc.get_traced_memory()[1] / n
        tracemalloc.reset_peak()
        spherical_angles(path)
        angles = tracemalloc.get_traced_memory()[1] / n  # the path is still held
        del path
        tracemalloc.reset_peak()
        helix = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n - 1)
        helix_peak = tracemalloc.get_traced_memory()[1] / n
    finally:
        tracemalloc.stop()
    assert helix.n_samples == n
    assert loaded < 90, loaded
    assert angles < 110, angles
    assert helix_peak < 22, helix_peak  # one chunk of rows and checks: 18.4 (50 while the helix held its samples)


def test_helix_path_holds_its_parameters_and_one_chunk():
    # the checks read one chunk of rows at a time, evaluated from the closed
    # form, and the path keeps only its parameters: the peak is 1.84 MB at
    # every size (18.4 B/sample at 1e5 samples; 50 and 32 held while the
    # helix held its samples)
    import tracemalloc

    for n_steps in (100_000, 400_000):
        tracemalloc.start()
        try:
            path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, n_steps)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert path.n_samples == n_steps + 1
        assert held < 4096, (n_steps, held)  # bytes
        assert peak < 2.2e6, (n_steps, peak)


def test_path_layers_hold_their_outputs_and_one_chunk(tmp_path):
    # load_path holds times and k_hat (32 B/sample), the norms and one block
    # of lines; spherical_angles adds polar and azimuth and one float and
    # bool of scratch per sample; W adds itself; the chunk temporaries of the
    # unwrap and of W are bounded by _CHUNK_ROWS.  With the parse buffer
    # copied into k_hat, np.unwrap and whole-array W these were 73, 89 and 80.
    import tracemalloc

    n = 100_000
    filename = _loop_file(tmp_path, n)
    tracemalloc.start()
    try:
        path = load_path(filename)
        loaded = tracemalloc.get_traced_memory()[1] / n
        tracemalloc.reset_peak()
        angles = spherical_angles(path)
        with_angles = tracemalloc.get_traced_memory()[1] / n
        tracemalloc.reset_peak()
        assert not angles.solid_angle.flags.writeable  # W is held with the angles
        w_step = tracemalloc.get_traced_memory()[1] / n  # the path is still held
    finally:
        tracemalloc.stop()
    assert loaded < 55, loaded
    assert with_angles < 70, with_angles
    assert w_step < 70, w_step


# ------------------------------------------- row iterator and stencil kernel

def test_row_slices_tile_every_range():
    # every range of up to 14 rows from starts 0 to 3, in steps of 1 to 15:
    # consecutive slices of `step` rows that cover it once, the last one cut short
    for start in range(4):
        for stop in range(start, start + 15):
            for step in range(1, 16):
                slices = list(geometry._row_slices(start, stop, step))
                assert [i for rows in slices for i in range(rows.start, rows.stop)] == list(range(start, stop))
                assert all(rows.stop - rows.start == step for rows in slices[:-1])
                assert all(0 < rows.stop - rows.start <= step for rows in slices)


def test_row_slices_read_the_chunk_size_at_each_call(monkeypatch):
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 3)
    assert list(geometry._row_slices(1, 8)) == [slice(1, 4), slice(4, 7), slice(7, 8)]
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", 8)
    assert list(geometry._row_slices(0, 5)) == [slice(0, 5)]


@pytest.mark.parametrize("scale", [1.0, 2.5])
@pytest.mark.parametrize("trailing", [(), (3,)], ids=["series", "vectors"])
def test_stencil_matches_derivative_uniform_at_every_block(trailing, scale):
    # every block of 1 to n + 2 samples starting anywhere up to two past the
    # end of an n-sample series, n = 3 .. 9: bitwise derivative_uniform's rows
    # (one-sided at both ends, zero past the end) and the scaled samples
    rng = np.random.default_rng(11)
    dt = 0.37
    for n in range(3, 10):
        values = rng.normal(size=(n, *trailing))
        pad = n + 4
        rate = np.concatenate([geometry.derivative_uniform(scale * values, dt), np.zeros((pad, *trailing))])
        centre = np.concatenate([scale * values, np.repeat(scale * values[-1:], pad, axis=0)])
        for first in range(n + 2):
            for width in range(1, n + 3):
                got_rate, got_centre = geometry._stencil(values, first, width, dt, scale)
                assert _same_bits(got_rate, rate[first : first + width]), (n, first, width)
                assert _same_bits(got_centre, centre[first : first + width]), (n, first, width)
        # a block per leading index, as the scan gathers its slabs
        firsts = np.array([[0, 2], [n - 2, n]])
        got_rate, got_centre = geometry._stencil(values, firsts, 3, dt, scale)
        assert _same_bits(got_rate, np.stack([[rate[f : f + 3] for f in row] for row in firsts]))
        assert _same_bits(got_centre, np.stack([[centre[f : f + 3] for f in row] for row in firsts]))


# ------------------------------------------------------ kernels of one pass

KERNEL_PASSES = {  # the series each kernel gives per chunk of one pass over a path
    "angles": lambda path: map(geometry._Angles(path.dt), geometry._windows(path)),
    "transport": lambda path: (piece[:2] for piece in evolution._unwrapped(evolution._fan(geometry._windows(path), +1))),
    "residuals": lambda path: ((geometry._invariant_residual(path, window), geometry._motion_residual(path, window))
                               for window in geometry._windows(path)),
}
PASS_PATHS = {
    "wobble": wobble_path(300),
    "equator": helix_path(np.pi / 2, 1.0, 1.0, 2.0, 300),  # samples 75 and 225 at the start's antipode, flagged
}


@pytest.mark.parametrize("case", sorted(PASS_PATHS))
@pytest.mark.parametrize("kind", sorted(KERNEL_PASSES))
@settings(max_examples=30, deadline=None)
@given(chunk=st.integers(1, 1300))
def test_kernel_chunks_join_to_the_whole_array(kind, case, chunk):
    # each kernel hands over one piece per chunk of the pass, in order, which
    # joined are bit for bit the pass of one chunk, whatever the chunk size
    path, make = PASS_PATHS[case], KERNEL_PASSES[kind]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_CHUNK_ROWS", 1 << 20)
        (whole,) = list(make(path))
        mp.setattr(geometry, "_CHUNK_ROWS", chunk)
        pieces = list(make(path))
        slices = list(geometry._row_slices(0, path.n_samples))
    assert len(pieces) == len(slices)
    for piece, rows in zip(pieces, slices):
        assert [len(series) for series in piece] == [rows.stop - rows.start] * len(whole)
    for i, series in enumerate(whole):
        assert np.concatenate([piece[i] for piece in pieces]).tobytes() == series.tobytes(), i
    if kind == "transport":
        assert whole[1].any() == (case == "equator")


# ------------------------------------------------- k_dot consumers in chunks

def _slow_wobble(n):
    """n samples of a wobbling cone, slow enough for any n to pass the step check."""
    t = 1e-3 * np.arange(n)
    lam = 0.9 + 0.2 * np.sin(7.0 * t)
    return FiberPath(times=t, k_hat=np.stack([np.sin(lam) * np.cos(t), np.sin(lam) * np.sin(t), np.cos(lam)], axis=1),
                     k_mag=2.5)


def _whole_array_h(path):
    """h = k_hat x k_hat_dot with whole-array numpy: the oracle of the chunked generator rows."""
    return np.cross(path.k_hat, geometry.derivative_uniform(path.k_hat, path.dt))


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK])
def test_h_and_motion_residual_match_whole_array_forms_bitwise(n):
    # both take their stencil rows one chunk at a time
    path = _slow_wobble(n)
    assert _same_bits(hamiltonian_coefficients(path), _whole_array_h(path))
    assert _same_bits(motion_residual(path), np.abs(np.einsum("ni,ni->n", path.k_hat, k_dot(path))))


@pytest.mark.parametrize("chunk", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [3, 4, 5, 11])
def test_stencil_chunks_cover_short_paths(monkeypatch, chunk, n):
    # chunks shorter than the 3-sample stencil still take it from a wider window
    path = _slow_wobble(n)
    rate = k_dot(path)
    monkeypatch.setattr(geometry, "_CHUNK_ROWS", chunk)
    assert _same_bits(hamiltonian_coefficients(path), _whole_array_h(path))
    assert _same_bits(motion_residual(path), np.abs(np.einsum("ni,ni->n", path.k_hat, rate)))


def _pole_meridian(n):
    """A great circle through both poles, sampled on both of them."""
    theta = np.linspace(0.0, 2.0 * np.pi, n)
    kh = np.stack([np.sin(theta), np.zeros(n), np.cos(theta)], axis=1)
    kh[[0, (n - 1) // 2, n - 1]] = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, 0.0, 1.0]]
    return FiberPath(times=theta, k_hat=kh, k_mag=1.0)


def test_pole_fill_memory_budget():
    # the fill goes one chunk at a time; with the int64 cumsum index and the
    # gathered values of a whole-array fill this was 50 B/sample
    import tracemalloc

    n = 100_001
    path = _pole_meridian(n)
    tracemalloc.start()
    try:
        angles = spherical_angles(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert angles.azimuth[0] == 0.0 and angles.azimuth[(n - 1) // 2] == angles.azimuth[(n - 1) // 2 - 1]
    assert peak / n < 35, peak / n
