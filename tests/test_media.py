import numpy as np
import pytest

from fiberphase.geometry import helix_path, spherical_angles
from fiberphase.media import (
    GyrotropicMedium,
    casimir_cutoff,
    effective_wave_vector,
    mode_status,
    net_vacuum_phase,
    refractive_indices_squared,
)

ISOTROPIC = GyrotropicMedium(eps1=1.0, eps2=0.0, mu1=1.0, mu2=0.0)
ONE_MODE = GyrotropicMedium(eps1=2.0, eps2=3.0, mu1=2.0, mu2=1.0)  # n2 = (15, -1)


def helix_angles(cone=np.pi / 3, n_steps=512):
    return spherical_angles(helix_path(cone, 1.0, 1.0, 1.0, n_steps))


# ------------------------------------------------- refractive_indices_squared

def test_isotropic_identity_medium():
    assert refractive_indices_squared(ISOTROPIC) == (1.0, 1.0)


def test_indices_direct_evaluation():
    m = GyrotropicMedium(eps1=2.0, eps2=1.0, mu1=2.0, mu2=1.0)
    assert refractive_indices_squared(m) == (9.0, 1.0)


def test_indices_one_evanescent_mode():
    assert refractive_indices_squared(ONE_MODE) == (15.0, -1.0)


def test_isotropic_reduction_degenerate():
    m = GyrotropicMedium(eps1=3.0, eps2=0.0, mu1=2.0, mu2=0.0)
    n2p, n2m = refractive_indices_squared(m)
    assert n2p == n2m == 6.0


def test_sign_swap_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        e1, e2, m1, m2 = rng.uniform(-3, 3, size=4)
        a = refractive_indices_squared(GyrotropicMedium(eps1=e1, eps2=e2, mu1=m1, mu2=m2))
        b = refractive_indices_squared(GyrotropicMedium(eps1=e1, eps2=-e2, mu1=m1, mu2=-m2))
        assert a == (b[1], b[0])


def test_medium_rejects_non_finite():
    with pytest.raises(ValueError):
        GyrotropicMedium(eps1=np.inf, eps2=0.0)


# ------------------------------------------------------------------ mode_status

def test_mode_status_isotropic_both_propagate():
    status = mode_status(ISOTROPIC)
    assert status.plus_propagates and status.minus_propagates


def test_mode_status_one_mode_suppressed():
    status = mode_status(ONE_MODE)
    assert status.plus_propagates and not status.minus_propagates


def test_mode_status_zero_index_non_propagating():
    m = GyrotropicMedium(eps1=1.0, eps2=1.0, mu1=1.0, mu2=1.0)
    status = mode_status(m)
    assert status.n2_minus == 0.0
    assert not status.minus_propagates
    assert status.plus_propagates


# --------------------------------------------------------------- casimir_cutoff

def test_cutoff_boundary_propagates():
    assert casimir_cutoff(np.pi / 1.0, 1.0) is False


def test_cutoff_small_wave_vector_suppressed():
    assert casimir_cutoff(0.5, 1.0) is True


def test_cutoff_large_chamber_suppresses_nothing():
    assert casimir_cutoff(1e-6, 1e12) is False


def test_cutoff_monotone_in_chamber_size():
    # shrinking the chamber never un-suppresses a mode
    k = 2.0
    suppressed = [casimir_cutoff(k, a) for a in (10.0, 2.0, 1.0, 0.5, 0.1)]
    assert suppressed == sorted(suppressed)


def test_cutoff_rejects_nonpositive():
    with pytest.raises(ValueError):
        casimir_cutoff(0.0, 1.0)
    with pytest.raises(ValueError):
        casimir_cutoff(1.0, -2.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: effective_wave_vector(ISOTROPIC, np.nan, +1),
        lambda: effective_wave_vector(ISOTROPIC, np.inf, -1),
        lambda: casimir_cutoff(np.nan, 1.0),
        lambda: casimir_cutoff(1.0, np.nan),
        lambda: casimir_cutoff(1.0, np.inf),
        lambda: net_vacuum_phase(ONE_MODE, np.nan, helix_angles()),
        lambda: net_vacuum_phase(ONE_MODE, 1.0, helix_angles(), chamber_length=np.nan),
        # neither mode propagates, and the length is still checked
        lambda: net_vacuum_phase(GyrotropicMedium(-2.0, 0.5), 1.0, helix_angles(), chamber_length=np.nan),
        lambda: net_vacuum_phase(GyrotropicMedium(-2.0, 0.5), 1.0, helix_angles(), chamber_length=-1.0),
    ],
    ids=["k0-nan", "k0-inf", "k-nan", "chamber-nan", "chamber-inf", "net-k0-nan", "net-chamber-nan",
         "net-evanescent-chamber-nan", "net-evanescent-chamber-negative"],
)
def test_non_finite_inputs_are_rejected(call):
    # NaN fails every comparison, so a "<= 0" test let it through
    with pytest.raises(ValueError):
        call()


def test_overflowed_wave_vector_is_not_expelled():
    assert not casimir_cutoff(np.inf, 1.0)


# -------------------------------------------------------- effective_wave_vector

def test_effective_wave_vector_isotropic():
    assert effective_wave_vector(ISOTROPIC, 1.0, +1) == 1.0
    assert effective_wave_vector(ISOTROPIC, 1.0, -1) == 1.0


def test_effective_wave_vector_square_roots():
    m = GyrotropicMedium(eps1=2.0, eps2=1.0, mu1=2.0, mu2=1.0)
    assert effective_wave_vector(m, 1.0, +1) == 3.0
    assert effective_wave_vector(m, 1.0, -1) == 1.0


def test_effective_wave_vector_evanescent_marker():
    assert effective_wave_vector(ONE_MODE, 1.0, -1) is None


def test_effective_wave_vector_near_degenerate_limit():
    eps1, mu1 = 2.0, 2.0
    m = GyrotropicMedium(eps1=eps1, eps2=eps1 * (1 - 1e-6), mu1=mu1, mu2=mu1 * (1 - 1e-6))
    k_minus = effective_wave_vector(m, 1.0, -1)
    assert k_minus is not None
    assert k_minus < 1e-5  # index of the minus mode collapses toward zero


# ------------------------------------------------------------- net_vacuum_phase

def test_net_phase_free_space_cancels():
    ang = helix_angles()
    net = net_vacuum_phase(ISOTROPIC, 1.0, ang, chamber_length=1e9)
    assert net.phase == 0.0
    assert net.plus_survives and net.minus_survives
    assert not net.no_propagating_modes


def test_net_phase_gyrotropic_isolation():
    # only the right-handed zero-point mode survives: +W/2 = +pi/2 at pi/3
    ang = helix_angles(np.pi / 3)
    net = net_vacuum_phase(ONE_MODE, 1.0, ang)
    assert net.plus_survives and not net.minus_survives
    assert abs(net.phase - np.pi / 2) < 1e-12


def test_net_phase_casimir_route():
    # nearly degenerate tensors: k_minus collapses below pi/a while k_plus stays above
    eps1, mu1 = 2.0, 2.0
    m = GyrotropicMedium(eps1=eps1, eps2=eps1 * (1 - 1e-6), mu1=mu1, mu2=mu1 * (1 - 1e-6))
    ang = helix_angles(np.pi / 3)
    net = net_vacuum_phase(m, 1.0, ang, chamber_length=1.0)
    assert net.plus_survives and not net.minus_survives
    assert abs(net.phase - np.pi / 2) < 1e-12


def test_net_phase_both_modes_suppressed():
    ang = helix_angles()
    net = net_vacuum_phase(ISOTROPIC, 1.0, ang, chamber_length=0.1)  # pi/a = 10pi > k
    assert net.no_propagating_modes
    assert net.phase == 0.0


def test_net_phase_sign_flips_with_surviving_mode():
    ang = helix_angles(np.pi / 3)
    flipped = GyrotropicMedium(eps1=2.0, eps2=-3.0, mu1=2.0, mu2=-1.0)
    a = net_vacuum_phase(ONE_MODE, 1.0, ang)
    b = net_vacuum_phase(flipped, 1.0, ang)
    assert b.minus_survives and not b.plus_survives
    assert a.phase == -b.phase
