import numpy as np
import pytest

from fiberphase import fock
from fiberphase.fock import (
    FockLadder,
    Ordering,
    cyclic_phases,
    phase_spectrum,
    quantal_geometric_phase,
    vacuum_phase,
)
from fiberphase.geometry import helix_path, spherical_angles


def helix_angles(cone, n_cycles=1.0, n_steps=512):
    return spherical_angles(helix_path(cone, 1.0, 1.0, n_cycles, n_steps))


CYCLE = lambda cone: 2.0 * np.pi * (1.0 - np.cos(cone))


# -------------------------------------------------------------- cyclic_phases

def test_vacuum_only_state_symmetric():
    for cone in (np.pi / 6, np.pi / 3, np.pi / 2, 2.0):
        pl, pr = cyclic_phases(0, 0, cone, Ordering.SYMMETRIC)
        assert pl == -0.5 * CYCLE(cone)
        assert pr == +0.5 * CYCLE(cone)
        assert pl + pr == 0.0


def test_vacuum_only_state_normal_ordering_deletes():
    pl, pr = cyclic_phases(0, 0, np.pi / 3, Ordering.NORMAL)
    assert (pl, pr) == (0.0, 0.0)


def test_occupied_state_substitution():
    # direct substitution with cos(pi/2) = 0: weights 5/2 and 3/2 per mode
    pl, pr = cyclic_phases(2, 1, np.pi / 2, Ordering.SYMMETRIC)
    assert abs(pl - (-5.0 * np.pi)) < 1e-12
    assert abs(pr - (+3.0 * np.pi)) < 1e-12


def test_cyclic_phases_rejects_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        cyclic_phases(-1, 0, 1.0)
    with pytest.raises(ValueError, match=r"\[0, pi\]"):
        cyclic_phases(0, 0, 4.0)
    with pytest.raises(ValueError, match="ordering"):
        cyclic_phases(0, 0, 1.0, "weyl")


OCCUPATION_CALLS = {
    "cyclic_phases": lambda nl, nr: cyclic_phases(nl, nr, 1.0),
    "quantal_geometric_phase": lambda nl, nr: quantal_geometric_phase(nl, nr, helix_angles(np.pi / 3, n_steps=64)),
    # the one check itself, which returns Python ints
    "_check_occupation": lambda nl, nr: (fock._check_occupation(nl, "n_left"), fock._check_occupation(nr, "n_right")),
}


@pytest.mark.parametrize("n", [True, 2.0, -1, 2**52, 2**53 + 1, 10**400, np.float64(1.0)],
                         ids=["true", "2.0", "-1", "2**52", "2**53+1", "10**400", "np.float64"])
@pytest.mark.parametrize("side", ["n_left", "n_right"])
@pytest.mark.parametrize("call", sorted(OCCUPATION_CALLS))
def test_occupation_must_be_an_exact_nonnegative_integer(call, side, n):
    occupations = {"n_left": 0, "n_right": 0, side: n}
    with pytest.raises(ValueError, match=rf"^{side}: expected a nonnegative integer below 2\*\*52, got "):
        OCCUPATION_CALLS[call](occupations["n_left"], occupations["n_right"])


@pytest.mark.parametrize("call", sorted(OCCUPATION_CALLS))
def test_numpy_integer_occupations_are_accepted(call):
    # taken as Python ints, so an unsigned n_left cannot wrap n_right - n_left
    got = OCCUPATION_CALLS[call](np.uint8(2), np.int64(1))
    assert np.array_equal(got, OCCUPATION_CALLS[call](2, 1))


def test_ordering_difference_is_exactly_the_half_weights():
    rng = np.random.default_rng(11)
    for _ in range(50):
        nl, nr = int(rng.integers(0, 12)), int(rng.integers(0, 12))
        cone = float(rng.uniform(0.0, np.pi))
        sym = cyclic_phases(nl, nr, cone, Ordering.SYMMETRIC)
        norm = cyclic_phases(nl, nr, cone, Ordering.NORMAL)
        cycle = CYCLE(cone)
        assert abs((sym[0] - norm[0]) - (-0.5 * cycle)) < 1e-12
        assert abs((sym[1] - norm[1]) - (+0.5 * cycle)) < 1e-12


def test_cyclic_phases_affine_in_occupations():
    cone = 1.1
    cycle = CYCLE(cone)
    base = cyclic_phases(0, 0, cone, Ordering.SYMMETRIC)
    for n in range(1, 6):
        pl, pr = cyclic_phases(n, n, cone, Ordering.SYMMETRIC)
        assert abs((pl - base[0]) - (-n * cycle)) < 1e-12
        assert abs((pr - base[1]) - (+n * cycle)) < 1e-12


def test_zero_cone_annihilates_all_phases():
    for ordering in Ordering:
        for nl, nr in ((0, 0), (3, 1), (5, 5)):
            assert cyclic_phases(nl, nr, 0.0, ordering) == (0.0, 0.0)


# ----------------------------------------------------- quantal & vacuum phase

def test_quantal_phase_balanced_occupations_vanish():
    ang = helix_angles(np.pi / 3)
    series = quantal_geometric_phase(2, 2, ang)
    assert np.abs(series).max() == 0.0


def test_quantal_phase_single_right_photon():
    ang = helix_angles(np.pi / 3)
    final = quantal_geometric_phase(0, 1, ang)[-1]
    assert abs(final - CYCLE(np.pi / 3)) < 1e-9


def test_quantal_phase_substitution():
    # (n_right - n_left) = -2 and the pi/3 cycle factor is pi
    ang = helix_angles(np.pi / 3)
    final = quantal_geometric_phase(3, 1, ang)[-1]
    assert abs(final - (-2.0 * np.pi)) < 1e-9


def test_vacuum_phases_cancel_pairwise():
    for cone in (np.pi / 6, np.pi / 3, np.pi / 2):
        ang = helix_angles(cone)
        plus = vacuum_phase(+1, ang)
        minus = vacuum_phase(-1, ang)
        assert np.abs(plus + minus).max() < 1e-14


def test_vacuum_phase_final_values():
    ang = helix_angles(np.pi / 3)
    assert abs(vacuum_phase(+1, ang)[-1] - 0.5 * CYCLE(np.pi / 3)) < 1e-9
    ang2 = helix_angles(np.pi / 2)
    assert abs(vacuum_phase(-1, ang2)[-1] - (-np.pi)) < 1e-9


def test_quantal_equals_cyclic_difference_with_halves_cancelled():
    cone = np.pi / 3
    ang = helix_angles(cone)
    for nl, nr in ((0, 1), (2, 0), (3, 4)):
        pl, pr = cyclic_phases(nl, nr, cone, Ordering.SYMMETRIC)
        vac_l, vac_r = cyclic_phases(0, 0, cone, Ordering.SYMMETRIC)
        assert abs(quantal_geometric_phase(nl, nr, ang)[-1] - ((pl - vac_l) + (pr - vac_r))) < 1e-8


# ------------------------------------------------------------------ FockLadder

def test_ladder_dimension_and_labels():
    ladder = FockLadder(n_max=3)
    assert ladder.dim == 16
    labels = ladder.labels()
    assert labels[0] == (0, 0)
    assert labels[-1] == (3, 3)
    assert labels.index((2, 1)) == 2 * 4 + 1  # n_left * (n_max + 1) + n_right


def test_ladder_rejects_bad_truncation():
    with pytest.raises(ValueError):
        FockLadder(n_max=0)


@pytest.mark.parametrize("n_max", [-1, 2.5, 3.0, True, False, "3", None, np.float64(2.0)])
def test_ladder_rejects_non_integer_truncation(n_max):
    # a fractional n_max gave a fractional dim, and a bool passed as 0 or 1
    with pytest.raises(ValueError, match="n_max must be an integer"):
        FockLadder(n_max=n_max)


def test_ladder_takes_numpy_integers():
    assert FockLadder(n_max=np.int64(2)).dim == 9


def _occupations(ladder):
    """Oracle: n_left and n_right of every basis state, from the labels."""
    labels = np.array(ladder.labels(), dtype=float)
    return labels[:, 0], labels[:, 1]


@pytest.mark.parametrize("ordering, offset", [(Ordering.NORMAL, 0.0), (Ordering.SYMMETRIC, 0.5)],
                         ids=["normal", "symmetric"])
def test_phase_spectrum_weights_are_the_occupations_plus_the_ordering_offset(ordering, offset):
    # each basis state's per-mode weight, n or n + 1/2, times -cycle in the
    # left mode and +cycle in the right one, bit for bit
    ladder = FockLadder(n_max=4, ordering=ordering)
    table = phase_spectrum(ladder, 1.1)
    nl, nr = _occupations(ladder)
    assert np.array_equal(table["phi_left"], -(nl + offset) * CYCLE(1.1))
    assert np.array_equal(table["phi_right"], (nr + offset) * CYCLE(1.1))
    assert np.array_equal(table["phi_total"], table["phi_left"] + table["phi_right"])


# -------------------------------------------------------------- phase_spectrum

def test_phase_spectrum_vacuum_cancellation_row():
    table = phase_spectrum(FockLadder(n_max=1, ordering=Ordering.SYMMETRIC), np.pi / 2)
    assert len(table) == 4
    row = table[0]
    assert (row["n_left"], row["n_right"]) == (0, 0)
    assert row["phi_total"] == 0.0  # exact cancellation of the halves
    assert abs(row["phi_left"] - (-np.pi)) < 1e-12
    assert abs(row["phi_right"] - np.pi) < 1e-12


def test_phase_spectrum_normal_vacuum_row_zero():
    table = phase_spectrum(FockLadder(n_max=1, ordering=Ordering.NORMAL), np.pi / 2)
    row = table[0]
    assert row["phi_left"] == 0.0 and row["phi_right"] == 0.0 and row["phi_total"] == 0.0


def test_phase_spectrum_substitution_row():
    table = phase_spectrum(FockLadder(n_max=2, ordering=Ordering.SYMMETRIC), np.pi / 3)
    row = table[FockLadder(n_max=2).labels().index((2, 0))]
    assert abs(row["phi_left"] - (-2.5 * np.pi)) < 1e-12
