import numpy as np
import pytest

from fiberphase.evolution import evolve
from fiberphase.fock import Ordering
from fiberphase.geometry import helix_path
from fiberphase.scenario import Scenario, _reduce, compute_scenario, summarize
from fiberphase.spin import (
    CARTESIAN_FROM_ANGULAR,
    _fix_gauge,
    helicity_eigenstates,
    spin1_matrices,
)

S = spin1_matrices()


def test_matrices_hermitian_by_construction():
    for m in (S.s1, S.s2, S.s3):
        assert np.array_equal(m, m.conj().T)


def test_commutators_close_the_algebra():
    # fl(1/sqrt2)^2 is one ulp off 0.5, so [s1,s2] carries ~2e-16; the other
    # two close exactly.  1e-15 pins all three at the rounding floor.
    pairs = [
        (S.s1, S.s2, S.s3),
        (S.s2, S.s3, S.s1),
        (S.s3, S.s1, S.s2),
    ]
    for a, b, c in pairs:
        assert np.abs(a @ b - b @ a - 1j * c).max() <= 1e-15


def test_casimir_is_two():
    total = S.s1 @ S.s1 + S.s2 @ S.s2 + S.s3 @ S.s3
    assert np.abs(total - 2.0 * np.eye(3)).max() <= 1e-15


def test_s3_spectrum_exact():
    assert np.array_equal(np.linalg.eigvalsh(S.s3), np.array([-1.0, 0.0, 1.0]))


def test_cartesian_change_of_basis():
    U = CARTESIAN_FROM_ANGULAR
    assert np.abs(U @ U.conj().T - np.eye(3)).max() < 1e-15
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for i, m in enumerate((S.s1, S.s2, S.s3)):
        assert np.abs(U @ m @ U.conj().T - (-1j * eps[i])).max() < 1e-15


def test_helicity_operator_axis_aligned():
    assert np.array_equal(S.along([0.0, 0.0, 1.0]), S.s3)
    assert np.array_equal(S.along([1.0, 0.0, 0.0]), S.s1)


def test_helicity_operator_tilted_spectrum():
    # oracle: dense eigensolver on the 3x3 matrix
    d = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    w = np.linalg.eigvalsh(S.along(d))
    assert np.abs(w - np.array([-1.0, 0.0, 1.0])).max() < 1e-12


NON_FINITE = [[np.nan, 0.0, 0.0], [0.0, np.nan, 1.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, np.inf]]


def test_helicity_eigenstates_reject_non_unit():
    with pytest.raises(ValueError, match="unit"):
        helicity_eigenstates([0.0, 0.0, 2.0])


@pytest.mark.parametrize("direction", NON_FINITE)
def test_non_finite_direction_rejected(direction):
    with pytest.raises(ValueError, match="finite and of unit length"):
        helicity_eigenstates(direction)


def test_eigenstates_along_z():
    basis = helicity_eigenstates([0.0, 0.0, 1.0])
    assert np.array_equal(basis.e_plus, np.array([1.0, 0.0, 0.0], dtype=complex))
    assert np.array_equal(basis.e_zero, np.array([0.0, 1.0, 0.0], dtype=complex))
    assert np.array_equal(basis.e_minus, np.array([0.0, 0.0, 1.0], dtype=complex))


def test_eigenvalue_labels_flip_with_direction():
    up = helicity_eigenstates([0.0, 0.0, 1.0])
    down = helicity_eigenstates([0.0, 0.0, -1.0])
    assert np.abs(np.abs(np.vdot(down.e_plus, up.e_minus)) - 1.0) < 1e-14
    assert np.abs(np.abs(np.vdot(down.e_minus, up.e_plus)) - 1.0) < 1e-14


def test_eigenpair_residuals_tilted():
    lam = np.pi / 3
    d = np.array([np.sin(lam), 0.0, np.cos(lam)])
    op = S.along(d)
    basis = helicity_eigenstates(d)
    for val, vec in ((-1, basis.e_minus), (0, basis.e_zero), (1, basis.e_plus)):
        assert np.linalg.norm(op @ vec - val * vec) < 1e-12


@pytest.mark.parametrize("direction", [[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -0.6, -0.8]])
def test_basis_index_is_spin_projection_plus_one(direction):
    # evolve's start state is basis[1 - polarization], the spin projection -polarization
    op = S.along(direction)
    basis = helicity_eigenstates(direction)
    for m in (-1, 0, 1):
        assert basis[m + 1] is (basis.e_minus, basis.e_zero, basis.e_plus)[m + 1]
        assert np.linalg.norm(op @ basis[m + 1] - m * basis[m + 1]) < 1e-12
        assert basis[np.int64(m) + 1] is basis[m + 1]


def test_eigenstates_orthonormal():
    rng = np.random.default_rng(7)
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    for d in (v, v * (1.0 + 9e-10)):  # the second is accepted as unit within 1e-9 and normalised
        basis = helicity_eigenstates(d)
        mat = np.stack([basis.e_minus, basis.e_zero, basis.e_plus], axis=1)
        assert np.abs(mat.conj().T @ mat - np.eye(3)).max() < 1e-13


def test_gauge_largest_component_real_positive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        basis = helicity_eigenstates(v)
        for vec in (basis.e_minus, basis.e_zero, basis.e_plus):
            j = int(np.argmax(np.abs(vec)))
            assert vec[j].real > 0
            assert abs(vec[j].imag) < 1e-12


def test_gauge_determinism_bitwise():
    d = np.array([0.3, -0.5, np.sqrt(1 - 0.09 - 0.25)])
    a = helicity_eigenstates(d)
    b = helicity_eigenstates(d)
    assert np.array_equal(a.e_minus, b.e_minus)
    assert np.array_equal(a.e_zero, b.e_zero)
    assert np.array_equal(a.e_plus, b.e_plus)


def test_gauge_continuity_under_small_perturbation():
    lam = np.pi / 3  # away from gauge-degenerate (tie) directions
    base = np.array([np.sin(lam), 0.0, np.cos(lam)])
    eps = 1e-7
    tilted = np.array([np.sin(lam + eps), 0.0, np.cos(lam + eps)])
    a = helicity_eigenstates(base)
    b = helicity_eigenstates(tilted)
    for x, y in ((a.e_minus, b.e_minus), (a.e_zero, b.e_zero), (a.e_plus, b.e_plus)):
        assert np.abs(x - y).max() < 1e-5


def test_random_directions_hermitian_and_spectrum():
    rng = np.random.default_rng(20240817)
    for _ in range(1000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        op = S.along(v)
        assert np.abs(op - op.conj().T).max() < 1e-14
        w = np.linalg.eigvalsh(op)
        assert np.abs(w - np.array([-1.0, 0.0, 1.0])).max() < 1e-10


def test_closed_form_matches_the_eigh_oracle():
    # The oracle is eigh's columns (ascending eigenvalues), gauge-fixed.
    # Measured over these 20 000 directions: the -1 and +1 columns differ from
    # them by at most 7.8e-16 and 9.99e-16; the bound leaves a factor of two
    # for another LAPACK build's rounding.  The 0 state ties (|c+| = |c-|)
    # wherever |k_perp|/sqrt2 >= |k_z|, where eigh's rounding picks the other
    # component, so it agrees only up to a unit phase.
    rng = np.random.default_rng(0)
    directions = rng.normal(size=(20000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    _, vectors = np.linalg.eigh(np.einsum("ni,ijk->njk", directions, np.stack([S.s1, S.s2, S.s3])))
    worst_pm, worst_zero = 0.0, 0.0
    for v, oracle in zip(directions, vectors):
        minus, zero, plus = (_fix_gauge(oracle[:, i]) for i in range(3))
        basis = helicity_eigenstates(v)
        worst_pm = max(worst_pm, np.abs(basis.e_minus - minus).max(), np.abs(basis.e_plus - plus).max())
        overlap = np.vdot(zero, basis.e_zero)
        worst_zero = max(worst_zero, abs(abs(overlap) - 1.0), np.abs(basis.e_zero - overlap * zero).max())
    assert worst_pm <= 2e-15
    assert worst_zero <= 1e-14


@pytest.mark.parametrize("direction", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
def test_zero_state_tie_breaks_toward_the_lowest_index(direction):
    # On the equator |c+| = |c-| = 1/sqrt2 > |c0| = 0 exactly, so component 0 is made real and positive.
    zero = helicity_eigenstates(direction).e_zero
    assert zero[0].real > 0 and zero[0].imag == 0.0
    assert np.abs(zero[0]) == np.abs(zero[2])


def test_gauge_rule_holds_exactly_on_random_directions():
    # About half of these directions lie in the 0 state's tie set |k_perp|/sqrt2 >= |k_z|.
    rng = np.random.default_rng(11)
    for _ in range(2000):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        basis = helicity_eigenstates(v)
        for vec in (basis.e_minus, basis.e_zero, basis.e_plus):
            j = int(np.argmax(np.abs(vec)))
            assert vec[j].real > 0 and vec[j].imag == 0.0


def test_no_eigensolver_on_the_run_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    path = helix_path(np.pi / 3, 1.0, 1.0, 1.0, 256)
    for pol in (1, -1):
        assert np.isfinite(evolve(path, pol).geometric).all()
    scenario = Scenario((1, -1), 0, 1, Ordering.SYMMETRIC, None, 1.0, None)
    result = compute_scenario(path, scenario)
    summary = summarize(result, path, scenario, _reduce(result["series"](), result["columns"].values()))
    assert set(summary["phases"]) == {"+1", "-1"}
