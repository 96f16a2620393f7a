"""Madogram, extremal coefficient, chi matrix, SECO, MECO, tau_theory."""

import math

import numpy as np
import pytest

from tailclust import (
    ChiMatrix,
    DegenerateMadogram,
    DimensionMismatch,
    EmptySubset,
    IndexOutOfRange,
    InvalidParam,
    SubsetMadogram,
    canonicalize,
    chi_matrix,
    chi_to_csv,
    extremal_coefficient,
    madogram,
    meco,
    seco,
    tau_theory,
)

from conftest import pobs_of, random_pobs, scratch_peak

COUNTERMONOTONE = np.array(
    [[0.25, 1.0], [0.5, 0.75], [0.75, 0.5], [1.0, 0.25]]
)


def brute_force_madogram(u, subset):
    """Direct double-loop transcription of the estimator definition."""
    k = u.shape[0]
    total = 0.0
    for i in range(k):
        mx = max(u[i, j] for j in subset)
        mean = sum(u[i, j] for j in subset) / len(subset)
        total += mx - mean
    return total / k


# ---------------------------------------------------------------------------
# madogram


def test_madogram_countermonotone_hand_value():
    nu = madogram(pobs_of(COUNTERMONOTONE), [0, 1])
    assert nu.value == pytest.approx(0.25, abs=1e-15)
    assert nu.subset == (0, 1)
    assert nu.k == 4


def test_madogram_singleton_and_comonotone_are_zero(rng):
    p = random_pobs(rng, 20, 3)
    assert madogram(p, [1]).value == 0.0
    twin = pobs_of(np.repeat(rng.random((20, 1)), 2, axis=1))
    assert madogram(twin, [0, 1]).value == 0.0


def test_madogram_matches_brute_force(rng):
    for _ in range(50):
        k = int(rng.integers(2, 7))
        d = int(rng.integers(2, 4))
        p = random_pobs(rng, k, d)
        subset = list(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        expect = brute_force_madogram(p.values, subset)
        assert madogram(p, subset).value == pytest.approx(expect, abs=1e-12)


def test_madogram_subset_errors(rng):
    p = random_pobs(rng, 5, 3)
    with pytest.raises(EmptySubset):
        madogram(p, [])
    with pytest.raises(IndexOutOfRange):
        madogram(p, [0, 3])
    with pytest.raises(IndexOutOfRange):
        madogram(p, [-1])
    with pytest.raises(InvalidParam):
        madogram(p, [1, 1])


def test_madogram_bounds_on_random_inputs(rng):
    for _ in range(100):
        k = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        p = random_pobs(rng, k, d)
        nu = madogram(p, range(d))
        assert 0.0 <= nu.value <= (k - 1) / (2 * k) + 1e-12


def test_madogram_upper_bound_attained_by_cyclic_shifts():
    # columns = all k cyclic shifts of the rank grid; every row sums to
    # (k+1)/2 and every row max is 1, so nu hits (k-1)/(2k) exactly
    k = 5
    grid = np.arange(1.0, k + 1)
    raw = np.stack([np.roll(grid, s) for s in range(k)], axis=1)
    nu = madogram(pobs_of(raw), range(k))
    assert nu.value == pytest.approx((k - 1) / (2 * k), abs=1e-12)


# ---------------------------------------------------------------------------
# extremal coefficient


def test_theta_formula_landmarks():
    assert extremal_coefficient(SubsetMadogram(0.0, (0,), 4)).value == 1.0
    assert extremal_coefficient(SubsetMadogram(1 / 6, (0, 1), 4)).value == pytest.approx(2.0)
    assert extremal_coefficient(SubsetMadogram(0.25, (0, 1), 4)).value == pytest.approx(3.0)


def test_theta_range_on_random_inputs(rng):
    for _ in range(100):
        k = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        p = random_pobs(rng, k, d)
        theta = extremal_coefficient(madogram(p, range(d)))
        assert 1.0 - 1e-12 <= theta.value <= 2 * k - 1 + 1e-9


def test_degenerate_madogram_is_rejected():
    with pytest.raises(DegenerateMadogram):
        SubsetMadogram(0.4, (0, 1), 4)  # above (k-1)/(2k) = 3/8
    with pytest.raises(DegenerateMadogram):
        SubsetMadogram(-0.01, (0, 1), 4)
    # at astronomical k the bound check lets 0.5 through; the map must still refuse
    with pytest.raises(DegenerateMadogram):
        extremal_coefficient(SubsetMadogram(0.5, (0, 1), 10**12))


def test_theta_nine_lipschitz_on_low_madograms():
    f = lambda x: (0.5 + x) / (0.5 - x)
    xs = np.linspace(0.0, 1 / 6, 200)
    for a in xs:
        for b in (xs[0], xs[73], xs[-1]):
            assert abs(f(a) - f(b)) <= 9 * abs(a - b) + 1e-12


# ---------------------------------------------------------------------------
# chi matrix


def test_chi_matrix_countermonotone_entry():
    chi = chi_matrix(pobs_of(COUNTERMONOTONE))
    assert chi.values[0, 1] == pytest.approx(-1.0, abs=1e-12)


def test_chi_matrix_comonotone_entry(rng):
    chi = chi_matrix(pobs_of(np.repeat(rng.random((12, 1)), 2, axis=1)))
    assert chi.values[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_chi_matrix_agrees_with_subset_estimator(rng):
    p = random_pobs(rng, 17, 5)
    chi = chi_matrix(p)
    for a in range(5):
        for b in range(a + 1, 5):
            direct = 2.0 - extremal_coefficient(madogram(p, [a, b])).value
            assert chi.values[a, b] == pytest.approx(direct, abs=1e-12)


def test_chi_matrix_bivariate_absolute_difference_identity(rng):
    # max - mean over a pair is |x - y| / 2, so nu = sum |x - y| / (2k)
    p = random_pobs(rng, 31, 4)
    for a, b in [(0, 1), (1, 3), (0, 2)]:
        direct = np.abs(p.values[:, a] - p.values[:, b]).sum() / (2 * p.k)
        assert madogram(p, [a, b]).value == pytest.approx(direct, abs=1e-12)


def test_chi_matrix_rank_invariance(rng):
    raw = rng.normal(size=(60, 3))
    warped = np.stack([np.exp(raw[:, 0]), raw[:, 1] ** 3, np.arctan(raw[:, 2])], axis=1)
    a = chi_matrix(pobs_of(raw))
    b = chi_matrix(pobs_of(warped))
    assert np.array_equal(a.values, b.values)


def test_chi_matrix_permutation_equivariance(rng):
    raw = rng.random((40, 4))
    perm = np.array([3, 1, 0, 2])
    a = chi_matrix(pobs_of(raw[:, perm]))
    b = chi_matrix(pobs_of(raw))
    assert np.allclose(a.values, b.values[np.ix_(perm, perm)], atol=1e-12)


@pytest.mark.parametrize("k, d", [(2, 2), (17, 5), (300, 40)])
def test_chi_matrix_in_place_is_bit_identical_to_the_one_expression_form(k, d, rng):
    pobs = random_pobs(rng, k, d)
    nu = pobs.abs_diff_sums / (2.0 * k)
    want = 2.0 - (0.5 + nu) / (0.5 - nu)
    np.fill_diagonal(want, 1.0)
    assert chi_matrix(pobs).values.tobytes() == want.tobytes()


def test_chi_matrix_scratch_is_nu_and_one_denominator(rng):
    k, d = 1000, 400
    pobs = random_pobs(rng, k, d)
    pobs.abs_diff_sums  # the input: the memoized pairwise sums
    chi, peak = scratch_peak(chi_matrix, pobs)
    assert chi.d == d
    # nu (the output) and the denominator, plus the d x d masks of
    # ChiMatrix's checks; the out-of-place expression held three d x d arrays
    assert peak <= 8 * 2 * d * d + 2 * d * d


# ---------------------------------------------------------------------------
# seco / meco


def test_seco_single_group_is_exactly_zero(rng):
    p = random_pobs(rng, 25, 4)
    assert seco(p, canonicalize([range(4)], 4)) == 0.0


def test_seco_comonotone_singletons_hand_value(rng):
    p = pobs_of(np.repeat(rng.random((20, 1)), 2, axis=1))
    value = seco(p, canonicalize([[0], [1]], 2))
    assert value == pytest.approx(1.0, abs=1e-12)


def test_seco_rejects_a_single_block(rng):
    # at k = 1 every madogram is 0, so the SECO would be n_groups - 1
    p = random_pobs(rng, 1, 3)
    with pytest.raises(InvalidParam, match="2 blocks"):
        seco(p, canonicalize([[0], [1], [2]], 3))


def test_seco_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        seco(random_pobs(rng, 10, 3), canonicalize([[0, 1]], 2))


def test_meco_hand_matrix():
    from tailclust import ChiMatrix

    vals = np.full((4, 4), 0.05)
    np.fill_diagonal(vals, 1.0)
    vals[0, 1] = vals[1, 0] = 0.8
    vals[2, 3] = vals[3, 2] = 0.6
    chi = ChiMatrix(vals, k=100)
    assert meco(chi, canonicalize([[0, 1], [2, 3]], 4)) == pytest.approx(0.6)
    assert meco(chi, canonicalize([[0, 1, 2, 3]], 4)) == pytest.approx(0.05)


def test_meco_all_singletons_sentinel(rng):
    chi = chi_matrix(random_pobs(rng, 15, 3))
    assert meco(chi, canonicalize([[0], [1], [2]], 3)) == math.inf


def test_meco_comonotone_group(rng):
    chi = chi_matrix(pobs_of(np.repeat(rng.random((15, 1)), 3, axis=1)))
    assert meco(chi, canonicalize([range(3)], 3)) == pytest.approx(1.0, abs=1e-12)


def test_meco_dimension_mismatch(rng):
    chi = chi_matrix(random_pobs(rng, 10, 3))
    with pytest.raises(DimensionMismatch):
        meco(chi, canonicalize([[0, 1]], 2))


# ---------------------------------------------------------------------------
# tau_theory and CSV export


def test_tau_theory_frozen_values():
    # 2 * (1/20 + sqrt(ln 200 / 500)) and 2 * (1/20 + sqrt(ln 16 / 500))
    assert tau_theory(20, 200, 500) == pytest.approx(0.30587991386335944, abs=1e-15)
    assert tau_theory(20, 16, 500) == pytest.approx(0.24893189644236138, abs=1e-15)


def test_tau_theory_is_the_stated_formula():
    m, d, k = 7, 11, 93
    assert tau_theory(m, d, k) == pytest.approx(2 * (1 / m + math.sqrt(math.log(d) / k)))


def test_tau_theory_validation():
    with pytest.raises(InvalidParam):
        tau_theory(0, 10, 5)
    with pytest.raises(InvalidParam):
        tau_theory(5, 10, 0)
    with pytest.raises(InvalidParam):
        tau_theory(5, 1, 5)


def chi_to_csv_per_cell(chi, names, clip=False):
    vals = np.clip(chi.values, 0.0, 1.0) if clip else chi.values
    rows = [",".join(format(float(v), ".17g") for v in row) for row in vals]
    return "\n".join([",".join(names), *rows]) + "\n"


def test_chi_to_csv_round_trip(rng):
    p = random_pobs(rng, 12, 3)
    chi = chi_matrix(p)
    text = chi_to_csv(chi, ("x", "y", "z"))
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,z"
    parsed = np.array([[float(c) for c in row.split(",")] for row in lines[1:]])
    assert np.array_equal(parsed, chi.values)  # 17 digits reproduce doubles exactly


def test_chi_to_csv_matches_per_cell_format(rng):
    # negative, tiny and round values, with and without clipping
    for k, d in ((3, 4), (12, 9), (200, 30)):
        chi = chi_matrix(random_pobs(rng, k, d))
        names = tuple(f"c{j}" for j in range(d))
        for clip in (False, True):
            assert chi_to_csv(chi, names, clip) == chi_to_csv_per_cell(chi, names, clip)
    odd = ChiMatrix(np.array([[1.0, 1e-300, -0.5], [1e-300, 1.0, 0.1], [-0.5, 0.1, 1.0]]), k=10)
    for clip in (False, True):
        assert chi_to_csv(odd, "abc", clip) == chi_to_csv_per_cell(odd, "abc", clip)


def test_chi_to_csv_clip():
    chi = chi_matrix(pobs_of(COUNTERMONOTONE))
    text = chi_to_csv(chi, ("a", "b"), clip=True)
    parsed = np.array([[float(c) for c in row.split(",")] for row in text.strip().split("\n")[1:]])
    assert parsed.min() >= 0.0 and parsed.max() <= 1.0


def test_chi_to_csv_name_count_mismatch(rng):
    chi = chi_matrix(random_pobs(rng, 10, 3))
    with pytest.raises(DimensionMismatch):
        chi_to_csv(chi, ("a", "b"))
