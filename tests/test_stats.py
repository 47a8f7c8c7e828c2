import math
import random
import statistics
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from decisive import stats
from decisive.errors import DecisiveError
from decisive.stats import (
    completion_confidence,
    completion_rate,
    iqr_filter,
    mann_whitney,
    mean,
    mean_std,
    quartiles,
    tally_summary,
    welch_t,
)


class TestCompletionConfidence:
    def test_ten_clean_trials_at_085(self):
        # 1 - 0.85^10
        assert completion_confidence(10, 0, 0.85) == pytest.approx(0.80313, abs=1e-4)

    def test_five_clean_trials_at_070(self):
        # 1 - 0.70^5
        assert completion_confidence(5, 0, 0.70) == pytest.approx(0.83193, abs=1e-4)

    def test_near_certain_threshold(self):
        assert completion_confidence(1, 0, 0.999) == pytest.approx(0.001)

    def test_decreasing_in_p0(self):
        values = [completion_confidence(8, 1, p0) for p0 in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_successes(self):
        values = [completion_confidence(s, 1, 0.8) for s in range(2, 12)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 57, 100, 400, 1000, 1050])
    @pytest.mark.parametrize("p0", [Fraction(1, 2), Fraction(7, 10), Fraction(17, 20),
                                    Fraction(99, 100)])
    def test_matches_the_exact_binomial_sum(self, n, p0):
        # 1 - sum_{k<=f} C(n,k) (1-p0)^k p0^(n-k), summed in integers over the denominator d^n
        a, d = p0.numerator, p0.denominator
        for f in sorted({0, 1, n // 10, round(n * (1 - p0)), n // 2, n - 1} - {n}):
            tail = sum(math.comb(n, k) * (d - a) ** k * a ** (n - k) for k in range(f + 1))
            exact = 1 - Fraction(tail, d ** n)
            assert completion_confidence(n - f, f, float(p0)) == pytest.approx(
                float(exact), abs=1e-12), (n, f)

    @pytest.mark.parametrize("successes, failures", [(600, 600), (900, 150), (5000, 3000),
                                                     (99_000, 1_000)])
    def test_large_trial_counts_do_not_overflow(self, successes, failures):
        value = completion_confidence(successes, failures, 0.85)
        assert 0.0 <= value <= 1.0

    def test_no_successes_give_no_confidence(self):
        assert completion_confidence(0, 4, 0.7) == 0.0

    @pytest.mark.parametrize("successes, failures, p0", [
        (140_000, 60_000, 0.70), (170_000, 30_000, 0.85), (500_000, 500_000, 0.5)])
    def test_large_counts_match_the_normal_tail(self, successes, failures, p0):
        # 2x10^5 trials need 254 continued-fraction terms and 10^6 need 417. With f at
        # the mean of X ~ Bin(n, 1 - p0), the normal tail with a continuity correction
        # and the skewness term of its Edgeworth series is off by O(1/n) only
        n, q = successes + failures, 1.0 - p0
        sd = math.sqrt(n * q * p0)
        z = (failures + 0.5 - n * q) / sd
        density = math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        tail = 0.5 * math.erfc(-z / math.sqrt(2)) - (p0 - q) / sd / 6 * (z * z - 1) * density
        assert completion_confidence(successes, failures, p0) == pytest.approx(1 - tail,
                                                                                abs=1e-8)

    def test_continued_fraction_that_does_not_converge_raises(self):
        # a NaN never meets the tolerance; a + b = 10 allows 203 terms
        with pytest.raises(DecisiveError, match="did not converge in 203 terms"):
            stats._betacf(4.0, 6.0, math.nan)

    def test_rate(self):
        rate = completion_rate(4, 1)
        assert isinstance(rate, float)
        assert rate == pytest.approx(0.8)


def reference_quartiles(values):
    """(Q1, median, Q3) of a list, interpolated at positions (n+1)/4, (n+1)/2, 3(n+1)/4 of
    the sorted values: the list form the tally quartiles replaced, kept as their reference."""
    data = sorted(float(v) for v in values)
    n = len(data)

    def at(pos):
        pos = min(max(pos, 1.0), float(n))
        lo = int(math.floor(pos))
        frac = pos - lo
        if frac == 0.0 or lo >= n:
            return data[lo - 1]
        return data[lo - 1] + frac * (data[lo] - data[lo - 1])

    return at((n + 1) / 4.0), at((n + 1) / 2.0), at(3.0 * (n + 1) / 4.0)


def reference_iqr_filter(values):
    """(kept, removed, warning) of a list by the 1.5 IQR fence, in list order."""
    vals = [float(v) for v in values]
    q1, _, q3 = reference_quartiles(vals)
    r = q3 - q1
    lo, hi = q1 - 1.5 * r, q3 + 1.5 * r
    kept = [v for v in vals if lo <= v <= hi]
    removed = [v for v in vals if v < lo or v > hi]
    warning = None
    if len(removed) > 0.10 * len(vals):
        warning = (f"IQR rule removed {len(removed)}/{len(vals)} values (>10%); "
                   "consider collecting more data")
    return kept, removed, warning


def reference_welch_t(a, b):
    """Welch's (t, p) of two lists of two or more values each, from the standard library's
    means and variances (both exact, rounded once); (None, None) when both are constant."""
    v1, v2 = statistics.variance(a) / len(a), statistics.variance(b) / len(b)
    se2 = v1 + v2
    if se2 == 0.0:
        return None, None
    t = (statistics.mean(a) - statistics.mean(b)) / math.sqrt(se2)
    df = se2**2 / (v1**2 / (len(a) - 1) + v2**2 / (len(b) - 1))
    return t, min(1.0, 2.0 * stats._student_t_sf(abs(t), df))


def fence(values):
    """(kept, removed, warning) of `iqr_filter` on the tally of `values`, each side a tally."""
    tally = Counter(values)
    kept, warning = iqr_filter(tally)
    return Counter(kept), tally - Counter(kept), warning


class TestQuartiles:
    def test_one_to_seven(self):
        q1, med, q3 = quartiles(Counter([1, 2, 3, 4, 5, 6, 7]))
        assert (q1, med, q3) == (2.0, 4.0, 6.0)

    def test_fences_on_one_to_seven(self):
        kept, removed, warning = fence([1, 2, 3, 4, 5, 6, 7])
        assert removed == Counter()
        assert warning is None

    def test_all_equal(self):
        kept, removed, warning = fence([3, 3, 3, 3, 3])
        assert kept == Counter([3, 3, 3, 3, 3])
        assert removed == Counter()

    def test_single_far_outlier(self):
        values = list(range(1, 21)) + [100]
        kept, removed, warning = fence(values)
        assert removed == Counter([100])
        assert warning is None  # 1/21 is under the 10% guidance

    def test_warning_above_ten_percent(self):
        values = [1, 2, 3, 4, 5, 100]
        kept, removed, warning = fence(values)
        assert removed == Counter([100])
        assert warning == "IQR rule removed 1/6 values (>10%); consider collecting more data"

    def test_filter_is_fixed_point_when_nothing_removed(self):
        values = [2, 4, 4, 5, 5, 6, 8]
        kept, removed, _ = fence(values)
        if not removed:
            kept2, removed2, _ = fence(list(kept.elements()))
            assert kept2 == kept and removed2 == Counter()

    @given(st.lists(st.integers(1, 7) | st.floats(-50, 50), min_size=1, max_size=40))
    def test_tally_matches_the_list_reference(self, values):
        assert quartiles(Counter(values)) == reference_quartiles(values)
        if len(values) >= 4:
            kept, removed, warning = reference_iqr_filter(values)
            assert fence(values) == (Counter(kept), Counter(removed), warning)


def oracle_mann_whitney(a, b):
    """Independent enumeration oracle, from the definition.

    U_a counts, over all pairs, how often a's value is above b's (ties worth
    1/2). The two-sided p is twice the smaller of the two tails
    P(U_a <= observed) and P(U_a >= observed) over all labelings of the pooled
    raw values, capped at 1. No rank machinery shared with the implementation.
    """
    n1, n2 = len(a), len(b)
    pooled = list(a) + list(b)

    def u_of(group_a):
        chosen = set(group_a)
        group_b = [pooled[i] for i in range(len(pooled)) if i not in chosen]
        u = 0.0
        for x in (pooled[i] for i in chosen):
            for y in group_b:
                if x > y:
                    u += 1.0
                elif x == y:
                    u += 0.5
        return u

    observed = u_of(range(n1))
    lower = upper = total = 0
    for labeling in combinations(range(n1 + n2), n1):
        u = u_of(labeling)  # a sum of halves, so exact
        total += 1
        lower += u <= observed
        upper += u >= observed
    return min(observed, n1 * n2 - observed), min(1.0, 2.0 * min(lower, upper) / total)


class TestMannWhitney:
    def test_identical_samples(self):
        result = mann_whitney([1, 2, 3, 4], [1, 2, 3, 4])
        assert result.u == pytest.approx(8.0)  # n1*n2/2
        assert result.p_two_sided == pytest.approx(1.0)

    def test_fully_separated(self):
        result = mann_whitney([1, 2, 3], [4, 5, 6])
        assert result.u == 0.0
        assert result.p_two_sided == pytest.approx(0.1)  # 2/20 labelings

    @pytest.mark.parametrize("a, b", [([7, 7, 7], [1, 1]), ([1, 1], [7, 7, 7])])
    def test_tied_unequal_groups_take_the_smaller_tail(self, a, b):
        # only the observed labeling is this extreme in either direction: p = 2 / C(5, 2)
        assert oracle_mann_whitney(a, b) == (0.0, 0.2)
        result = mann_whitney(a, b)
        assert (result.u, result.p_two_sided) == (0.0, 0.2)

    def test_exact_matches_enumeration_oracle(self):
        rng = random.Random(2024)
        for _ in range(200):
            n1 = rng.randint(1, 6)
            n2 = rng.randint(1, 6)
            a = [rng.randint(0, 6) for _ in range(n1)]
            b = [rng.randint(0, 6) for _ in range(n2)]
            expected_u, expected_p = oracle_mann_whitney(a, b)
            result = mann_whitney(a, b)
            assert result.method == "exact"
            assert result.u == pytest.approx(expected_u)
            assert result.p_two_sided == pytest.approx(expected_p)

    @given(
        a=st.lists(st.integers(0, 9), min_size=1, max_size=12),
        b=st.lists(st.integers(0, 9), min_size=1, max_size=12),
    )
    def test_u_sum_identity(self, a, b):
        pooled = a + b
        # recompute both one-sided statistics directly
        u_a = sum(
            1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b
        )
        u_b = sum(
            1.0 if y > x else 0.5 if x == y else 0.0 for x in a for y in b
        )
        assert u_a + u_b == pytest.approx(len(a) * len(b))
        assert mann_whitney(a, b).u == pytest.approx(min(u_a, u_b))

    def test_normal_approximation_path(self):
        rng = random.Random(5)
        a = [rng.gauss(0, 1) for _ in range(25)]
        b = [rng.gauss(1.2, 1) for _ in range(25)]
        result = mann_whitney(a, b)
        assert result.method == "normal"
        assert 0.0 <= result.p_two_sided <= 1.0
        assert result.p_two_sided < 0.05


def likert(rng, n, shift=0):
    return [min(7, rng.randint(1, 7) + shift) for _ in range(n)]


class TestExactCount:
    """The exact path counts tie blocks instead of enumerating labelings.

    Its p must equal the enumeration oracle bit for bit, including when group
    a is the larger one and the count runs over the complement.
    """

    @pytest.mark.parametrize("n1, n2, kind", [
        (8, 12, "likert"),
        (12, 8, "likert"),
        (8, 10, "tie-free"),
        (10, 8, "tie-free"),
        (8, 9, "all tied"),
        (9, 8, "all tied"),
    ])
    def test_matches_oracle_up_to_8x12(self, n1, n2, kind):
        rng = random.Random(n1 * 100 + n2)
        if kind == "likert":
            a, b = likert(rng, n1), likert(rng, n2, shift=1)
        elif kind == "tie-free":
            pooled = rng.sample(range(1000), n1 + n2)
            a, b = pooled[:n1], pooled[n1:]
        else:
            a, b = [4] * n1, [4] * n2
        expected_u, expected_p = oracle_mann_whitney(a, b)
        result = mann_whitney(a, b)
        assert result.method == "exact"
        assert result.u == expected_u
        assert result.p_two_sided == expected_p

    def test_matches_oracle_on_random_ties(self):
        rng = random.Random(86)
        for _ in range(120):
            n1, n2 = rng.randint(1, 8), rng.randint(1, 8)
            spread = rng.choice([1, 2, 3, 7, 1000])
            a = [rng.randint(1, spread) for _ in range(n1)]
            b = [rng.randint(1, spread) for _ in range(n2)]
            expected_u, expected_p = oracle_mann_whitney(a, b)
            result = mann_whitney(a, b)
            assert result.method == "exact"
            assert (result.u, result.p_two_sided) == (expected_u, expected_p)

    @pytest.mark.parametrize("n1, n2", [(8, 400), (400, 8)])
    def test_likert_8_vs_400_stays_exact_and_fast(self, n1, n2, monkeypatch):
        rng = random.Random(n1 + 2 * n2)
        a, b = likert(rng, n1), likert(rng, n2, shift=1)
        start = time.perf_counter()
        result = mann_whitney(a, b)
        assert time.perf_counter() - start < 1.0
        assert result.method == "exact"
        # the tie-corrected normal approximation is close at this size
        monkeypatch.setattr(stats, "EXACT_LIMIT", 0)
        normal = mann_whitney(a, b)
        assert normal.method == "normal"
        assert abs(result.p_two_sided - normal.p_two_sided) < 0.05

    @pytest.mark.parametrize("a, b", [([1] * 8, [7] * 400), ([1] * 400, [7] * 8)])
    def test_separated_groups_count_one_labeling(self, a, b):
        # only the observed labeling has U_a = 0
        result = mann_whitney(a, b)
        assert result.method == "exact"
        assert result.u == 0.0
        assert result.p_two_sided == 2.0 / math.comb(408, 8)


def index_sort_mann_whitney(a, b):
    """(u, p) of the normal path as midranks from an index sort give them, the rank test's
    earlier form, kept here as its reference."""
    pooled = [float(v) for v in a] + [float(v) for v in b]
    order = sorted(range(len(pooled)), key=lambda i: pooled[i])
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n1, n2 = len(a), len(b)
    n = n1 + n2
    u_a = sum(ranks[:n1]) - n1 * (n1 + 1) / 2.0
    u = min(u_a, n1 * n2 - u_a)
    seen = {}
    for v in pooled:
        seen[v] = seen.get(v, 0) + 1
    tie_term = 0.0
    for count in seen.values():
        tie_term += count**3 - count
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return u, 1.0
    z = (u - n1 * n2 / 2.0 + 0.5) / math.sqrt(var)
    return u, min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))


class TestRankCounts:
    """The normal path takes its ranks from value counts, one pass over the distinct values."""

    SIZES = [(9, 9), (9, 2000), (2000, 9), (40, 400), (150, 120), (2000, 12)]

    @staticmethod
    def samples(kind, n1, n2):
        rng = random.Random(n1 * 7 + n2 + len(kind))
        if kind == "likert":
            return likert(rng, n1), likert(rng, n2, shift=1)
        pooled = [rng.uniform(-50.0, 50.0) for _ in range(n1 + n2)]
        assert len(set(pooled)) == n1 + n2
        return pooled[:n1], pooled[n1:]

    @pytest.mark.parametrize("kind", ["likert", "tie-free"])
    @pytest.mark.parametrize("n1, n2", SIZES)
    def test_normal_path_matches_pairs_counts_and_index_sort(self, kind, n1, n2):
        a, b = self.samples(kind, n1, n2)
        result = mann_whitney(a, b)
        assert result.method == "normal"
        u_a = sum(1.0 if x > y else 0.5 if x == y else 0.0 for x in a for y in b)
        assert result.u == min(u_a, n1 * n2 - u_a)
        _, doubled_a, tie_term = stats._rank_blocks(Counter(a), Counter(b))
        assert doubled_a == 2 * u_a + n1 * (n1 + 1)
        pooled = a + b
        assert tie_term == sum(pooled.count(v) ** 3 - pooled.count(v) for v in set(pooled))
        u, p = index_sort_mann_whitney(a, b)
        assert (result.u.hex(), result.p_two_sided.hex()) == (u.hex(), p.hex())

    def test_blocks_hold_doubled_midranks_in_value_order(self):
        blocks, doubled_a, tie_term = stats._rank_blocks(Counter([3, 1, 3]), Counter([2.0, 3, 5]))
        # ranks: 1 -> 1, 2 -> 2, the three 3s -> 4, 5 -> 6
        assert blocks == [(2, 1), (4, 1), (8, 3), (12, 1)]
        assert (doubled_a, tie_term) == (2 + 8 + 8, 24)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: finite floats with the ends of the float range drawn often
NEAR_RANGE_END = st.one_of(
    FINITE,
    st.floats(min_value=1e307, max_value=sys.float_info.max),
    st.floats(min_value=-sys.float_info.max, max_value=-1e307),
    st.sampled_from([1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max]))


class TestMean:
    @given(st.lists(FINITE, min_size=1, max_size=50))
    def test_plain_quotient_wherever_the_sum_is_finite(self, values):
        total = sum(values)
        if math.isfinite(total):
            assert mean(values) == total / len(values)

    @given(st.lists(NEAR_RANGE_END, min_size=1, max_size=50))
    def test_finite_values_give_a_finite_mean_between_their_ends(self, values):
        m = mean(values)
        lo, hi = min(values), max(values)
        assert math.isfinite(m)
        assert lo - 4 * math.ulp(lo) <= m <= hi + 4 * math.ulp(hi)

    def test_values_whose_sum_overflows(self):
        assert sum([1.6e308] * 3) == math.inf
        assert mean([1.6e308] * 3) == 1.6e308
        assert mean([-1.7e308, -1.6e308]) == pytest.approx(-1.65e308, rel=1e-15)
        for n in range(2, 60):  # the scaled mean may round up to 1.0, which would overflow
            assert mean([sys.float_info.max] * n) == sys.float_info.max

    def test_a_non_finite_value_stays_in_the_mean(self):
        assert mean([1.0, math.inf]) == math.inf
        assert math.isnan(mean([1e308, 1e308, math.nan]))


class TestMeanStd:
    def test_single_value(self):
        assert mean_std([3.5]) == (3.5, 0.0)

    def test_hand_computed(self):
        mean, std = mean_std([0.1, 0.2, 0.3])
        assert mean == pytest.approx(0.2)
        assert std == pytest.approx(0.1)


class TestWelchT:
    # expected values frozen from an independent t-distribution evaluation
    def test_survival_function_values(self):
        from decisive.stats import _student_t_sf

        assert _student_t_sf(2.0, 10) == pytest.approx(0.0366940174, abs=1e-9)
        assert _student_t_sf(0.5, 3) == pytest.approx(0.3257239824, abs=1e-9)
        assert _student_t_sf(1.0, 1) == pytest.approx(0.25, abs=1e-9)
        assert _student_t_sf(4.2, 27.5) == pytest.approx(1.262675e-4, abs=1e-9)

    def test_against_frozen_oracle(self):
        a = [2, 3, 3, 4, 4, 5, 5, 5]
        b = [4, 5, 5, 6, 6, 6, 7, 7]
        t, p = welch_t(tally_summary(Counter(a)), tally_summary(Counter(b)))
        # t = -3.467405, p = 0.0038072 (Welch-Satterthwaite df = 13.90)
        assert t == pytest.approx(-3.467405, abs=1e-5)
        assert p == pytest.approx(0.0038072, abs=1e-6)

    @pytest.mark.parametrize("a, b", [([4, 4, 4], [4, 4, 4]), ([5] * 6, [3] * 6), ([4], [1, 7])])
    def test_no_t_without_a_standard_error(self, a, b):
        # both sides constant, or a side with one value
        assert welch_t(tally_summary(Counter(a)), tally_summary(Counter(b))) == (None, None)

    @given(st.dictionaries(st.integers(1, 7), st.integers(1, 10**6), min_size=1, max_size=7))
    def test_summary_is_exact_and_rounded_once(self, tally):
        n, mean, var = tally_summary(tally)
        exact_n = sum(tally.values())
        exact_mean = Fraction(sum(count * v for v, count in tally.items()), exact_n)
        assert (n, mean) == (exact_n, float(exact_mean))
        if n == 1:
            assert var is None
        else:
            exact_var = Fraction(sum(count * (v - exact_mean) ** 2 for v, count in tally.items()),
                                 n - 1)
            assert var == float(exact_var)  # float(Fraction) rounds correctly
