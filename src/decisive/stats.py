"""Shared statistics: demonstration-test confidence, IQR filtering, Mann-Whitney U."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import DecisiveError

#: the rank test is exact while the smaller group has at most this many values
EXACT_LIMIT = 8


def completion_rate(successes: int, failures: int) -> float:
    """Share of one or more trials that succeeded."""
    return successes / (successes + failures)


def completion_confidence(successes: int, failures: int, p0: float) -> float:
    """Confidence that the true success probability is at least p0.

    Binomial demonstration-test form: with n = successes + failures trials and
    f observed failures, confidence = 1 - P(X <= f) for X ~ Bin(n, 1 - p0), and
    P(X <= f) = I_p0(n - f, f + 1), the regularized incomplete beta (Abramowitz
    & Stegun 26.5.24), so confidence = 1 - I_p0(n - f, f + 1) at any n.
    Ten clean trials against p0 = 0.85 give 0.803; five against 0.70 give 0.832.
    It takes one or more trials and p0 inside (0, 1).
    """
    if successes == 0:  # P(X <= n) = 1
        return 0.0
    return 1.0 - _reg_inc_beta(successes, failures + 1, p0)


def quartiles(tally: Mapping[float, int]) -> tuple[float, float, float]:
    """(Q1, median, Q3) of a tally {value: count} by linear interpolation at positions
    (n+1)/4, (n+1)/2, 3(n+1)/4 of its n values in increasing order.

    The interpolation rule is fixed here so downstream outlier filtering is
    reproducible bit for bit. The tally holds at least one value; the cost is
    O(D log D) for its D distinct values.
    """
    levels = sorted(tally.items())
    n = sum(tally.values())

    def value(k: int) -> float:
        # the k-th smallest value, 1-based
        for v, count in levels:
            k -= count
            if k <= 0:
                return float(v)

    def at(pos: float) -> float:
        # 1-based fractional position, clamped to the data range
        pos = min(max(pos, 1.0), float(n))
        lo = int(math.floor(pos))
        frac = pos - lo
        low = value(lo)  # frac is 0 at pos n
        return low if frac == 0.0 else low + frac * (value(lo + 1) - low)

    return at((n + 1) / 4.0), at((n + 1) / 2.0), at(3.0 * (n + 1) / 4.0)


def iqr_filter(tally: Mapping[float, int]) -> tuple[dict[float, int], Optional[str]]:
    """The tally's values inside the 1.5 IQR fence, as a tally, and a warning when more
    than 10% of its values fell outside.

    Removed values fall strictly outside [Q1 - 1.5R, Q3 + 1.5R] with R = Q3 - Q1.
    The warning marks the recommended limit before growing the participant pool.
    It takes at least 4 values, as `human_factors.trust_pipeline` checks.
    """
    q1, _, q3 = quartiles(tally)
    r = q3 - q1
    lo, hi = q1 - 1.5 * r, q3 + 1.5 * r
    kept = {v: count for v, count in tally.items() if lo <= v <= hi}
    n = sum(tally.values())
    removed = n - sum(kept.values())
    if removed > 0.10 * n:
        return kept, f"IQR rule removed {removed}/{n} values (>10%); consider collecting more data"
    return kept, None


class MannWhitneyResult(NamedTuple):
    u: float
    p_two_sided: float
    method: str  # exact | normal


def _rank_blocks(in_a: Counter, in_b: Counter) -> tuple[list[tuple[int, int]], int, int]:
    """The pooled samples' tie blocks, as (doubled midrank, count) in increasing order of
    value, the doubled rank sum of `a`, and the tie term, the sum of m**3 - m over the
    blocks' counts m, from the two samples' value counts.

    One pass over the distinct values, in increasing order: a block of m equal
    values after `below` smaller ones holds ranks below + 1 to below + m, so its
    doubled midrank 2 * below + m + 1 is an integer, and all three sums are
    exact. Cost is O(D log D) for D distinct values.
    """
    blocks, doubled_a, tie_term, below = [], 0, 0, 0
    for value in sorted(in_a.keys() | in_b.keys()):
        m = in_a[value] + in_b[value]
        doubled = 2 * below + m + 1
        blocks.append((doubled, m))
        doubled_a += in_a[value] * doubled
        tie_term += m**3 - m
        below += m
    return blocks, doubled_a, tie_term


def _count_tails(blocks: Sequence[tuple[int, int]], k: int, observed: int) -> tuple[int, int]:
    """How many k-element subsets (by position) of the values in `blocks` sum to at most,
    and to at least, `observed`.

    `blocks` holds each distinct value r with its count m, in increasing order.
    A shift-algorithm count (Streitberg & Roehmel 1986) over the blocks:
    counts[size][s] holds the exact number of size-element subsets of the blocks
    seen so far that sum to s. Taking j of a block's m equal values r multiplies
    a count by C(m, j) and adds j * r to its sum. Values are non-negative, so a
    sum above `observed` can never come back under it and is dropped at once.
    The upper tail is the total minus the lower one plus the count at
    `observed`, which the same pass holds. Cost is O(D * k**2 * observed) for D
    distinct values.
    """
    counts: list[dict[int, int]] = [{} for _ in range(k + 1)]
    counts[0][0] = 1
    for r, m in blocks:
        # larger sizes first, so each update reads counts from before this block
        for size in range(k, 0, -1):
            row = counts[size]
            for j in range(1, min(m, size) + 1):
                shift = j * r
                if shift > observed:
                    break
                ways = math.comb(m, j)
                for s, c in counts[size - j].items():
                    s += shift
                    if s <= observed:
                        row[s] = row.get(s, 0) + ways * c
    at_most = sum(counts[k].values())
    total = sum(m for _, m in blocks)
    return at_most, math.comb(total, k) - at_most + counts[k].get(observed, 0)


def mann_whitney(a: Iterable[float] | Mapping[float, int],
                 b: Iterable[float] | Mapping[float, int]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test with midrank ties, on two samples each given as its
    values or as a tally {value: count}; `collections.Counter` reads either form.

    U = min(U_a, U_b). For min(n1, n2) <= EXACT_LIMIT the p-value is exact:
    over all C(n1+n2, n1) equally likely group labelings of the pooled
    midranks, both tails P(U_a <= observed) and P(U_a >= observed) are counted
    exactly, and p is twice the smaller one, capped at 1. With ties and
    n1 != n2 the null distribution is not symmetric, so one tail doubled is
    not enough. The count runs over the tie blocks of the smaller group's
    possible rank sums (see `_count_tails`); with few distinct values, as on a
    Likert scale, its cost grows linearly with the larger group.
    Larger samples use the tie-corrected normal approximation with a 0.5
    continuity correction. Neither sample is empty.
    """
    in_a, in_b = Counter(a), Counter(b)
    n1, n2 = in_a.total(), in_b.total()
    blocks, doubled_a, tie_term = _rank_blocks(in_a, in_b)
    n = n1 + n2
    u_a = doubled_a / 2.0 - n1 * (n1 + 1) / 2.0
    u_b = n1 * n2 - u_a
    u = min(u_a, u_b)

    if min(n1, n2) <= EXACT_LIMIT:
        # U_a orders labelings as rank-sum(a) does and opposite to rank-sum(b), so the
        # two tails of either group's rank sum are those of U_a, swapped or not
        small = (n1, doubled_a) if n1 <= n2 else (n2, n * (n + 1) - doubled_a)
        lower, upper = _count_tails(blocks, *small)
        p = min(1.0, 2.0 * min(lower, upper) / math.comb(n, n1))
        return MannWhitneyResult(u, p, "exact")

    # normal approximation with tie correction
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var <= 0:
        return MannWhitneyResult(u, 1.0, "normal")
    z = (u - n1 * n2 / 2.0 + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return MannWhitneyResult(u, p, "normal")


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean of one or more floats: `sum / len` wherever that sum is finite.

    When finite values sum past the float range, they are summed again times 2**-e, with
    e the binary exponent of the largest magnitude. A power of two scales exactly, so no
    mean of finite values overflows; the clamp keeps the last rounding inside the values.
    """
    total = sum(values)
    if math.isfinite(total) or not all(map(math.isfinite, values)):
        return total / len(values)
    scale = 2.0 ** -math.frexp(max(map(abs, values)))[1]
    scaled = sum(v * scale for v in values) / len(values) / scale
    return min(max(scaled, min(values)), max(values))


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Arithmetic mean and sample standard deviation of one or more values; std is 0 for
    a single value. The deviations' root sum of squares is a `hypot`, which scales before
    it squares, so no finite std overflows."""
    vals = [float(v) for v in values]
    m = mean(vals)
    if len(vals) == 1:
        return m, 0.0
    return m, math.hypot(*(v - m for v in vals)) / math.sqrt(len(vals) - 1)


def tally_summary(tally: Mapping[int, int]) -> tuple[int, float, Optional[float]]:
    """(n, mean, sample variance) of a tally {integer score: count}, the variance None below
    two values. The sums n, S = sum of v and Q = sum of v**2 are exact integers, so the
    mean S / n and the variance (nQ - S**2) / (n(n - 1)) are each rounded once."""
    n = sum(tally.values())
    total = sum(count * v for v, count in tally.items())
    squares = sum(count * v * v for v, count in tally.items())
    var = (n * squares - total * total) / (n * (n - 1)) if n > 1 else None
    return n, total / n, var


def welch_t(a: tuple[int, float, Optional[float]],
            b: tuple[int, float, Optional[float]]) -> tuple[Optional[float], Optional[float]]:
    """Welch's unequal-variance t statistic and two-sided p from two `tally_summary`s.

    A convenience column for survey reports; the rank test remains the
    primary comparison for Likert data. Both are None when a side has fewer
    than two values or the standard error is zero (both sides constant).
    """
    (n1, m1, var1), (n2, m2, var2) = a, b
    if var1 is None or var2 is None or var1 + var2 == 0.0:
        return None, None
    v1, v2 = var1 / n1, var2 / n2
    se2 = v1 + v2
    t = (m1 - m2) / math.sqrt(se2)
    df = se2**2 / (v1**2 / (n1 - 1) + v2**2 / (n2 - 1))
    return t, min(1.0, 2.0 * _student_t_sf(abs(t), df))


def _student_t_sf(t: float, df: float) -> float:
    # sf(t) = 0.5 * I_x(df/2, 1/2) with x = df / (df + t^2)
    x = df / (df + t * t)
    return 0.5 * _reg_inc_beta(df / 2.0, 0.5, x)


def _reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(ln_bt)
    # the continued fraction converges fastest below this pivot
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def _betacf(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the incomplete-beta continued fraction; near the pivot
    # it takes about 40 terms at a + b = 10^3, 190 at 10^5 and 1,830 at 10^8, which
    # the bound of 200 + sqrt(a + b) terms covers with room to spare
    eps, fpmin = 3e-15, 1e-300
    terms = 200 + math.isqrt(int(a + b))
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, terms + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise DecisiveError(f"incomplete beta I_x(a, b) at a={a:g}, b={b:g}, x={x:g} "
                        f"did not converge in {terms} terms")
