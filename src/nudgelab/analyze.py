"""Nudge-effect analysis across cognitive-style groups.

Fitted shift vectors are summarized as a signed magnitude (sign of the
shared scale times the Euclidean norm; the attention weight passes
through unchanged), subjects are grouped by their 3-item cognitive
reflection score, and group differences are tested with a one-way ANOVA
followed by a max-T permutation analog of Tukey's HSD (family-wise by
construction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._util import derive_seed
from .errors import InputError, UsageError, allocating
from .nudge import BRANCHES, Branch, NudgeParams

__all__ = [
    "CrtGroup",
    "AnovaResult",
    "PairwiseComparison",
    "crt_group",
    "effect_summary",
    "one_way_anova",
    "f_survival",
    "pairwise_posthoc",
    "cognitive_style_tables",
]


class CrtGroup(str, Enum):
    INTUITIVE = "intuitive"      # CRT score 0
    MODERATE = "moderate"        # CRT score 1-2
    REFLECTIVE = "reflective"    # CRT score 3


def crt_group(score: int) -> CrtGroup:
    if score == 0:
        return CrtGroup.INTUITIVE
    if score in (1, 2):
        return CrtGroup.MODERATE
    if score == 3:
        return CrtGroup.REFLECTIVE
    raise InputError(f"CRT score must be in 0..3, got {score}")


@dataclass(frozen=True)
class AnovaResult:
    f_statistic: float
    df_between: int
    df_within: int
    p_value: float
    degenerate: bool = False


@dataclass(frozen=True)
class PairwiseComparison:
    pair: tuple[int, int]
    mean_diff: float
    p_value: float


def effect_summary(params: NudgeParams, branch: Branch | str) -> float:
    """Scalar effect: sign(scale) * ||realized shift|| (attention passes through)."""
    branch = Branch(branch)
    value = params[branch]
    if branch == Branch.EXP:
        return float(value)
    return float(value.sign * value.norm)


def _validated_groups(groups) -> list[np.ndarray]:
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 2:
        raise UsageError("need at least 2 groups")
    for i, arr in enumerate(arrays):
        if arr.ndim != 1 or arr.size < 2:
            raise UsageError(f"group {i} needs at least 2 observations")
    return arrays


# The continued fraction stops once a step moves it by under _BETA_EPS, or
# after _BETA_TERMS terms; for df1 <= 10 and df2 <= 10,000 it takes at most 70.
_BETA_EPS = 1e-15
_BETA_TERMS = 10_000
_BETA_TINY = 1e-300


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b) for 0 < x < 1, with y = 1 - x
    given separately so that no digits are lost near x = 1.

    The continued fraction of Numerical Recipes (3rd ed.) section 6.4,
    evaluated by the modified Lentz method; it converges fast below
    x = (a+1)/(a+b+2), and I_x(a, b) = 1 - I_{1-x}(b, a) covers the rest.
    """
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, y, x)
    c, d, fraction = 1.0, 0.0, 1.0
    for i in range(_BETA_TERMS):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > _BETA_TINY else _BETA_TINY)
        c = 1.0 + term / c
        c = c if abs(c) > _BETA_TINY else _BETA_TINY
        step = c * d
        fraction *= step
        if abs(1.0 - step) < _BETA_EPS:
            break
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log(y))
    return math.exp(log_front) * (fraction - 1.0) / a


def f_survival(f: float, df1: int, df2: int) -> float:
    """P(F >= f) for the F(df1, df2) distribution via the regularized
    incomplete beta function, I_x(df2/2, df1/2) at x = df2 / (df2 + df1 f).

    Accurate to 1e-10 for df1 in 1..10 and df2 in 2..10,000, the domain
    the tests check; past it, the digits that log-gamma loses grow with
    df2.  A NaN input gives NaN.
    """
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    scaled = df1 * f
    x = df2 / (df2 + scaled)
    if math.isnan(x) or x == 0.0:   # a NaN input, or f past the largest float
        return float(x)
    y = scaled / (df2 + scaled)
    if y == 0.0:                    # f so small that 1 - x underflows
        return 1.0
    return _betainc(df2 / 2.0, df1 / 2.0, x, y)


def one_way_anova(groups) -> AnovaResult:
    """Classic F test for equal group means.

    Degenerate inputs are reported rather than raised: no variance at all
    gives F=0, p=1; zero within-group variance with unequal means gives
    an infinite F and p=0, both flagged.
    """
    arrays = _validated_groups(groups)
    sizes = np.array([a.size for a in arrays])
    means = np.array([a.mean() for a in arrays])
    grand = float(np.concatenate(arrays).mean())
    ss_between = float(np.sum(sizes * (means - grand) ** 2))
    ss_within = float(sum(np.sum((a - m) ** 2) for a, m in zip(arrays, means)))
    df_between = len(arrays) - 1
    df_within = int(sizes.sum()) - len(arrays)

    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(0.0, df_between, df_within, 1.0, degenerate=True)
        return AnovaResult(float("inf"), df_between, df_within, 0.0,
                           degenerate=True)
    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(float(f), df_between, df_within,
                       f_survival(f, df_between, df_within))


# Permutations drawn and reduced at once by pairwise_posthoc.
_PERMUTATION_BLOCK = 1000
# A permuted statistic within this relative distance of the observed one
# reaches it.
_TIE_TOLERANCE = 1e-12


def pairwise_posthoc(groups, n_permutations: int = 10000,
                     seed: int = 0) -> list[PairwiseComparison]:
    """Max-T permutation analog of Tukey's HSD.

    For each pair, the p-value is the fraction of label permutations whose
    maximum absolute pairwise mean difference reaches the pair's observed
    difference; calibrating every pair against the permutation maximum
    controls the family-wise error rate.
    """
    arrays = _validated_groups(groups)
    if n_permutations < 100:
        raise UsageError("n_permutations must be at least 100")
    pooled = np.concatenate(arrays)
    sizes = np.array([a.size for a in arrays])
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    rng = np.random.default_rng(seed)
    with allocating(f"{n_permutations} permutations"):
        max_stats = np.empty(n_permutations)
    # blocks of permutations, each row drawn as rng.permutation(pooled.size)
    for first in range(0, n_permutations, _PERMUTATION_BLOCK):
        rows = min(_PERMUTATION_BLOCK, n_permutations - first)
        order = rng.permuted(np.tile(np.arange(pooled.size), (rows, 1)), axis=1)
        means = np.add.reduceat(pooled[order], starts, axis=1) / sizes
        # the largest |mean_i - mean_j| over all pairs, to the bit
        max_stats[first:first + rows] = means.max(axis=1) - means.min(axis=1)

    observed_means = np.array([a.mean() for a in arrays])
    out = []
    for i in range(len(arrays)):
        for j in range(i + 1, len(arrays)):
            diff = float(observed_means[i] - observed_means[j])
            # a permutation that regroups the observed split sums it in
            # another order, so its statistic may miss abs(diff) by rounding;
            # the relative tolerance counts it as the tie it is
            reached = max_stats >= abs(diff) * (1.0 - _TIE_TOLERANCE)
            out.append(PairwiseComparison(
                pair=(i, j), mean_diff=diff, p_value=float(np.mean(reached))))
    return out


def cognitive_style_tables(effects, n_permutations: int, seed: int):
    """The CRT-group analysis of fitted effects.

    ``effects`` holds (subject_id, treatment, branch, signed_magnitude,
    crt_score or None) rows.  For each treatment and branch they cover, in
    ``BRANCHES`` order, the effects are bucketed by CRT group;
    each group, in ``CrtGroup`` order, gets a row (n, mean and its
    1.96 sd / sqrt(n) interval), and the groups of at least 2 subjects, if
    there are at least 2 of them, get a one-way ANOVA row and the post-hoc
    rows of each pair.  Returns
    (group_rows, anova_rows, pair_rows, warnings), the rows ready for CSV
    and the warnings sorted and unique.  Finite effects whose statistics
    overflow raise an InputError.
    """
    # a sum of squares, a mean or an interval of large finite magnitudes
    # may overflow to inf, and inf - inf makes a NaN
    try:
        with np.errstate(over="raise", invalid="raise"):
            return _style_tables(list(effects), n_permutations, seed)
    except FloatingPointError as exc:
        raise InputError(f"fitted effects too large to analyze: {exc}") from exc


def _style_tables(effects, n_permutations, seed):
    group_rows, anova_rows, pair_rows, warnings = [], [], [], set()
    for treatment, branches in BRANCHES.items():
        for branch in branches:
            rows = [row for row in effects if row[1:3] == (treatment, branch)]
            if not rows:
                continue
            buckets = {group: [] for group in CrtGroup}
            for subject_id, _, _, magnitude, crt in rows:
                if crt is None:
                    warnings.add(f"subject {subject_id} has no CRT score")
                else:
                    buckets[crt_group(crt)].append(magnitude)
            for group in CrtGroup:
                values = np.asarray(buckets[group], dtype=float)
                mean = float(values.mean()) if values.size else ""
                interval = ("", "")
                if values.size >= 2:
                    half = 1.96 * values.std(ddof=1) / np.sqrt(values.size)
                    interval = (mean - half, mean + half)
                group_rows.append((treatment.value, branch.value, group.value,
                                   values.size, mean, *interval))
            names = [g for g in CrtGroup if len(buckets[g]) >= 2]
            if len(names) < 2:
                warnings.add(f"{treatment.value}/{branch.value}: fewer than two "
                             f"groups with >= 2 subjects; ANOVA skipped")
                continue
            testable = [buckets[g] for g in names]
            anova = one_way_anova(testable)
            anova_rows.append((treatment.value, branch.value, anova.f_statistic,
                               anova.df_between, anova.df_within, anova.p_value,
                               anova.degenerate))
            posthoc = pairwise_posthoc(
                testable, n_permutations=n_permutations,
                seed=derive_seed(seed, treatment.value, branch.value, "posthoc"))
            for comparison in posthoc:
                i, j = comparison.pair
                pair_rows.append((treatment.value, branch.value, names[i].value,
                                  names[j].value, comparison.mean_diff,
                                  comparison.p_value))
    return group_rows, anova_rows, pair_rows, sorted(warnings)
