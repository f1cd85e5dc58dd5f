"""Nudge-effect analysis across cognitive-style groups.

Fitted shift vectors are summarized as a signed magnitude (sign of the
shared scale times the Euclidean norm; the attention weight passes
through unchanged), subjects are grouped by their 3-item cognitive
reflection score, and group differences are tested with a one-way ANOVA
followed by a max-T permutation analog of Tukey's HSD (family-wise by
construction).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betainc

from .errors import InputError, UsageError
from .nudge import NudgeParams
from .records import Treatment

__all__ = [
    "CrtGroup",
    "Branch",
    "TREATMENT_BRANCHES",
    "BRANCH_FIELDS",
    "AnovaResult",
    "PairwiseComparison",
    "crt_group",
    "effect_summary",
    "one_way_anova",
    "f_survival",
    "pairwise_posthoc",
]


class CrtGroup(str, Enum):
    INTUITIVE = "intuitive"      # CRT score 0
    MODERATE = "moderate"        # CRT score 1-2
    REFLECTIVE = "reflective"    # CRT score 3


class Branch(str, Enum):
    DIRECT = "direct"
    AFFIRM = "affirm"
    CONTRA = "contra"
    EXP = "exp"


# The shift branches each treatment's effect is summarized by, in output order.
TREATMENT_BRANCHES = {
    Treatment.INDEPENDENT: (),
    Treatment.IMMEDIATE: (Branch.DIRECT,),
    Treatment.DELAYED: (Branch.AFFIRM, Branch.CONTRA),
    Treatment.EXPLANATION: (Branch.EXP,),
}

# The NudgeParams field that holds each branch's shift.
BRANCH_FIELDS = {
    Branch.DIRECT: "delta_direct",
    Branch.AFFIRM: "delta_affirm",
    Branch.CONTRA: "delta_contra",
    Branch.EXP: "delta_exp",
}


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
    group_means: tuple[float, ...]
    degenerate: bool = False


@dataclass(frozen=True)
class PairwiseComparison:
    pair: tuple[int, int]
    mean_diff: float
    p_value: float


def effect_summary(params: NudgeParams, branch: Branch | str) -> float:
    """Scalar effect: sign(scale) * ||realized shift|| (attention passes through)."""
    branch = Branch(branch)
    value = getattr(params, BRANCH_FIELDS[branch])
    if value is None:
        raise UsageError(f"params carry no {BRANCH_FIELDS[branch]}")
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


def f_survival(f: float, df1: int, df2: int) -> float:
    """P(F >= f) for the F(df1, df2) distribution via the regularized
    incomplete beta function."""
    if f <= 0.0:
        return 1.0
    if np.isinf(f):
        return 0.0
    x = df2 / (df2 + df1 * f)
    return float(betainc(df2 / 2.0, df1 / 2.0, x))


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
    group_means = tuple(float(m) for m in means)

    if ss_within == 0.0:
        if ss_between == 0.0:
            return AnovaResult(0.0, df_between, df_within, 1.0, group_means,
                               degenerate=True)
        return AnovaResult(float("inf"), df_between, df_within, 0.0, group_means,
                           degenerate=True)
    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(float(f), df_between, df_within,
                       f_survival(f, df_between, df_within), group_means)


# Permutations drawn and reduced at once by pairwise_posthoc.
_PERMUTATION_BLOCK = 1000


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
            out.append(PairwiseComparison(
                pair=(i, j), mean_diff=diff,
                p_value=float(np.mean(max_stats >= abs(diff)))))
    return out
