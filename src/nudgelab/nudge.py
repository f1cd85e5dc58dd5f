"""Predicting assisted decisions as perturbations of the population posterior.

Each assistance form nudges the decision maker by shifting the feature
weights of every ensemble member (never the intercept):

* immediate assistance shifts by ``(2*y_m - 1) * confidence * delta``;
* a delayed recommendation first restricts the ensemble to the members
  whose own decision matches the observed initial decision (all of them
  when none does), then shifts by ``(2*y_m - 1)`` times the affirm or
  contradict vector depending on whether the recommendation matches;
* an explanation-only mask mixes the responses to the highlighted and
  non-highlighted feature subsets with attention weight ``delta_exp``
  (the intercept participates in both mixture terms).

A shift vector moves every member's logit on trial t by the same scalar
c_t = direction_t * x_t . delta, so each trial's probability is one
function of c_t: ``EnsembleResponse``.  At c = 0 it is the unassisted
(independent) probability, and an explanation trial's two response means
are its values at c = 0 on the masked features.  It is the package's only
probability code, and ``TreatmentLayout`` is the only code that maps a
treatment's payload onto it: simulation, the nudge fit and scoring all
read K subjects' trials through both.  It keeps one feature row per
distinct trial and no member logits: an evaluation computes them for one
chunk of rows at a time, once for all of each row's shifts, so its memory
is bounded per chunk.  ``decision_probability`` scores the ``Trials`` of K
subjects of one treatment, each at its own parameters.

Shift vectors share one sign across coordinates: they are stored as a
signed scalar times nonnegative magnitudes, so trust (+) versus distrust
of the AI is a single degree of freedom.  ``BRANCHES`` lists each
treatment's branches; ``NudgeParams`` holds one value per branch.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PopulationPosterior, _frozen_array
from .errors import ConfigurationError, UsageError
from .records import Treatment, Trials

__all__ = [
    "EnsembleResponse",
    "SignedSharedSignVector",
    "Branch",
    "BRANCHES",
    "NudgeParams",
    "explanation_means",
    "TreatmentLayout",
    "decision_probability",
    "PROBABILITY_EPS",
]

PROBABILITY_EPS = 1e-6

# No temporary of an evaluation holds more than this many member-by-row
# elements (256 KB), or one row's: a chunk of rows' member values at their
# m shifts, or the n feature terms of their logits.
_CHUNK_ELEMENTS = 1 << 15


@contextmanager
def _unbuffered():
    """Run ufuncs with numpy's smallest buffer.  An operation that
    broadcasts a row of S members against a column of per-row values (or
    the reverse) cannot be iterated as one contiguous loop, and under the
    default 8,192-element buffer numpy copies its operands through the
    buffer, which makes it about 4x slower at S = 1,000 than the row-by-row
    loop it runs once no buffer fits.  Values keep their bits: buffering
    only copies.  Nothing in this scope casts, which would go 16 elements
    at a time."""
    size = np.setbufsize(16)
    try:
        yield
    finally:
        np.setbufsize(size)


class EnsembleResponse:
    """Each trial's probability as a function of its scalar logit shift c:
    p_t(c) = sum_s m_ts sigmoid(l_ts + c) / count_t, and dp_t/dc.

    l_ts is member s's logit for trial t (``features`` is T x n; the
    intercept is the ensemble's last column).  The mask m_ts marks the
    members each trial averages over: all of them, or for the delayed
    treatment (``initial`` given) those whose own decision matches the
    trial's initial one, or all when none does; count_t counts them.
    Logits are summed one feature at a time and every sum over members runs
    along one row, so a trial's values are the same bits whichever trials
    are stacked with it, however many shifts it is evaluated at and however
    the rows are chunked.

    So trials that are the same input share one row: ``features`` and
    ``initial`` keep one row per distinct trial, keyed on the bytes of its
    feature row and, for delayed, its initial decision, in order of first
    appearance, and ``columns`` (T,) maps each stacked trial to its row.
    Nothing of size rows x S is kept: an evaluation computes a chunk of
    rows' logits, mask weights and counts (``members_of``) from their
    features, each row's once for all of its m shifts, so memory is
    bounded per chunk, not per response.  A one-member ensemble keys
    nothing, so there row t is trial t, and keeps its T ``logits`` for
    ``exact`` to read.
    """

    def __init__(self, ensemble: np.ndarray, features: np.ndarray,
                 initial: np.ndarray | None = None):
        self.members = np.ascontiguousarray(ensemble.T)                 # (n+1, S)
        if len(ensemble) > 1:
            first, self.columns = _distinct_rows(features, initial)
            features = features[first]
            initial = None if initial is None else initial[first]
        else:
            self.columns = np.arange(len(features))
        self.features, self.initial = features, initial                 # (rows, n)
        if len(ensemble) == 1:
            self.logits = self.members_of(self.columns)[0][:, 0]         # (T,)

    def members_of(self, rows):
        """The member logits (r, S) of the rows numbered ``rows`` (r,), the
        weight (0.0 or 1.0) of each in its row's average (None: all 1.0)
        and the rows' counts of kept members (r,)."""
        x = self.features[rows]
        # summed one feature at a time, the intercept last: a reduction
        # along a middle axis adds its slices in order
        logits = np.add.reduce(np.multiply(x[:, :, None], self.members[:-1]), axis=1)
        logits += self.members[-1]
        if self.initial is None:
            return logits, None, np.full(len(x), float(logits.shape[1]))
        # a member is kept where its decision (logit >= 0) is the initial
        # one, or every member where none is
        weight = np.equal(logits >= 0.0, self.initial[rows, None] == 1).astype(float)
        count = weight.sum(axis=1)
        if not count.all():
            weight[count == 0.0] = 1.0
            count[count == 0.0] = len(self.members[0])
        return logits, weight, count

    def exact(self, shift: np.ndarray):
        """(p, dp/dc) for shifts of shape (..., T)."""
        if len(self.members[0]) == 1:
            # one member, always kept: the same bits as the member loop,
            # whose one-term sums, x True masks and / 1.0 counts are exact
            with np.errstate(over="ignore"):
                p = np.exp(np.subtract(-shift, self.logits))
            p += 1.0
            np.reciprocal(p, out=p)
            slope = np.subtract(1.0, p)
            slope *= p
            return p, slope
        # each trial's R shifts are one entry of its row
        p, slope, _ = self._rows(self.columns,
                                 shift.reshape(-1, shift.shape[-1]).T)
        return p.T.reshape(shift.shape), slope.T.reshape(shift.shape)

    def _rows(self, rows, shift, derivatives=1):
        """Exact (p, dp/dc, d2p/dc2), each (r, m), of the rows numbered
        ``rows`` (r,) at their shifts ``shift`` (r, m); the derivatives past
        the first ``derivatives`` (0 to 2) are None.  Rows are taken a chunk
        at a time, and each row's logits are computed once for its m
        shifts."""
        values = [np.empty(shift.shape) for _ in range(derivatives + 1)]
        # a chunk's largest temporaries: its member values at the m shifts,
        # and the n feature terms of its logits
        width = max(shift.shape[1], len(self.members) - 1)
        step = max(1, _CHUNK_ELEMENTS // (width * len(self.members[0])))
        with _unbuffered(), np.errstate(over="ignore"):
            for start in range(0, len(rows), step):
                part = slice(start, start + step)
                logits, weight, count = self.members_of(rows[part])
                count = count[:, None]
                # -x = -shift - logit: the same bits as -(logit + shift)
                member = np.subtract(-shift[part, :, None], logits[:, None])  # (r, m, S)
                # sigmoid = 1 / (1 + e^-x) in place, the formula of
                # _util.sigmoid; e^-x overflows to inf where sigmoid is 0
                np.exp(member, out=member)
                member += 1.0
                np.reciprocal(member, out=member)
                if weight is not None:
                    member *= weight[:, None]
                values[0][part] = member.sum(axis=-1) / count
                if derivatives >= 1:
                    # (1 - s w) s w is (1 - s) s w to the bit, as w is 0 or
                    # 1 and 0 <= s <= 1
                    dmember = np.subtract(1.0, member)
                    dmember *= member
                    values[1][part] = dmember.sum(axis=-1) / count
                if derivatives >= 2:
                    # sigmoid'' = sigmoid (1 - sigmoid) (1 - 2 sigmoid),
                    # zero where the masked dmember is
                    member *= -2.0
                    member += 1.0
                    member *= dmember
                    values[2][part] = member.sum(axis=-1) / count
        return (*values, *[None] * (2 - derivatives))


def _distinct_rows(features, initial=None):
    """(first, columns): the index of each distinct trial's first
    appearance, in order, and each trial's number among them.  A trial is
    keyed on the bytes of its feature row, plus its initial decision when
    ``initial`` is given, so two rows that differ in any bit (-0.0 and 0.0
    included) stay apart."""
    key = np.ascontiguousarray(features, dtype=float).view(np.uint64)
    if initial is not None:
        # the mask reads the initial decision as initial == 1
        key = np.column_stack([key, initial == 1])
    width = key.shape[1] * key.itemsize
    data = key.tobytes()
    # each trial's row bytes -> the index of their first appearance
    seen = {}
    firsts = np.fromiter((seen.setdefault(data[i:i + width], t)
                          for t, i in enumerate(range(0, len(data), width))),
                         dtype=np.intp, count=len(key))
    first = np.fromiter(seen.values(), dtype=np.intp, count=len(seen))
    row = np.empty(len(key), dtype=np.intp)
    row[first] = np.arange(first.size)
    return first, row[firsts]


def _response_at(ensemble, features, shift, initial=None) -> np.ndarray:
    """The probabilities (T,) of ``EnsembleResponse(ensemble, features,
    initial)`` at ``shift``, without their slopes."""
    response = EnsembleResponse(ensemble, features, initial)
    return response._rows(response.columns, shift[:, None], derivatives=0)[0][:, 0]


def _unassisted(ensemble, features) -> np.ndarray:
    """Each trial's unassisted probability (T,): the response at c = 0,
    evaluated once per distinct trial."""
    response = EnsembleResponse(ensemble, features)
    rows = len(response.features)
    p = response._rows(np.arange(rows), np.zeros((rows, 1)), derivatives=0)[0]
    return p[response.columns, 0]


def explanation_means(ensemble: np.ndarray, features: np.ndarray,
                      masks: np.ndarray):
    """Each trial's mean member response to its highlighted features and to
    the others, the intercept kept in both: two (T,) arrays, the ensemble
    response at c = 0 on the masked features."""
    return (_unassisted(ensemble, masks * features),
            _unassisted(ensemble, (1.0 - masks) * features))


def attention_mixture(attention, focused, ignored):
    """Explanation probabilities at attention weights ``attention``: the
    weighted mixture of the two response means."""
    return attention * focused + (1.0 - attention) * ignored


@dataclass(frozen=True)
class SignedSharedSignVector:
    """Weight shift delta = scale * magnitudes with one shared sign.

    ``scale`` carries the sign (trust when positive, distrust when
    negative) and ``magnitudes`` are nonnegative, so any two realized
    components satisfy delta_i * delta_j >= 0 by construction.
    """

    scale: float
    magnitudes: np.ndarray

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=float)
        if mags.ndim != 1 or np.any(mags < 0.0) or not np.all(np.isfinite(mags)):
            raise ConfigurationError("magnitudes must be finite and nonnegative")
        # a finite norm implies finite components (inf * 0 makes a NaN one)
        with np.errstate(over="ignore", invalid="ignore"):
            if not (np.isfinite(self.scale)
                    and np.isfinite(np.linalg.norm(self.scale * mags))):
                raise ConfigurationError(
                    "scale, the realized vector and its norm must be finite")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "magnitudes", _frozen_array(mags))

    @classmethod
    def zero(cls, n_features: int) -> "SignedSharedSignVector":
        return cls(scale=0.0, magnitudes=np.zeros(n_features))

    @property
    def realized(self) -> np.ndarray:
        """The actual shift vector applied to the feature weights."""
        return self.scale * self.magnitudes

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.realized))

    @property
    def sign(self) -> int:
        """+1 when scale >= 0, else -1 (zero-magnitude components allowed)."""
        return 1 if self.scale >= 0 else -1


class Branch(str, Enum):
    DIRECT = "direct"
    AFFIRM = "affirm"
    CONTRA = "contra"
    EXP = "exp"


# Each treatment's branches in block order: one NudgeParams value, theta
# block, params-file section and effects row per branch.
BRANCHES = {
    Treatment.INDEPENDENT: (),
    Treatment.IMMEDIATE: (Branch.DIRECT,),
    Treatment.DELAYED: (Branch.AFFIRM, Branch.CONTRA),
    Treatment.EXPLANATION: (Branch.EXP,),
}


@dataclass(frozen=True)
class NudgeParams:
    """Per-subject nudge parameters: one value per branch of an assisted
    ``treatment``, in ``BRANCHES`` order, a ``SignedSharedSignVector`` or the
    attention weight in [0, 1] (``Branch.EXP``); ``params[branch]`` reads one."""

    treatment: Treatment
    values: tuple

    def __post_init__(self):
        treatment = Treatment(self.treatment)
        values = tuple(self.values)
        branches = BRANCHES[treatment]
        if not branches:
            raise ConfigurationError(f"{treatment.value} has no nudge parameters")
        if len(values) != len(branches):
            raise ConfigurationError(f"{treatment.value} parameters take "
                                     f"{len(branches)} values, got {len(values)}")
        for branch, value in zip(branches, values):
            if branch == Branch.EXP and not 0.0 <= value <= 1.0:
                raise ConfigurationError("delta_exp must lie in [0, 1]")
        object.__setattr__(self, "treatment", treatment)
        object.__setattr__(self, "values", values)

    def __getitem__(self, branch):
        branch = Branch(branch)
        branches = BRANCHES[self.treatment]
        if branch not in branches:
            raise UsageError(f"{self.treatment.value} parameters carry no "
                             f"delta_{branch.value}")
        return self.values[branches.index(branch)]

    @classmethod
    def for_immediate(cls, delta: SignedSharedSignVector) -> "NudgeParams":
        return cls(Treatment.IMMEDIATE, (delta,))

    @classmethod
    def for_delayed(cls, affirm: SignedSharedSignVector,
                    contra: SignedSharedSignVector) -> "NudgeParams":
        return cls(Treatment.DELAYED, (affirm, contra))

    @classmethod
    def for_explanation(cls, delta_exp: float) -> "NudgeParams":
        return cls(Treatment.EXPLANATION, (delta_exp,))


class TreatmentLayout:
    """K subjects' ``Trials`` of one treatment, stacked in order, as the
    kernel reads them: the one place where a treatment's payload becomes
    per-trial terms.

    ``subject`` (T,) numbers each trial's subject 0..K-1.  Immediate and
    delayed trial t moves by the logit shift c_t = direction_t * x_t .
    delta_(block_t) (``shift``), where direction is 2r - 1 (times the
    confidence for immediate assistance) and block = subject * B + branch
    picks one of the K * B shift vectors, stacked subject by subject in
    ``BRANCHES`` order: B = ``n_branches`` = len(BRANCHES[treatment]), and
    a delayed trial's branch is affirm (0) when the recommendation matches
    its ``initial`` decision and contra (1) otherwise.  Explanation trials
    carry their ``masks`` (T x n, float).

    There must be at least one subject, each with trials of a single
    subject_id, every trial of ``treatment`` (default: the first trial's),
    and as many features as the ensemble's members weigh.
    """

    def __init__(self, trial_sets, ensemble: np.ndarray, treatment=None):
        trial_sets = list(trial_sets)
        if not trial_sets:
            raise UsageError("at least one subject's trials are required")
        for subject in trial_sets:
            if not len(subject):
                raise UsageError("every subject needs at least one trial")
            ids = sorted(set(subject.subject_id.tolist()))
            if len(ids) != 1:
                raise UsageError(f"trials span multiple subjects: {ids}")
        trials = Trials.concat(trial_sets)
        self.treatment = Treatment(trials.treatment[0] if treatment is None
                                   else treatment)
        other = trials.treatment[trials.treatment != self.treatment]
        if other.size:
            raise UsageError(f"trial treatment {other[0].value!r} does not match "
                             f"{self.treatment.value!r}")
        if trials.n_features != ensemble.shape[1] - 1:
            raise ConfigurationError(
                f"posterior has {ensemble.shape[1] - 1} features but the "
                f"trials have {trials.n_features}")
        self.sizes = [len(subject) for subject in trial_sets]
        self.n_subjects = len(self.sizes)
        self.subject = np.repeat(np.arange(self.n_subjects), self.sizes)  # (T,)
        self.features = trials.features                                   # (T, n)
        self.final = trials.final_decision
        self.n_branches = len(BRANCHES[self.treatment])
        self.initial = None
        if self.treatment == Treatment.EXPLANATION:
            self.masks = trials.explanation_mask.astype(float)
        if self.treatment not in (Treatment.IMMEDIATE, Treatment.DELAYED):
            return
        rec = trials.ai_recommendation
        if self.treatment == Treatment.IMMEDIATE:
            self.direction = (2.0 * rec - 1.0) * trials.ai_confidence     # (T,)
            branch = 0
        else:
            self.initial = trials.initial_decision
            self.direction = 2.0 * rec - 1.0
            branch = (rec != self.initial).astype(np.intp)              # contra: 1
        self.block = self.subject * self.n_branches + branch             # (T,)

    def shift(self, deltas: np.ndarray) -> np.ndarray:
        """Each trial's logit shift (..., T) under the stacked shift vectors
        ``deltas`` (..., K * B, n): direction_t times x_t . delta_(block_t),
        summed one feature at a time (numpy's sum over fewer than 8 terms
        adds them in the same order)."""
        terms = deltas.take(self.block, axis=-2)                        # (..., T, n)
        terms *= self.features
        columns = terms.reshape(-1, terms.shape[-1]).T                  # (n, ... * T)
        total = columns[0].copy()
        for column in columns[1:]:
            total += column
        total = total.reshape(terms.shape[:-1])
        total *= self.direction
        return total


def decision_probability(trial_sets, posterior: PopulationPosterior, params,
                         clip_eps: float = PROBABILITY_EPS) -> np.ndarray:
    """Probability that each trial's final decision is 1, clipped to
    [clip_eps, 1 - clip_eps]: a (T,) array over K subjects' trials.

    ``trial_sets`` is a list of K subjects' ``Trials``, all of one
    treatment (see ``TreatmentLayout``), and ``params`` their K nudge
    parameters; the independent treatment takes None for each and is the
    ensemble response at c = 0.  The trials are scored in one evaluation
    of the kernel, in order.  The clip keeps log likelihoods finite for
    degenerate ensembles.
    """
    trial_sets = list(trial_sets)
    params = list(params)
    if len(params) != len(trial_sets):
        raise UsageError(f"{len(params)} parameter sets for {len(trial_sets)} subjects")
    ensemble = posterior.ensemble
    layout = TreatmentLayout(trial_sets, ensemble)
    treatment = layout.treatment
    wanted = None if treatment == Treatment.INDEPENDENT else treatment
    if any((None if p is None else p.treatment) != wanted for p in params):
        raise UsageError(f"trial treatment {treatment.value!r} does not match "
                         f"the parameters provided")
    if treatment == Treatment.INDEPENDENT:
        probability = _unassisted(ensemble, layout.features)
    elif treatment == Treatment.EXPLANATION:
        attention = np.asarray([p[Branch.EXP] for p in params])[layout.subject]
        probability = attention_mixture(
            attention, *explanation_means(ensemble, layout.features, layout.masks))
    else:
        # each subject's vectors in block order
        deltas = np.array([v.realized for p in params for v in p.values])  # (K * B, n)
        probability = _response_at(ensemble, layout.features,
                                   layout.shift(deltas), layout.initial)
    return np.clip(probability, clip_eps, 1.0 - clip_eps)
