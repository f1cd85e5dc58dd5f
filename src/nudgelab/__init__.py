"""Modeling AI assistance as a nudge on human decision making.

The package fits a population posterior over logistic decision weights
from unassisted decisions, predicts assisted decisions under three
assistance forms (immediate recommendation, delayed recommendation,
explanation only) via parameterized perturbations of that posterior, fits
per-subject nudge parameters by maximum likelihood, and provides the
evaluation protocol and cognitive-style effect analyses around them.
"""

from .analyze import (
    AnovaResult,
    Branch,
    CrtGroup,
    PairwiseComparison,
    crt_group,
    effect_summary,
    f_survival,
    one_way_anova,
    pairwise_posthoc,
)
from .core import (
    FilteredEnsemble,
    PopulationFitConfig,
    PopulationPosterior,
    TaskInstance,
    WeightVector,
    condition_on_decision,
    elbo_and_gradient,
    fit_population,
    gaussian_kl,
    logistic_response,
    predict_independent,
)
from .errors import (
    ConfigurationError,
    DataValidationError,
    DomainError,
    InputError,
    NudgelabError,
    UsageError,
)
from .evaluate import (
    CurvePoint,
    EvalReport,
    SplitPlan,
    SubjectMetrics,
    baseline_logistic,
    evaluate_framework,
    learning_curve,
    metrics,
    split_trials,
)
from .fitting import (
    FitConfig,
    NudgeFitResult,
    NudgeObjective,
    fit_nudge,
    fit_nudge_batch,
    fit_nudge_deterministic_ablation,
)
from .nudge import (
    Assistance,
    DelayedAssistance,
    ExplanationAssistance,
    ImmediateAssistance,
    NudgeParams,
    SignedSharedSignVector,
    decision_probability,
    predict_delayed,
    predict_explanation,
    predict_immediate,
)
from .records import BehaviorRecord, Treatment, export_csv, group_by_subject, ingest
from .simulate import (
    SurrogateAI,
    SyntheticSubject,
    ai_explain,
    ai_recommend,
    default_population_moments,
    default_surrogate_ai,
    generate_behavior,
    make_synthetic_subjects,
    random_nudge_params,
    uniform_tasks,
)

__version__ = "0.1.0"
