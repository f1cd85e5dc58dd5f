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
    CrtGroup,
    PairwiseComparison,
    crt_group,
    effect_summary,
    f_survival,
    one_way_anova,
    pairwise_posthoc,
)
from .core import (
    PopulationFitConfig,
    PopulationPosterior,
    WeightVector,
    elbo_and_gradient,
    fit_population,
    gaussian_kl,
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
)
from .nudge import (
    Branch,
    NudgeParams,
    SignedSharedSignVector,
    decision_probability,
)
from .records import Treatment, Trials, export_csv, group_by_subject, ingest
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

__all__ = [
    "AnovaResult", "CrtGroup", "PairwiseComparison", "crt_group",
    "effect_summary", "f_survival", "one_way_anova", "pairwise_posthoc",
    "PopulationFitConfig", "PopulationPosterior", "WeightVector",
    "elbo_and_gradient", "fit_population", "gaussian_kl",
    "ConfigurationError", "DataValidationError", "DomainError", "InputError",
    "NudgelabError", "UsageError",
    "CurvePoint", "EvalReport", "SplitPlan", "SubjectMetrics", "baseline_logistic",
    "evaluate_framework", "learning_curve", "metrics", "split_trials",
    "FitConfig", "NudgeFitResult", "NudgeObjective", "fit_nudge", "fit_nudge_batch",
    "Branch", "NudgeParams", "SignedSharedSignVector", "decision_probability",
    "Treatment", "Trials", "export_csv", "group_by_subject", "ingest",
    "SurrogateAI", "SyntheticSubject", "ai_explain", "ai_recommend",
    "default_population_moments", "default_surrogate_ai", "generate_behavior",
    "make_synthetic_subjects", "random_nudge_params", "uniform_tasks",
]

__version__ = "0.1.0"
