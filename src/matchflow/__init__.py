"""Point-by-point tennis match-flow analytics.

Pipeline: ingest (parse/clean/features) -> serve-conditioned labels ->
softmax classification with F1/ROC evaluation, plus momentum scoring, AHP
round evaluation, trend and randomness tests, sensitivity sweeps and wavelet
scalograms.  The ``matchflow`` CLI wires the pieces together.
"""

from .ahp import (
    AhpResult,
    JudgmentMatrix,
    build_judgment_matrix,
    composite_consistency_ratio,
    consistency,
    matrix_from_weights,
    score_rounds,
    weights,
)
from .classifier import (
    SoftmaxModel,
    TrainConfig,
    nll_and_grad,
    sigmoid,
    softmax,
    train,
    train_test_split,
)
from .errors import ConfigError, DataError, MatchFlowError, SchemaError
from .ingest import (
    FeatureTable,
    MatchTimeline,
    derive_features,
    load_and_clean,
    write_clean_csv,
)
from .labels import LabelSet, ServeWinStats, estimate_serve_win_posterior, label_points
from .metrics import ConfusionCounts, RocCurve, confusion, metrics_table, roc_auc, summary_metrics
from .momentum import (
    MomentumParams,
    MomentumSeries,
    find_swings,
    momentum_from_victors,
    momentum_series,
)
from .sweep import ResponseModel, SweepResult, SweepSpec, fit_response_model, sweep_1d, sweep_2d
from .trend import (
    PermutationReport,
    SurfaceFit,
    cosine_similarity,
    euclidean_distance,
    fit_poly22,
    randomness_test,
)
from .wavelet import Scalogram, WaveletConfig, cwt, morlet, scale_for_period, scalogram_export

__version__ = "0.1.0"

__all__ = [
    "AhpResult",
    "ConfigError",
    "ConfusionCounts",
    "DataError",
    "FeatureTable",
    "JudgmentMatrix",
    "LabelSet",
    "MatchFlowError",
    "MatchTimeline",
    "MomentumParams",
    "MomentumSeries",
    "PermutationReport",
    "ResponseModel",
    "RocCurve",
    "Scalogram",
    "SchemaError",
    "ServeWinStats",
    "SoftmaxModel",
    "SurfaceFit",
    "SweepResult",
    "SweepSpec",
    "TrainConfig",
    "WaveletConfig",
    "build_judgment_matrix",
    "composite_consistency_ratio",
    "confusion",
    "consistency",
    "cosine_similarity",
    "cwt",
    "derive_features",
    "estimate_serve_win_posterior",
    "euclidean_distance",
    "find_swings",
    "fit_poly22",
    "fit_response_model",
    "label_points",
    "load_and_clean",
    "matrix_from_weights",
    "metrics_table",
    "momentum_from_victors",
    "momentum_series",
    "morlet",
    "nll_and_grad",
    "randomness_test",
    "roc_auc",
    "scale_for_period",
    "scalogram_export",
    "score_rounds",
    "sigmoid",
    "softmax",
    "summary_metrics",
    "sweep_1d",
    "sweep_2d",
    "train",
    "train_test_split",
    "weights",
    "write_clean_csv",
]
