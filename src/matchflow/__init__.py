"""Point-by-point tennis match-flow analytics.

Pipeline: ingest (parse/clean/features) -> serve-conditioned labels ->
softmax classification with F1/ROC evaluation, plus momentum scoring, AHP
round evaluation, trend and randomness tests, sensitivity sweeps and wavelet
scalograms.  The ``matchflow`` CLI wires the pieces together.

The names imported below are the public API.  Four analyses return the JSON
payload their artifact holds, as a dict whose keys matchflow.schemas states:
estimate_serve_win_posterior, consistency, randomness_test, scalogram_export.
momentum_from_victors and momentum_series return momentum's arrays as a dict,
and a ResponseModel scores a mapping of feature columns, one score per row.
"""

from .ahp import (
    JudgmentMatrix,
    consistency,
    score_rounds,
    weights,
)
from .classifier import (
    SoftmaxModel,
    TrainConfig,
    nll_and_grad,
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
from .labels import LabelSet, estimate_serve_win_posterior, label_points
from .metrics import ConfusionCounts, RocCurve, confusion, metrics_table, roc_auc, summary_metrics
from .momentum import MomentumParams, find_swings, momentum_from_victors, momentum_series
from .sweep import ResponseModel, SweepResult, SweepSpec, fit_response_model, sweep_grid
from .trend import (
    SurfaceFit,
    cosine_similarity,
    euclidean_distance,
    fit_poly22,
    randomness_test,
)
from .wavelet import Scalogram, WaveletConfig, cwt, morlet, scale_for_period, scalogram_export

__version__ = "0.1.0"
