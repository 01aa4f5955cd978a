"""repro.surrogate: microsecond projections with an exact fallback.

The exact pipeline answers "projected time + best mapping" by searching
a transformation space — fused, that costs hundreds of microseconds
per program.  This package learns that answer: a pure-NumPy ridge
regressor predicts the winning mapping's time and a two-member ensemble
(one-vs-rest ridge + nearest-exemplar memory) predicts *which* mapping
wins, both from static skeleton features (one
:class:`~repro.transform.analysis.KernelAnalysis` walk) plus
architecture descriptors.  A conformal-style calibration over member-
consensus rows turns the ridge margin into a per-query confidence;
queries where the members disagree, below the confidence threshold, or
outside the trained feature domain fall back to the exact fused
explorer, so a surrogate answer is fast and a low-confidence answer is
never silently wrong.

Layout:

- :mod:`~repro.surrogate.features` — the feature schema and extractor;
- :mod:`~repro.surrogate.dataset` — bulk labeling through the fused
  scorer (grids at explorer speed);
- :mod:`~repro.surrogate.model` — ridge regression, mapping classifier,
  margin calibration, and the packaged :class:`SurrogateModel`;
- :mod:`~repro.surrogate.store` — versioned ``.npz`` persistence with a
  fingerprint guard against stale arch/space tables;
- :mod:`~repro.surrogate.engine` — the serving front-end
  (:class:`SurrogateEngine`) wrapping a
  :class:`~repro.service.engine.ProjectionEngine` for exact fallback.

See ``docs/SURROGATE.md`` for the serving-tier story and the CLI
(``python -m repro surrogate train|eval|project``).
"""

from repro.surrogate.dataset import TrainingSet, generate_training_set
from repro.surrogate.engine import SurrogateEngine, SurrogateResponse
from repro.surrogate.features import (
    FEATURE_NAMES,
    FEATURE_SCHEMA_VERSION,
    feature_rows_for_sizes,
    kernel_feature_row,
)
from repro.surrogate.model import (
    ExemplarClassifier,
    MappingClassifier,
    RidgeRegressor,
    SurrogateModel,
    evaluate_model,
    train_surrogate,
)
from repro.surrogate.store import (
    MODEL_FORMAT,
    StaleModelError,
    load_model,
    save_model,
)

__all__ = [
    "FEATURE_NAMES",
    "FEATURE_SCHEMA_VERSION",
    "MODEL_FORMAT",
    "ExemplarClassifier",
    "MappingClassifier",
    "RidgeRegressor",
    "StaleModelError",
    "SurrogateEngine",
    "SurrogateModel",
    "SurrogateResponse",
    "TrainingSet",
    "evaluate_model",
    "feature_rows_for_sizes",
    "generate_training_set",
    "kernel_feature_row",
    "load_model",
    "save_model",
    "train_surrogate",
]
