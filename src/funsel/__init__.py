"""funsel: feature selection for functional data via blinded curves.

Pick a small subset of feature functionals whose blinded curves (r-NN
conditional-expectation estimates given just those features) preserve the
output of a statistical procedure: classification, functional PCA, or
functional linear regression.
"""

__version__ = "0.1.0"

from .fdata import FunctionalSample, Grid, center, inner_product, l2_norm
from .features import (
    FeatureMatrix,
    LocalAverage,
    Occupation,
    PathMoment,
    PathNorm,
    PointEval,
    UpCrossings,
    build_feature_matrix,
    feature_label,
    parse_feature,
)
from .blinding import (
    BlindedSample,
    SubsetIndex,
    blind_sample,
    knn_indices,
    neighbor_sets,
)
from .statproc import (
    ClassifierModel,
    FpcaModel,
    FunRegModel,
    ScalarRegModel,
    classify,
    classify_batch,
    fit_classifier,
    fit_fpca,
    fit_functional_regression,
    fit_scalar_regression,
    fpca_scores,
    predict_functional,
    predict_scalar,
)
from .objectives import (
    DegenerateObjectiveError,
    Objective,
    ObjectiveValue,
    h_classification,
    h_pca,
    h_reg_functional,
    h_reg_scalar,
)
from .search import (
    SearchConfig,
    SearchFailure,
    SearchResult,
    exhaustive_step,
    revision_step,
    run_search,
    stochastic_step,
)

__all__ = [
    "__version__",
    "Grid",
    "FunctionalSample",
    "inner_product",
    "l2_norm",
    "center",
    "PointEval",
    "LocalAverage",
    "Occupation",
    "UpCrossings",
    "PathNorm",
    "PathMoment",
    "FeatureMatrix",
    "build_feature_matrix",
    "feature_label",
    "parse_feature",
    "SubsetIndex",
    "BlindedSample",
    "knn_indices",
    "neighbor_sets",
    "blind_sample",
    "FpcaModel",
    "ScalarRegModel",
    "FunRegModel",
    "ClassifierModel",
    "fit_fpca",
    "fpca_scores",
    "fit_scalar_regression",
    "predict_scalar",
    "fit_functional_regression",
    "predict_functional",
    "fit_classifier",
    "classify",
    "classify_batch",
    "Objective",
    "ObjectiveValue",
    "DegenerateObjectiveError",
    "h_classification",
    "h_pca",
    "h_reg_scalar",
    "h_reg_functional",
    "SearchConfig",
    "SearchResult",
    "SearchFailure",
    "exhaustive_step",
    "stochastic_step",
    "revision_step",
    "run_search",
]
