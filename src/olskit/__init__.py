"""olskit: covariance-structured estimation on finite index sets.

Dense linear algebra (pseudoinverse, PSD factors, projectors), covariance
kernels and co-arrays, the least-squares estimator with its risk identities
and Gauss-Markov comparisons, Gaussian conditioning with disintegration
verification, kriging over finite designs, and a maximum-margin classifier
trained as a nearest-point problem between convex hulls.
"""

from .arrays import (
    ArrayDesign,
    KrigeResult,
    TransformSpec,
    fuzzy_classify,
    krige,
    model_from_design,
    restriction_map,
    transform_map,
)
from .disintegration import (
    ConditionalModel,
    DiscreteMeasure,
    conditional_gaussian,
    convolution_sample,
    default_test_functions,
    discrete_convolution,
    disintegration_check,
    residual_model,
    stochastic_ols_sample,
    total_variation,
    uii_counterexample,
)
from .kernels import (
    CoArray,
    IndexedDataset,
    KernelSpec,
    coarray_apply,
    coarray_cov,
    covariance_metric,
    covering_number,
    cross_kernel,
    default_epsilon_grid,
    entropy_integral,
    gram,
    kernel_eval,
    metric_matrix,
)
from .linalg import (
    NotPsdError,
    NumericalError,
    Tolerance,
    pinv,
    psd_factor,
    range_projector,
    spectral_norm,
)
from .model import (
    ContractError,
    FiniteModel,
    GmtReport,
    ObservationMap,
    OlsEstimator,
    RiskReport,
    SupportViolationError,
    contravariance_check,
    delta_norm,
    estimator_delta_norm,
    gmt_compare,
    ols_build,
    ols_estimate,
    operator_norm,
    paley_wiener,
    pushforward,
    random_right_inverse,
    risk,
    sample,
)
from .svm import (
    ConvergenceError,
    MarginReport,
    SeparationError,
    SvmModel,
    SvmProblem,
    decision_values,
    margin_check,
    svm_classify,
    svm_decision,
    svm_train,
    xi_distance,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
