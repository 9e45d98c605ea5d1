"""equimax: batch prediction losses balancing discriminability and class equity.

Library surface:

* :mod:`equimax.probmat` -- validated row-stochastic matrices, size
  compositions, simplex projection, canonical examples, CSV I/O.
* :mod:`equimax.losses` -- the four losses (ms, bnm, cwsm, nsm), analytic
  gradients, the deterministic SVD, balance metrics.
* :mod:`equimax.oracle` -- brute-force verification of the optimality
  statements behind the losses.
* :mod:`equimax.optimizer` -- multi-start projected gradient ascent and the
  2x2 surface generator.
* :mod:`equimax.toyuda` -- a desk-scale two-domain training experiment.
* :mod:`equimax.cli` -- the ``equimax`` command.
"""

from .losses import (
    GradOutput,
    LossConfig,
    bnm,
    cws,
    discriminability,
    equity_metric,
    gradient,
    loss_value,
    ms,
    ns,
    nuclear_norm,
    svd,
)
from .oracle import (
    TheoremReport,
    balanced_sizes,
    hessian_diag,
    verify_all,
    verify_theorem_1,
    verify_theorem_2,
    verify_theorem_3,
    verify_theorem_4_5,
    verify_theorem_6,
)
from .optimizer import AscentConfig, AscentResult, SurfaceGrid, gradient_profile, maximize, surface
from .probmat import (
    EXAMPLES_2X2,
    EXAMPLES_4X2,
    class_sizes,
    enumerate_size_compositions,
    is_one_hot_rows,
    one_hot_matrix,
    project_rows,
    read_array_csv,
    read_matrix_csv,
    renormalize_rows,
    validate,
    write_json,
    write_matrix_csv,
)
from .toyuda import ToyUdaConfig, ToyUdaResult, train

__version__ = "0.1.0"

__all__ = [
    "AscentConfig",
    "AscentResult",
    "EXAMPLES_2X2",
    "EXAMPLES_4X2",
    "GradOutput",
    "LossConfig",
    "SurfaceGrid",
    "TheoremReport",
    "ToyUdaConfig",
    "ToyUdaResult",
    "balanced_sizes",
    "bnm",
    "class_sizes",
    "cws",
    "discriminability",
    "enumerate_size_compositions",
    "equity_metric",
    "gradient",
    "gradient_profile",
    "hessian_diag",
    "is_one_hot_rows",
    "loss_value",
    "maximize",
    "ms",
    "ns",
    "nuclear_norm",
    "one_hot_matrix",
    "project_rows",
    "read_array_csv",
    "read_matrix_csv",
    "renormalize_rows",
    "surface",
    "svd",
    "train",
    "validate",
    "verify_all",
    "verify_theorem_1",
    "verify_theorem_2",
    "verify_theorem_3",
    "verify_theorem_4_5",
    "verify_theorem_6",
    "write_json",
    "write_matrix_csv",
]
