"""Boosting of additive models, its closed-form paths and its pathologies.

Core pieces: base-learner construction (``design``), loss families
(``losses``), the boosting engine (``boost``), closed-form path oracles
(``closedform``), greedy coordinate descent with quadratic-norm
selection (``gbcd``), convergence-rate certificates (``rates``),
Gaussian location-scale boosting (``distreg``) and a reproducible
experiment harness (``experiments``, ``cli``).
"""

__version__ = "0.1.0"

from .boost import (
    BoostConfig,
    BoostPath,
    SmootherPath,
    divergence_detector,
    fit_block,
    run_boost,
    select_block,
    smoother_boost,
)
from .closedform import (
    ImplicitPenalty,
    boost_limit,
    implicit_penalty,
    linear_boost_path,
    penalized_boost_path,
    ridge_equivalent_lambda,
    ridge_solve,
)
from .design import (
    BlockPartition,
    BlockSpec,
    DesignBlock,
    SplineSpec,
    bspline_basis,
    difference_matrix,
    difference_penalty,
    make_partition,
    pspline_block_spec,
    single_block,
    singleton_blocks,
)
from .distreg import (
    DistBoostResult,
    GaussianLSModel,
    biconvexity_check,
    cyclic_boost_ls,
    gauss_ls_eval,
    gauss_ls_hessian,
)
from .errors import ConfigError, IntegrityError, NumericError
from .gbcd import GbcdConfig, equivalence_check, gbcd_gsq
from .losses import (
    CoxCurvature,
    GradientEval,
    LossSpec,
    binomial,
    coxph,
    evaluate,
    hessian_weights,
    l2,
    loss_value,
    neg_functional_gradient,
    poisson,
)
from .rates import (
    RateReport,
    check_bound,
    hessian_ub_check,
    lipschitz_constant,
    pl_constant,
    rate_general,
    rate_quadratic,
)

__all__ = [name for name in dir() if not name.startswith("_")]
