"""Stochastic submodular maximization with correlated item states.

The library models finite instances with an explicit joint prior over item
states, measures how far the prior is from independence, runs a two-stage
non-adaptive pipeline (continuous greedy ascent plus matroid swap rounding),
and provides exact small-instance oracles for the optimal adaptive policy so
that approximation and adaptivity-gap bounds can be verified empirically.
"""

from .constraints import (
    Constraint,
    ExplicitFamily,
    Knapsack,
    LPSolution,
    PartitionMatroid,
    UniformMatroid,
    is_feasible,
    lp_maximize,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    DegenerateBoundError,
    InputError,
    PolicyError,
    StosubError,
    UnsupportedKindError,
)
from .generators import common_cause_2, generate_common_cause, generate_product
from .greedy import (
    CertificateReport,
    GreedyConfig,
    Trajectory,
    format_trajectory,
    lower_bound_certificate,
    run,
    step,
)
from .independence import (
    GammaWitness,
    IndependenceReport,
    KappaWitness,
    adaptivity_gap_bound,
    gamma,
    kappa,
    ratio_bound,
)
from .model import (
    ExplicitTable,
    Instance,
    JointDistribution,
    Realization,
    UtilityReport,
    WeightedCoverage,
    expected_set_value,
    expected_set_value_exact,
)
from .multilinear import (
    Estimate,
    FractionalPoint,
    estimation_sample_count,
    multilinear_estimate,
    multilinear_value,
    optimistic_weight,
    optimistic_weight_estimate,
    optimistic_weight_estimates,
    optimistic_weights,
    standard_weight,
)
from .policies import (
    Pick,
    Policy,
    STOP,
    Stop,
    UpperBoundCheck,
    best_nonadaptive,
    evaluate_policy,
    optimal_adaptive,
    optimal_upper_bound_check,
    pick,
    policy_is_feasible,
    policy_pick_probabilities,
    virtual_nonadaptive_value,
)
from .rounding import exact_distribution, pipage_round

__version__ = "0.1.0"
