"""Emulation of pool-based interactive algorithms in a stream-based setting.

Pool algorithms see all m candidate elements before selecting q of them
adaptively; stream algorithms must select (or pass) each element the moment
it arrives.  This package implements stream emulators whose output sets are
distributed identically to a given black-box pool algorithm's, adversarial
fixtures with exactly known behavior, and the exact/empirical machinery to
verify the equivalence and the emulation cost.
"""

from .core import (
    DEFAULT_MAX_ITER,
    AtomlessDistribution,
    ContractViolation,
    DiscreteMarginal,
    Element,
    EmulationError,
    IntervalMarginal,
    IterationCapExceeded,
    LabeledPair,
    PoolAlgorithm,
    RunRecord,
    SourceDistribution,
    StreamEmulator,
    StreamSource,
    TieDetected,
    run_stream,
    trial_rng,
    uniform_interval,
    uniform_symbols,
)
from .secretary import (
    DuplicateScore,
    InvalidHorizon,
    SecretaryPolicy,
    optimal_policy,
    policy_table,
    secpr,
    success_probability,
)
from .emulators import (
    FirstQEmulator,
    GreedyUtilityPool,
    NowaitEmulator,
    RejectionEmulator,
    SecretaryEmulator,
    UtilityFunction,
    WaitEmulator,
)
from .constructions import (
    BitIdentificationPool,
    ChainFixture,
    ChainUtility,
    CodedPoolAlgorithm,
    HypothesisClass,
    IncompletePool,
    InfeasiblePool,
    InvalidRegime,
    InvalidShape,
    chain_fixture,
    hypothesis_class,
    permutation_from_unit,
    region_of,
    two_region_marginal,
    unit_from_permutation,
)
from .stats import (
    DiscreteProjection,
    InsufficientSamples,
    MeanEstimate,
    OutcomeDistribution,
    RankPattern,
    TooLargeToEnumerate,
    empirical_distribution,
    exact_pool_distribution,
    mean_ci,
    tv_distance,
    two_region_exact_distribution,
    two_region_rank_pattern,
)

__version__ = "0.1.0"
