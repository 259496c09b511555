"""Emulation of pool-based interactive algorithms in a stream-based setting.

Pool algorithms see all m candidate elements before selecting q of them
adaptively; stream algorithms must select (or pass) each element the moment
it arrives.  This package implements stream emulators whose output sets are
distributed identically to a given black-box pool algorithm's, adversarial
fixtures with exactly known behavior, and the exact/empirical machinery to
verify the equivalence and the emulation cost.

``import poolstream`` loads no submodule: each name below is imported from
its submodule on first access (PEP 562), so a command loads only the code
it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The cap on the elements one run observes; here, so that the CLI reads it
#: without loading ``core``.
DEFAULT_MAX_ITER = 10**8

_EXPORTS = {
    "core": (
        "AtomlessDistribution", "ContractViolation", "DiscreteMarginal", "Element",
        "EmulationError", "IntervalMarginal", "IterationCapExceeded", "LabeledPair",
        "PoolAlgorithm", "RunRecord", "SourceDistribution", "StreamEmulator",
        "StreamSource", "TieDetected", "run_stream", "trial_rng", "uniform_interval",
        "uniform_symbols"),
    "secretary": ("InvalidHorizon", "SecretaryPolicy", "optimal_policy", "policy_table"),
    "emulators": (
        "FirstQEmulator", "GreedyUtilityPool", "NowaitEmulator", "RejectionEmulator",
        "SecretaryEmulator", "UtilityFunction", "WaitEmulator"),
    "constructions": (
        "BitIdentificationPool", "ChainFixture", "ChainUtility", "CodedPoolAlgorithm",
        "HypothesisClass", "IncompletePool", "InfeasiblePool", "InvalidRegime",
        "InvalidShape", "chain_fixture", "hypothesis_class", "permutation_from_unit",
        "region_of", "two_region_marginal", "unit_from_permutation"),
    "stats": (
        "DiscreteProjection", "InsufficientSamples", "MeanEstimate",
        "OutcomeDistribution", "RankPattern", "TooLargeToEnumerate",
        "empirical_distribution", "exact_pool_distribution", "mean_ci", "tv_distance",
        "two_region_exact_distribution"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["DEFAULT_MAX_ITER", *_HOME]


def __getattr__(name: str):
    """Import an exported name's submodule and keep the name here, so that
    later lookups are plain attribute reads."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
