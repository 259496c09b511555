"""Core protocol tests: sampling, pool runs, stream runs, determinism."""

import bisect
import itertools
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import poolstream as ps
from poolstream import cli
from poolstream.core import StreamSource
from pool_helpers import BERNOULLI, greedy, point_mass, run_pool, sample_pool


class TestDistributions:
    def test_discrete_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ps.DiscreteMarginal((0.0, 1.0), (0.6, 0.5))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            ps.IntervalMarginal(((0.0, 1.0, 1.2), (1.0, 2.0, -0.2)))

    @pytest.mark.parametrize("k", [0, -2])
    def test_no_symbols_rejected(self, k):
        with pytest.raises(ValueError, match="non-empty"):
            ps.uniform_symbols(k)

    @pytest.mark.parametrize("marginal", [
        lambda: ps.DiscreteMarginal((0.0, 1.0), (float("nan"), 1.0)),
        lambda: ps.DiscreteMarginal((0.0,), (float("nan"),)),
        lambda: ps.IntervalMarginal(((0.0, 1.0, float("nan")), (1.0, 2.0, 1.0))),
    ], ids=["discrete", "discrete-single", "interval"])
    def test_nan_mass_rejected(self, marginal):
        # Every comparison with NaN is False, so a check must fail on it.
        with pytest.raises(ValueError):
            marginal()

    def test_empty_piece_rejected(self):
        with pytest.raises(ValueError):
            ps.IntervalMarginal(((1.0, 1.0, 1.0),))

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf)])
    def test_unbounded_piece_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="unbounded"):
            ps.IntervalMarginal(((lo, hi, 1.0),))

    def test_constant_law_range(self):
        with pytest.raises(ValueError):
            ps.SourceDistribution(ps.DiscreteMarginal((0.0,), (1.0,)), 1.5)

    @pytest.mark.parametrize("law", ["0.5", None, [0.5], lambda b: 0.5])
    def test_law_of_wrong_type_rejected(self, law):
        with pytest.raises(TypeError):
            ps.uniform_symbols(2, atomless=True, response_one=law)

    @pytest.mark.parametrize("law", [{0.0: 1.5, 1.0: 0.5}, {1.0: -0.1},
                                     {0.0: float("nan")}, float("nan")])
    def test_law_values_range(self, law):
        with pytest.raises(ValueError):
            ps.uniform_symbols(2, atomless=True, response_one=law)

    def test_mapping_law_defaults_to_zero(self):
        dist = ps.uniform_symbols(3, response_one={2.0: 0.8})
        assert dist.prob_one(2.0) == 0.8
        assert dist.prob_one(0.0) == 0.0
        assert isinstance(dist.response_one, dict)


class TestSampling:
    def test_point_mass_is_deterministic(self):
        src = StreamSource(point_mass(7.0), ps.trial_rng(0, 0))
        element = src.next()
        assert type(element) is ps.Element and element == ps.Element(7.0, 0.0)
        assert src.reveal(element).response == 0

    def test_atomless_draws_are_distinct(self):
        src = StreamSource(ps.uniform_symbols(1, atomless=True), ps.trial_rng(1, 0))
        a = src.next()
        b = src.next()
        assert a.base == b.base
        assert a != b

    def test_uniform_two_symbol_frequency(self):
        # Binomial 6-sigma style band at a million draws.
        src = StreamSource(ps.uniform_symbols(2), ps.trial_rng(2, 0))
        hits = sum(src.next().base == 0.0 for _ in range(10**6))
        assert 0.498 <= hits / 10**6 <= 0.502
        assert src.n_iter == 10**6 and src.n_sel == 0

    def test_interval_bases_stay_in_range(self):
        src = StreamSource(ps.uniform_interval(2.0, 5.0), ps.trial_rng(3, 0))
        for _ in range(1000):
            assert 2.0 <= src.next().base < 5.0

    def test_two_piece_masses(self):
        src = StreamSource(ps.two_region_marginal(4), ps.trial_rng(4, 0))
        highs = sum(src.next().base > 1.0 for _ in range(10**5))
        assert abs(highs / 10**5 - 0.25) < 0.01


class TestPoolProtocol:
    def test_budget_equals_pool_returns_everything(self):
        pool = [ps.LabeledPair(ps.Element(float(i), 0.0), i % 2) for i in range(3)]
        record = run_pool(greedy(3, 3), pool)
        assert sorted(record.output) == sorted(pool)
        # greedy exhausts the pool in score-descending order
        assert [p.element.base for p in record.output] == [2.0, 1.0, 0.0]
        assert record.n_sel == 3 and record.n_iter == 3

    def test_greedy_selection_order(self):
        pool = [ps.LabeledPair(ps.Element(b, 0.0), 0) for b in (0.1, 0.7, 0.4)]
        record = run_pool(greedy(3, 2), pool)
        assert [p.element.base for p in record.output] == [0.7, 0.4]

    def test_out_of_range_index_is_contract_violation(self):
        class Bad(ps.PoolAlgorithm):
            def select_next(self, elements, history, selected):
                return 5

        pool = [ps.LabeledPair(ps.Element(0.0, 0.0), 0)] * 2
        with pytest.raises(ps.ContractViolation):
            run_pool(Bad(2, 1), pool)

    def test_repeated_index_is_contract_violation(self):
        class Stuck(ps.PoolAlgorithm):
            def select_next(self, elements, history, selected):
                return 0

        pool = [ps.LabeledPair(ps.Element(float(i), 0.0), 0) for i in range(2)]
        with pytest.raises(ps.ContractViolation):
            run_pool(Stuck(2, 2), pool)

    def test_bool_index_is_contract_violation(self):
        # True == 1, so an isinstance(idx, int) check would select index 1.
        class Truthy(ps.PoolAlgorithm):
            def select_next(self, elements, history, selected):
                return True

        pool = [ps.LabeledPair(ps.Element(float(i), 0.0), 0) for i in range(2)]
        with pytest.raises(ps.ContractViolation, match="True"):
            run_pool(Truthy(2, 1), pool)

    def test_budget_above_pool_size_rejected(self):
        pool = [ps.LabeledPair(ps.Element(0.0, 0.0), 0)]
        with pytest.raises(ValueError):
            run_pool(greedy(1, 2), pool)


# Each shipped pool algorithm as a maker of (m, q).  The learner's budget is
# its class's q; the class is built as a bare record, since hypothesis_class
# refuses q = 0 itself.
POOL_MAKERS = {
    "greedy": greedy,
    "coded": ps.CodedPoolAlgorithm,
    "bit-identification": lambda m, q: ps.BitIdentificationPool(
        ps.HypothesisClass(q, 1, 2 * q, {}, {}), m),
}


@pytest.mark.parametrize("q", [0, 4])
@pytest.mark.parametrize("make", POOL_MAKERS.values(), ids=POOL_MAKERS)
def test_pool_algorithm_refuses_a_budget_outside_one_to_m(make, q):
    # m and q are stated and checked once, where the pool algorithm is built,
    # so no pool run, emulator or exact law can start with a budget its pool
    # cannot hold, and no later refusal blames a correct pool.
    message = "q must be at least 1" if q < 1 else "budget q=4 exceeds pool size m=3"
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(3, q)
    for budget in (1, 3):
        alg = make(3, budget)
        assert (alg.m, alg.q) == (3, budget)


def pool_fixtures():
    chain = ps.chain_fixture(12, 2)
    return [
        ("greedy", greedy(4, 2),
         ps.uniform_symbols(3, response_one=BERNOULLI)),
        ("chain", ps.GreedyUtilityPool(chain.utility, 4, 2),
         chain.dists[1]),
        ("coded", ps.CodedPoolAlgorithm(4, 2), ps.two_region_marginal(4)),
    ]


@pytest.mark.parametrize("name,alg,dist", pool_fixtures(),
                         ids=[f[0] for f in pool_fixtures()])
def test_permutation_invariance(name, alg, dist):
    # All shipped pool algorithms are deterministic, so invariance is exact:
    # permuting the pool must not change the selected value multiset.
    rng = ps.trial_rng(6, 0)
    for _ in range(40):
        pool = sample_pool(dist, 4, rng)
        reference = sorted(p.element for p in run_pool(alg, pool).output)
        for perm in itertools.permutations(range(4)):
            shuffled = [pool[i] for i in perm]
            got = sorted(p.element for p in run_pool(alg, shuffled).output)
            assert got == reference


class TestStreamProtocol:
    def test_cap_below_minimum_feasible(self):
        with pytest.raises(ps.IterationCapExceeded) as info:
            ps.run_stream(ps.FirstQEmulator(greedy(3, 3)), ps.uniform_symbols(2),
                          ps.trial_rng(7, 0), max_iter=2)
        assert info.value.n_iter == 2
        assert info.value.n_sel == 2
        assert len(info.value.revealed) == 2

    def test_first_q_counters(self):
        record = ps.run_stream(ps.FirstQEmulator(greedy(3, 3)), ps.uniform_symbols(2),
                               ps.trial_rng(8, 0))
        assert record.n_iter == record.n_sel == 3
        assert len(record.output) == 3

    def test_determinism_byte_for_byte(self):
        emulators = [
            ps.RejectionEmulator(greedy(3, 2)),
            ps.SecretaryEmulator(greedy(3, 2)),
            ps.FirstQEmulator(greedy(3, 2)),
        ]
        dist = ps.uniform_interval()
        for emulator in emulators:
            a = ps.run_stream(emulator, dist, ps.trial_rng(10, 4))
            b = ps.run_stream(emulator, dist, ps.trial_rng(10, 4))
            assert a == b
            assert repr(a) == repr(b)

    def test_pair_revealed_twice_is_contract_violation(self):
        class RevealTwice(ps.StreamEmulator):
            def run(self, source):
                element = source.next()
                pair = source.reveal(element)
                source.reveal(element)
                return (pair,) * self.pool_alg.q

        with pytest.raises(ps.ContractViolation, match="revealed twice"):
            ps.run_stream(RevealTwice(greedy(1, 1)), ps.uniform_interval(),
                          ps.trial_rng(12, 0))

    def test_earlier_element_is_contract_violation(self):
        # A stream algorithm selects only right after observing: once a
        # later element has arrived, an earlier one can no longer be revealed.
        src = StreamSource(ps.uniform_interval(response_one=0.5), ps.trial_rng(12, 1))
        first = src.next()
        second = src.next()
        with pytest.raises(ps.ContractViolation, match="not the element just observed"):
            src.reveal(first)
        response = src.reveal(second).response
        with pytest.raises(ps.ContractViolation, match="not the element just observed"):
            src.reveal(first)
        assert src.n_sel == 1
        assert src.revealed == (ps.LabeledPair(second, response),)

    def test_equal_copy_of_the_latest_element_is_contract_violation(self):
        # Under a point mass every draw is equal, yet each is its own
        # element: reveal goes by identity, not by value.
        src = StreamSource(point_mass(3.0), ps.trial_rng(13, 0))
        first, second = src.next(), src.next()
        assert first == second and first is not second
        with pytest.raises(ps.ContractViolation):
            src.reveal(first)
        with pytest.raises(ps.ContractViolation):
            src.reveal(ps.Element(*second))
        assert src.reveal(second).response == 0
        with pytest.raises(ps.ContractViolation):
            src.reveal(None)
        third = src.next()
        assert third == second and third is not second
        with pytest.raises(ps.ContractViolation):
            src.reveal(second)
        assert src.reveal(third).response == 0
        assert src.n_sel == 2
        assert src.revealed == (ps.LabeledPair(second, 0), ps.LabeledPair(third, 0))
        assert src.revealed[0].element is second and src.revealed[1].element is third

    def test_reveal_returns_the_pair_it_logs(self):
        src = StreamSource(ps.uniform_interval(response_one=0.5), ps.trial_rng(12, 2))
        for _ in range(3):
            element = src.next()
            pair = src.reveal(element)
            assert pair is src.revealed[-1] and pair.element is element
        assert src.n_sel == 3

    @pytest.mark.parametrize("reveals", [0, 1])
    def test_run_that_revealed_fewer_than_q_is_contract_violation(self, reveals):
        # The emulator returns q pairs, but builds them itself: the response
        # 1 under the constant-0 law was never revealed.
        class Forger(ps.StreamEmulator):
            def run(self, source):
                for _ in range(reveals):
                    source.reveal(source.next())
                return (ps.LabeledPair(source.next(), 1),) * self.pool_alg.q

        with pytest.raises(ps.ContractViolation,
                           match=f"revealed {reveals} responses, fewer than q=2"):
            ps.run_stream(Forger(greedy(2, 2)), ps.uniform_symbols(2), ps.trial_rng(12, 3))

    @pytest.mark.parametrize("forge", [lambda p: ps.LabeledPair(p.element, 1 - p.response),
                                       lambda p: ps.LabeledPair(*p)],
                             ids=["flipped-response", "equal-copy"])
    def test_pair_that_reveal_did_not_return_is_contract_violation(self, forge):
        # Every response is revealed, but the output pairs are built anew:
        # a flipped one carries a response no reveal unsealed.
        class Forger(ps.StreamEmulator):
            def run(self, source):
                return tuple(forge(source.reveal(source.next()))
                             for _ in range(self.pool_alg.q))

        with pytest.raises(ps.ContractViolation, match="was not returned by reveal"):
            ps.run_stream(Forger(greedy(2, 2)), ps.uniform_symbols(2), ps.trial_rng(0, 0))

    def test_pair_returned_twice_is_contract_violation(self):
        # Both pairs are revealed and returned by reveal, but the output
        # holds the first one twice: one selection counted as two.
        class Repeater(ps.StreamEmulator):
            def run(self, source):
                q = self.pool_alg.q
                pairs = [source.reveal(source.next()) for _ in range(q)]
                return (pairs[0],) * q

        with pytest.raises(ps.ContractViolation, match="is returned twice"):
            ps.run_stream(Repeater(greedy(2, 2)), ps.uniform_symbols(2), ps.trial_rng(0, 0))

    def test_trial_streams_are_order_independent(self):
        dist = ps.uniform_interval()
        emulator = ps.FirstQEmulator(greedy(2, 2))
        records = [ps.run_stream(emulator, dist, ps.trial_rng(11, t))
                   for t in (3, 1)]
        again = ps.run_stream(emulator, dist, ps.trial_rng(11, 3))
        assert records[0] == again


def test_run_record_invariants_hold_across_emulators():
    dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    emulators = [
        ps.NowaitEmulator(greedy(4, 2)),
        ps.RejectionEmulator(greedy(4, 2)),
        ps.SecretaryEmulator(greedy(4, 2)),
        ps.FirstQEmulator(greedy(4, 2)),
    ]
    for emulator in emulators:
        for t in range(30):
            record = ps.run_stream(emulator, dist, ps.trial_rng(12, t))
            assert len(record.output) == 2
            assert record.n_iter >= record.n_sel >= 2
            assert all(p.response in (0, 1) for p in record.output)
            # selection without replacement: no element reused
            assert len({p.element for p in record.output}) == 2


class TestTrialRng:
    # 2**96 + 7 makes more entropy words than SeedSequence's 4-word pool.
    SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63 + 11, 2**64 - 1, 2**96 + 7)
    TRIALS = (0, 1, 1023, 1024, 1025, 2**32 - 1, 2**32, 2**32 + 5)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_numpy_seed_sequence_stream(self, seed):
        for trial in self.TRIALS:
            expected = np.random.default_rng(np.random.SeedSequence([seed, trial]))
            assert np.array_equal(ps.trial_rng(seed, trial).random(64),
                                  expected.random(64)), (seed, trial)

    @pytest.mark.parametrize("seed,trial", [(-1, 0), (0, -1), (-5, -5)])
    def test_negative_inputs_raise(self, seed, trial):
        with pytest.raises(ValueError):
            ps.trial_rng(seed, trial)

    @pytest.mark.parametrize("seed,trial", [(1.5, 0), (0, 2.9), (1.0, 0)])
    def test_non_integer_inputs_raise_as_numpy_does(self, seed, trial):
        # int() would truncate 1.5 to seed 1 and 2.9 to trial 2, handing out
        # another key's stream; numpy's SeedSequence refuses them.
        with pytest.raises(TypeError):
            np.random.SeedSequence([seed, trial])
        with pytest.raises(TypeError):
            ps.trial_rng(seed, trial)

    def test_numpy_integer_inputs_are_integers(self):
        expected = np.random.default_rng(np.random.SeedSequence([3, 7])).random(8)
        assert np.array_equal(ps.trial_rng(np.int64(3), np.uint32(7)).random(8), expected)

    def test_trial_seed_hands_out_only_four_uint64_words(self):
        seed_seq = ps.trial_rng(3, 7).bit_generator.seed_seq
        words = seed_seq.generate_state(4, np.uint64)
        assert words.dtype == np.uint64 and words.shape == (4,)
        for dtype in ("uint64", np.dtype("uint64")):
            assert seed_seq.generate_state(4, dtype) is words
        for n_words, dtype in ((8, np.uint64), (4, np.uint32), (4, "uint32"), (4, None)):
            with pytest.raises(ValueError, match="four uint64 words"):
                seed_seq.generate_state(n_words, dtype)
        with pytest.raises(ValueError, match="four uint64 words"):
            seed_seq.generate_state(4)  # SeedSequence's default dtype is uint32

    def test_pickled_generator_continues_the_stream(self):
        rng = ps.trial_rng(14, 3)
        rng.random(5)
        copy = pickle.loads(pickle.dumps(rng))
        assert np.array_equal(copy.random(8), rng.random(8))


def reveal_next(src):
    """The next element of ``src`` with its response, as a pair."""
    return src.reveal(src.next())


def test_stream_source_blocks_concatenate():
    # Three uniforms per pair: 2000 pairs cross every block size from 64 up
    # to the 4096 cap, and must match one undivided draw.
    dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    src = StreamSource(dist, ps.trial_rng(15, 2))
    uniforms = iter(ps.trial_rng(15, 2).random(6000).tolist())
    symbols, cum = dist.sampling_table[:2]
    expected = []
    for _ in range(2000):
        base = symbols[min(np.searchsorted(cum, next(uniforms), "right"), 2)]
        tiebreak = next(uniforms)
        response = int(next(uniforms) < BERNOULLI[base])
        expected.append(ps.LabeledPair(ps.Element(base, tiebreak), response))
    assert [reveal_next(src) for _ in range(2000)] == expected


def scalar_pairs(dist, rng, count):
    """The first ``count`` pairs of ``dist``, decoded one uniform at a time."""
    uniforms = iter(rng.random(3 * count).tolist())
    marginal, law = dist.marginal, dist.response_one
    if dist.is_discrete:
        cum = np.cumsum(marginal.probs).tolist()
    else:
        cum = np.cumsum([piece[2] for piece in marginal.pieces]).tolist()
    pairs = []
    for _ in range(count):
        u = next(uniforms)
        idx = min(bisect.bisect_right(cum, u), len(cum) - 1)
        if dist.is_discrete:
            base = marginal.symbols[idx]
        else:
            lo, hi, mass = marginal.pieces[idx]
            base = lo + min(max((u - (cum[idx] - mass)) / mass, 0.0), 1.0) * (hi - lo)
        tiebreak = next(uniforms) if dist.atomless else 0.0
        if isinstance(law, (int, float)) and law in (0, 1):
            response = int(law)  # a 0/1 constant draws no uniform
        elif isinstance(law, (int, float)):
            response = int(next(uniforms) < law)
        else:
            response = int(next(uniforms) < law.get(base, 0.0))
        pairs.append(ps.LabeledPair(ps.Element(base, tiebreak), response))
    return pairs


DECODER_SOURCES = {
    "two-piece-const": ps.two_region_marginal(4, 0.3),
    "interval-const": ps.uniform_interval(2.0, 5.0, response_one=0.7),
    "discrete-mapping": ps.hypothesis_class(3, 2, 12).source(5),
    "point-mass": point_mass(7.0, response_one=0.5),
    "int-symbols-mapping": ps.SourceDistribution(
        ps.DiscreteMarginal((0, 1, 2), (0.25, 0.25, 0.5)), {1: 0.9, 2: 0.4},
        atomless=True),
    "law-one": ps.uniform_symbols(4, response_one=1.0),
    "pieces-without-tiebreak": ps.SourceDistribution(
        ps.IntervalMarginal(((-1.0, 0.0, 0.4), (2.0, 2.5, 0.6))), 0.3, atomless=False),
}


@pytest.mark.parametrize("name", DECODER_SOURCES)
def test_stream_decoder_matches_scalar_decoder(name):
    # 6000 pairs of one to three uniforms each cross every block size.
    dist = DECODER_SOURCES[name]
    src = StreamSource(dist, ps.trial_rng(16, 1))
    got = [reveal_next(src) for _ in range(6000)]
    expected = scalar_pairs(dist, ps.trial_rng(16, 1), 6000)
    assert got == expected
    assert src.n_iter == src.n_sel == 6000 and src.revealed == tuple(expected)
    for pair, ref in zip(src.revealed, expected):
        assert type(pair) is ps.LabeledPair and type(pair.element) is ps.Element
        assert type(pair.element.base) is type(ref.element.base)
        assert type(pair.response) is int


class ScriptedRng:
    """A generator stand-in whose every draw repeats ``uniforms`` from the start."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, n):
        return np.resize(np.asarray(self.uniforms, dtype=float), n)


@pytest.mark.parametrize("dist", [
    ps.SourceDistribution(ps.DiscreteMarginal(tuple(range(10)), (0.1,) * 10), 0.5),
    ps.SourceDistribution(
        ps.IntervalMarginal(tuple((i, i + 1, 0.1) for i in range(10))), 0.5, True),
], ids=["symbols", "pieces"])
def test_uniforms_beyond_the_last_cumulative_mass(dist):
    # Ten masses of 0.1 add up to 0.9999999999999999, so the largest uniform
    # below 1 lies beyond the last cumulative mass and selects the last index.
    top = np.nextafter(1.0, 0.0)
    rng = ScriptedRng([top, 0.5, top, 0.25, 0.0, top])
    src = StreamSource(dist, rng)
    got = [reveal_next(src) for _ in range(12)]
    assert got == scalar_pairs(dist, rng, 12)
    assert got[0].element.base in (9, 10.0)


@pytest.mark.parametrize("dist", [
    ps.SourceDistribution(
        ps.DiscreteMarginal(tuple(range(11)), (0.1,) * 10 + (0.0,)), 0.5),
    ps.SourceDistribution(
        ps.IntervalMarginal(tuple((i, i + 1, 0.1) for i in range(10)) + ((10, 11, 0.0),)),
        0.5, True),
], ids=["symbols", "pieces"])
def test_zero_mass_last_entry_is_never_drawn(dist):
    # The largest uniform below 1 lies beyond the float sum of the masses;
    # it must select the last entry of positive mass, not the zero-mass one.
    top = np.nextafter(1.0, 0.0)
    src = StreamSource(dist, ScriptedRng([top]))
    for _ in range(100):
        pair = reveal_next(src)
        assert pair.element.base == (9 if dist.is_discrete else 10.0)
        assert pair.response == 0


def assert_table_matches_numpy(dist):
    """``sampling_table``'s cumulative masses equal numpy's ``cumsum`` bit for
    bit, and ``top`` is the index of the last entry of positive mass."""
    marginal = dist.marginal
    masses = (marginal.probs if dist.is_discrete
              else [mass for _, _, mass in marginal.pieces])
    _, cum, _, _, top = dist.sampling_table
    assert [c.hex() for c in cum] == [c.hex() for c in np.cumsum(masses).tolist()]
    assert top == max(i for i, mass in enumerate(masses) if mass > 0)


# Every CLI fixture's source, at the sizes and variants that change its masses.
CLI_SOURCES = [
    *((name, 4, 2, 0) for name in cli._PLAIN_FIXTURES),
    *(("thm3-good-pool", m, 2, 0) for m in (3, 7, 16, 100)),
    *(("thm6-chain", m, 2, v) for m in (8, 24, 64) for v in range(3)),
    *(("ex1-hypotheses", 60, q, v) for q in (2, 3, 5) for v in (0, (1 << q) - 1)),
]


@pytest.mark.parametrize("name,m,q,variant", CLI_SOURCES)
def test_cli_sources_cumulate_as_numpy(name, m, q, variant):
    assert_table_matches_numpy(cli.build_fixture(name, m, q, variant).dist)


@given(st.lists(st.floats(1e-6, 1e3), min_size=1, max_size=40),
       st.integers(0, 5), st.booleans())
@example([1.0] * 10, 2, False)  # ten masses of 0.1 add up to 0.9999999999999999
@example([1.0] * 10, 0, True)
@example([3.0, 1.0, 7.0], 3, True)
def test_cumulative_masses_equal_numpy(weights, zero_tail, pieces):
    total = math.fsum(weights)
    masses = [w / total for w in weights] + [0.0] * zero_tail
    if pieces:
        marginal = ps.IntervalMarginal(tuple((i, i + 1, mass)
                                             for i, mass in enumerate(masses)))
    else:
        marginal = ps.DiscreteMarginal(tuple(float(i) for i in range(len(masses))),
                                       tuple(masses))
    assert_table_matches_numpy(ps.SourceDistribution(marginal, 0.5, atomless=pieces))


def test_responses_stay_sealed_until_reveal():
    # A response law is read only for revealed elements, once each.
    calls = []

    class Spy(dict):
        def get(self, base, default=None):
            calls.append(base)
            return super().get(base, default)

    dist = ps.uniform_interval(response_one=Spy())
    src = StreamSource(dist, ps.trial_rng(18, 0))
    element = src.next()
    assert calls == []
    src.reveal(element)
    assert calls == [element.base]
    for t in range(20):
        calls.clear()
        record = ps.run_stream(ps.SecretaryEmulator(greedy(5, 2)), dist, ps.trial_rng(18, t))
        assert len(calls) == record.n_sel
        assert record.n_iter > record.n_sel


@pytest.mark.parametrize("dist,cap,every,n_sel", [
    # Three uniforms per pair: the 100th pair ends inside the third block.
    (ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI), 100, 7, 15),
    # Two uniforms per pair: the cap meets the end of the first 64-uniform
    # block, of the second, 128-uniform, block, or comes before any draw.
    (ps.two_region_marginal(4), 32, 5, 7),
    (ps.two_region_marginal(4), 96, 5, 20),
    (ps.two_region_marginal(4), 1, 1, 1),
], ids=["width3-cap100", "width2-cap32", "width2-cap96", "width2-cap1"])
def test_cap_is_raised_mid_block(dist, cap, every, n_sel):
    src = StreamSource(dist, ps.trial_rng(17, 0), max_iter=cap)
    uncapped = StreamSource(dist, ps.trial_rng(17, 0))
    revealed = []
    for i in range(cap):
        element = src.next()
        assert element == uncapped.next()
        if i % every == 0:
            revealed.append(src.reveal(element))
    with pytest.raises(ps.IterationCapExceeded) as info:
        src.next()
    assert (info.value.max_iter, info.value.n_iter, info.value.n_sel) == (cap, cap, n_sel)
    assert info.value.revealed == tuple(revealed)
    assert src.n_iter == cap


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports poolstream from here;
    return its stdout."""
    package_root = os.path.dirname(os.path.dirname(ps.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout.strip()


def test_import_secretary_table_and_exact_laws_skip_numpy(tmp_path):
    # The table loads only the secretary submodule and writes its rows
    # without csv.  Records are NamedTuples, so neither dataclasses nor the
    # inspect it imports loads, not even with the exact laws.
    out = tmp_path / "table.csv"
    assert run_fresh(
        "import sys, poolstream, poolstream.cli as cli\n"
        f"assert cli.main(['secretary-table', '--n-max', '300', '--out', {str(out)!r}]) == 0\n"
        "print(*sorted(name for name in sys.modules if name.startswith('poolstream')))\n"
        "skipped = ('numpy', 'fractions', 'decimal', 'dataclasses', 'inspect')\n"
        "print(*(name in sys.modules for name in skipped + ('csv',)))\n"
        "for name in ('greedy-max', 'greedy-max-discrete', 'thm3-good-pool'):\n"
        "    cli.build_fixture(name, 4, 2).exact()\n"
        "print(*(name in sys.modules for name in skipped))"
    ).splitlines() == ["poolstream poolstream.cli poolstream.secretary",
                       "False False False False False False",
                       "False False False False False"]
    assert len(out.read_text().splitlines()) > 300


def test_package_loads_each_submodule_on_first_use():
    assert run_fresh(
        "import sys, importlib, poolstream as ps\n"
        "print(*sorted(name for name in sys.modules if name.startswith('poolstream')))\n"
        "for name in ps.__all__:\n"
        "    home = 'core' if name == 'DEFAULT_MAX_ITER' else ps._HOME[name]\n"
        "    value = getattr(importlib.import_module('poolstream.' + home), name)\n"
        "    assert getattr(ps, name) is value and vars(ps)[name] is value, name\n"
        "print(len(ps.__all__))\n"
        "try:\n"
        "    ps.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)"
    ).splitlines() == ["poolstream", "56",
                       "module 'poolstream' has no attribute 'no_such_name'"]


def test_first_trial_loads_numpy(tmp_path):
    # The deferral happens: a command that draws a stream does load numpy.
    out = tmp_path / "equiv.csv"
    assert run_fresh(
        "import sys, poolstream, poolstream.cli as cli\n"
        "print('numpy' in sys.modules)\n"
        f"cli.main(['equiv-test', '--trials', '2', '--out', {str(out)!r}])\n"
        "print('numpy' in sys.modules)").split() == ["False", "True"]
    assert out.exists()


# A sample of each record type: its maker, a field to assign, and its repr.
RECORD_SAMPLES = [
    (lambda: ps.DiscreteMarginal((0.0, 1.0), (0.5, 0.5)), "probs",
     "DiscreteMarginal(symbols=(0.0, 1.0), probs=(0.5, 0.5))"),
    (lambda: ps.IntervalMarginal(((0.0, 1.0, 1.0),)), "pieces",
     "IntervalMarginal(pieces=((0.0, 1.0, 1.0),))"),
    (lambda: ps.uniform_symbols(2, atomless=True, response_one={1.0: 0.5}), "atomless",
     "SourceDistribution(marginal=DiscreteMarginal(symbols=(0.0, 1.0), probs=(0.5, 0.5)), "
     "response_one={1.0: 0.5}, atomless=True)"),
    (ps.DiscreteProjection, "bucket", "DiscreteProjection()"),
    (ps.RankPattern, "bucket", "RankPattern(bucket=None)"),
    (lambda: ps.OutcomeDistribution({((1.0, 0),): 1.0}, ps.DiscreteProjection(), 50),
     "trials",
     "OutcomeDistribution(support={((1.0, 0),): 1.0}, projection=DiscreteProjection(), "
     "trials=50)"),
    (lambda: ps.MeanEstimate(1.5, 0.25, 10), "mean",
     "MeanEstimate(mean=1.5, half_width=0.25, trials=10)"),
    (lambda: ps.ChainFixture(None, (), 8, 2, 2), "q",
     "ChainFixture(utility=None, dists=(), m=8, q=2, n=2)"),
    (lambda: ps.hypothesis_class(1, 1, 1), "T",
     "HypothesisClass(q=1, T=1, n=1, kj_to_base={(1, 0): 0.0}, base_to_kj={0.0: (1, 0)})"),
    (lambda: ps.optimal_policy(10), "threshold",
     "SecretaryPolicy(n=10, threshold=4, p_sp=0.3986904761904761)"),
    (lambda: cli.Fixture("greedy-max", ps.uniform_interval(), None, None), "dist",
     "Fixture(name='greedy-max', dist=SourceDistribution(marginal=IntervalMarginal("
     "pieces=((0.0, 1.0, 1.0),)), response_one=0.0, atomless=True), pool_alg=None, "
     "exact=None)"),
]


@pytest.mark.parametrize("make,field,text", RECORD_SAMPLES,
                         ids=[r[2].split("(")[0] for r in RECORD_SAMPLES])
def test_record_keeps_its_repr_and_refuses_assignment(make, field, text):
    record = make()
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    # A record is a tuple of its fields, and compares as one.
    # The package binds its names on first access, so they are read here.
    names = {name: getattr(ps, name) for name in ps.__all__} | vars(cli)
    assert record == tuple(record) and record == eval(text, names)


# A valid sample of each checked record, fields its constructor refuses, and
# a field change it refuses.
CHECKED_RECORDS = [
    (lambda: ps.DiscreteMarginal((0.0,), (1.0,)), ((), ()), {"probs": (0.3,)}),
    (lambda: ps.IntervalMarginal(((0.0, 1.0, 1.0),)), ((),),
     {"pieces": ((1.0, 0.0, 1.0),)}),
    (lambda: ps.uniform_symbols(2), (ps.DiscreteMarginal((0.0,), (1.0,)), 2.0, False),
     {"response_one": 2.0}),
]


@pytest.mark.parametrize("make,fields,change", CHECKED_RECORDS,
                         ids=["DiscreteMarginal", "IntervalMarginal", "SourceDistribution"])
def test_make_and_replace_check_fields_as_the_constructor_does(make, fields, change):
    record = make()
    kind = type(record)
    copy = kind._make(record)
    assert copy == record and type(copy) is kind
    with pytest.raises(ValueError):
        kind(*fields)
    with pytest.raises(ValueError):
        kind._make(fields)
    with pytest.raises(ValueError):
        record._replace(**change)
