"""Core protocol tests: sampling, pool runs, stream runs, determinism."""

import bisect
import itertools
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

import poolstream as ps
from poolstream.core import StreamSource


def greedy(m, q, **kw):
    return ps.GreedyUtilityPool(lambda e, h: e.base, m, q, **kw)


BERNOULLI = {0.0: 0.2, 1.0: 0.5, 2.0: 0.8}


class TestDistributions:
    def test_discrete_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ps.DiscreteMarginal((0.0, 1.0), (0.6, 0.5))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            ps.IntervalMarginal(((0.0, 1.0, 1.2), (1.0, 2.0, -0.2)))

    def test_empty_piece_rejected(self):
        with pytest.raises(ValueError):
            ps.IntervalMarginal(((1.0, 1.0, 1.0),))

    def test_constant_law_range(self):
        with pytest.raises(ValueError):
            ps.SourceDistribution(ps.DiscreteMarginal((0.0,), (1.0,)), 1.5)

    def test_mapping_law_defaults_to_zero(self):
        dist = ps.uniform_symbols(3, response_one={2.0: 0.8})
        assert dist.prob_one(2.0) == 0.8
        assert dist.prob_one(0.0) == 0.0
        assert dist.constant_response is None


class TestSampling:
    def test_point_mass_is_deterministic(self):
        src = StreamSource(ps.point_mass(7.0), ps.trial_rng(0, 0))
        element = src.next()
        assert type(element) is ps.Element and element == ps.Element(7.0, 0.0)
        assert src.reveal(element) == 0

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

    def test_stream_source_matches_marginal(self):
        dist = ps.uniform_symbols(2)
        src = StreamSource(dist, ps.trial_rng(5, 0))
        hits = sum(src.next().base == 0.0 for _ in range(10**5))
        assert abs(hits / 10**5 - 0.5) < 0.01
        assert src.n_iter == 10**5 and src.n_sel == 0


class TestPoolProtocol:
    def test_budget_equals_pool_returns_everything(self):
        pool = [ps.LabeledPair(ps.Element(float(i), 0.0), i % 2) for i in range(3)]
        record = ps.run_pool(greedy(3, 3), pool, 3)
        assert sorted(record.output) == sorted(pool)
        # greedy exhausts the pool in score-descending order
        assert [p.element.base for p in record.output] == [2.0, 1.0, 0.0]
        assert record.n_sel == 3 and record.n_iter == 3

    def test_greedy_selection_order(self):
        pool = [ps.LabeledPair(ps.Element(b, 0.0), 0) for b in (0.1, 0.7, 0.4)]
        record = ps.run_pool(greedy(3, 2), pool, 2)
        assert [p.element.base for p in record.output] == [0.7, 0.4]

    def test_out_of_range_index_is_contract_violation(self):
        class Bad(ps.PoolAlgorithm):
            m = 2
            q = 1

            def select_next(self, elements, history, selected):
                return 5

        pool = [ps.LabeledPair(ps.Element(0.0, 0.0), 0)] * 2
        with pytest.raises(ps.ContractViolation):
            ps.run_pool(Bad(), pool, 1)

    def test_repeated_index_is_contract_violation(self):
        class Stuck(ps.PoolAlgorithm):
            m = 2
            q = 2

            def select_next(self, elements, history, selected):
                return 0

        pool = [ps.LabeledPair(ps.Element(float(i), 0.0), 0) for i in range(2)]
        with pytest.raises(ps.ContractViolation):
            ps.run_pool(Stuck(), pool, 2)

    def test_bool_index_is_contract_violation(self):
        # True == 1, so an isinstance(idx, int) check would select index 1.
        class Truthy(ps.PoolAlgorithm):
            m = 2
            q = 1

            def select_next(self, elements, history, selected):
                return True

        pool = [ps.LabeledPair(ps.Element(float(i), 0.0), 0) for i in range(2)]
        with pytest.raises(ps.ContractViolation, match="True"):
            ps.run_pool(Truthy(), pool, 1)

    def test_budget_above_pool_size_rejected(self):
        pool = [ps.LabeledPair(ps.Element(0.0, 0.0), 0)]
        with pytest.raises(ValueError):
            ps.run_pool(greedy(1, 2), pool, 2)


def pool_fixtures():
    chain = ps.chain_fixture(12, 2)
    return [
        ("greedy", greedy(4, 2, tie_break="index"),
         ps.uniform_symbols(3, response_one=BERNOULLI)),
        ("chain", ps.GreedyUtilityPool(chain.utility, 4, 2, tie_break="index"),
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
        pool = ps.sample_pool(dist, 4, rng)
        reference = sorted(p.element for p in ps.run_pool(alg, pool, alg.q).output)
        for perm in itertools.permutations(range(4)):
            shuffled = [pool[i] for i in perm]
            got = sorted(p.element for p in ps.run_pool(alg, shuffled, alg.q).output)
            assert got == reference


class TestStreamProtocol:
    def test_cap_below_minimum_feasible(self):
        with pytest.raises(ps.IterationCapExceeded) as info:
            ps.run_stream(ps.FirstQEmulator(), ps.uniform_symbols(2), 3,
                          ps.trial_rng(7, 0), max_iter=2)
        assert info.value.n_iter == 2
        assert info.value.n_sel == 2
        assert len(info.value.revealed) == 2

    def test_first_q_counters(self):
        record = ps.run_stream(ps.FirstQEmulator(), ps.uniform_symbols(2), 3,
                               ps.trial_rng(8, 0))
        assert record.n_iter == record.n_sel == 3
        assert len(record.output) == 3

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            ps.run_stream(ps.FirstQEmulator(), ps.uniform_symbols(2), 0,
                          ps.trial_rng(9, 0))

    def test_determinism_byte_for_byte(self):
        emulators = [
            ps.RejectionEmulator(greedy(3, 2)),
            ps.SecretaryEmulator(lambda e, h: e.base, 3),
            ps.FirstQEmulator(),
        ]
        dist = ps.uniform_interval()
        for emulator in emulators:
            a = ps.run_stream(emulator, dist, 2, ps.trial_rng(10, 4))
            b = ps.run_stream(emulator, dist, 2, ps.trial_rng(10, 4))
            assert a == b
            assert repr(a) == repr(b)

    def test_pair_revealed_twice_is_contract_violation(self):
        class RevealTwice(ps.StreamEmulator):
            def run(self, source, q):
                element = source.next()
                pair = ps.LabeledPair(element, source.reveal(element))
                source.reveal(element)
                return (pair,) * q

        with pytest.raises(ps.ContractViolation, match="revealed twice"):
            ps.run_stream(RevealTwice(), ps.uniform_interval(), 1, ps.trial_rng(12, 0))

    def test_earlier_element_is_contract_violation(self):
        # A stream algorithm selects only right after observing: once a
        # later element has arrived, an earlier one can no longer be revealed.
        src = StreamSource(ps.uniform_interval(response_one=0.5), ps.trial_rng(12, 1))
        first = src.next()
        second = src.next()
        with pytest.raises(ps.ContractViolation, match="not the element just observed"):
            src.reveal(first)
        response = src.reveal(second)
        with pytest.raises(ps.ContractViolation, match="not the element just observed"):
            src.reveal(first)
        assert src.n_sel == 1
        assert src.revealed == (ps.LabeledPair(second, response),)

    def test_equal_copy_of_the_latest_element_is_contract_violation(self):
        # Under a point mass every draw is equal, yet each is its own
        # element: reveal goes by identity, not by value.
        src = StreamSource(ps.point_mass(3.0), ps.trial_rng(13, 0))
        first, second = src.next(), src.next()
        assert first == second and first is not second
        with pytest.raises(ps.ContractViolation):
            src.reveal(first)
        with pytest.raises(ps.ContractViolation):
            src.reveal(ps.Element(*second))
        assert src.reveal(second) == 0
        with pytest.raises(ps.ContractViolation):
            src.reveal(None)
        third = src.next()
        assert third == second and third is not second
        with pytest.raises(ps.ContractViolation):
            src.reveal(second)
        assert src.reveal(third) == 0
        assert src.n_sel == 2
        assert src.revealed == (ps.LabeledPair(second, 0), ps.LabeledPair(third, 0))
        assert src.revealed[0].element is second and src.revealed[1].element is third

    def test_trial_streams_are_order_independent(self):
        dist = ps.uniform_interval()
        emulator = ps.FirstQEmulator()
        records = [ps.run_stream(emulator, dist, 2, ps.trial_rng(11, t))
                   for t in (3, 1)]
        again = ps.run_stream(emulator, dist, 2, ps.trial_rng(11, 3))
        assert records[0] == again


def test_run_record_invariants_hold_across_emulators():
    dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    emulators = [
        ps.NowaitEmulator(greedy(4, 2)),
        ps.RejectionEmulator(greedy(4, 2)),
        ps.SecretaryEmulator(lambda e, h: e.base, 4),
        ps.FirstQEmulator(),
    ]
    for emulator in emulators:
        for t in range(30):
            record = ps.run_stream(emulator, dist, 2, ps.trial_rng(12, t))
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

    def test_pickled_generator_continues_the_stream(self):
        rng = ps.trial_rng(14, 3)
        rng.random(5)
        copy = pickle.loads(pickle.dumps(rng))
        assert np.array_equal(copy.random(8), rng.random(8))


def reveal_next(src):
    """The next element of ``src`` with its response, as a pair."""
    element = src.next()
    return ps.LabeledPair(element, src.reveal(element))


def test_stream_source_blocks_concatenate():
    # Three uniforms per pair: 2000 pairs cross every block size from 64 up
    # to the 4096 cap, and must match one undivided draw.
    dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    src = StreamSource(dist, ps.trial_rng(15, 2))
    uniforms = iter(ps.trial_rng(15, 2).random(6000).tolist())
    symbols, cum, _ = dist.sampling_table
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
        elif isinstance(law, dict):
            response = int(next(uniforms) < law.get(base, 0.0))
        else:
            response = int(next(uniforms) < law(base))
        pairs.append(ps.LabeledPair(ps.Element(base, tiebreak), response))
    return pairs


DECODER_SOURCES = {
    "two-piece-const": ps.two_region_marginal(4, 0.3),
    "interval-callable": ps.uniform_interval(2.0, 5.0,
                                             response_one=lambda b: (b - 2.0) / 3.0),
    "discrete-callable": ps.hypothesis_class(3, 2, 12).source(5),
    "point-mass": ps.point_mass(7.0, response_one=0.5),
    "int-symbols-mapping": ps.SourceDistribution(
        ps.DiscreteMarginal((0, 1, 2), (0.25, 0.25, 0.5)), {1: 0.9, 2: 0.4},
        atomless=True),
    "law-one": ps.uniform_symbols(4, response_one=1.0),
    "pieces-without-tiebreak": ps.SourceDistribution(
        ps.IntervalMarginal(((-1.0, 0.0, 0.4), (2.0, 2.5, 0.6))), 0.3, atomless=False),
}


@pytest.mark.parametrize("name", DECODER_SOURCES)
def test_block_decoder_matches_scalar_decoder(name):
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


def test_responses_stay_sealed_until_reveal():
    # A response law runs only for revealed elements, once each.
    calls = []

    def law(base):
        calls.append(base)
        return 0.5

    dist = ps.uniform_interval(response_one=law)
    src = StreamSource(dist, ps.trial_rng(18, 0))
    element = src.next()
    assert calls == []
    src.reveal(element)
    assert calls == [element.base]
    for t in range(20):
        calls.clear()
        record = ps.run_stream(ps.SecretaryEmulator(lambda e, h: e.base, 5), dist, 2,
                               ps.trial_rng(18, t))
        assert len(calls) == record.n_sel
        assert record.n_iter > record.n_sel


def test_cap_is_raised_mid_block():
    # Three uniforms per pair: the 100th pair ends inside the third block.
    dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    src = StreamSource(dist, ps.trial_rng(17, 0), max_iter=100)
    revealed = []
    for i in range(100):
        element = src.next()
        if i % 7 == 0:
            revealed.append(ps.LabeledPair(element, src.reveal(element)))
    with pytest.raises(ps.IterationCapExceeded) as info:
        src.next()
    assert (info.value.max_iter, info.value.n_iter, info.value.n_sel) == (100, 100, 15)
    assert info.value.revealed == tuple(revealed)
    assert src.n_iter == 100


def test_import_does_not_load_numpy_random():
    package_root = os.path.dirname(os.path.dirname(ps.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, poolstream; print('numpy.random' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"
