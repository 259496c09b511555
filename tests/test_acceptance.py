"""Acceptance suite: one pass/fail line per criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The heavy trial batches (2e5 runs) are shared between criteria via
module-scoped fixtures; expect a few minutes of wall time.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import poolstream as ps
from poolstream.cli import expected_costs
from poolstream.secretary import optimal_policy
from pool_helpers import (
    BERNOULLI,
    batch,
    complete_pool,
    expected_output,
    first_q_exact_distribution,
    greedy,
    pool_bit_learner,
    run_pool,
    sample_pool,
    success_probability_exact,
)

TRIALS_EQUIV = 200_000


def report(num, ok, desc, detail=""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# Shared heavy batches
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def utility_batches():
    """Secretary-emulator runs on the base-score utility over Unif(0, 1)."""
    out = {}
    for (m, q), seed in (((3, 1), 101), ((4, 2), 102), ((5, 2), 103),
                         ((10, 5), 104)):
        emulator = ps.SecretaryEmulator(greedy(m, q))
        out[(m, q)] = batch(emulator, ps.uniform_interval(), seed, TRIALS_EQUIV)
    return out


@pytest.fixture(scope="module")
def rejection_batches():
    """Rejection-emulator runs on the two equivalence fixtures."""
    discrete = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    out = {}
    for (m, q), seed in (((3, 1), 111), ((4, 2), 112)):
        out[("greedy", m, q)] = batch(
            ps.RejectionEmulator(greedy(m, q)), discrete, seed, TRIALS_EQUIV)
        out[("coded", m, q)] = batch(
            ps.RejectionEmulator(ps.CodedPoolAlgorithm(m, q)),
            ps.two_region_marginal(m), seed + 10, TRIALS_EQUIV)
    return out


# ---------------------------------------------------------------------------
# 1. Secretary machinery equals the permutation brute force exactly
# ---------------------------------------------------------------------------

def brute_force_success(n, threshold):
    wins = 0
    for ranks in itertools.permutations(range(1, n + 1)):
        best_seen = max(ranks[: threshold - 1], default=None)
        for j in range(threshold - 1, n):
            if best_seen is None or ranks[j] > best_seen:
                if ranks[j] == n:
                    wins += 1
                break
    return Fraction(wins, math.factorial(n))


def test_criterion_1_secretary_oracle_equivalence():
    start = time.time()
    ok = True
    for n in range(1, 8):
        policy = optimal_policy(n)
        exact = success_probability_exact(policy)
        brute = brute_force_success(n, policy.threshold)
        best_brute = max(brute_force_success(n, r) for r in range(1, n + 1))
        ok = ok and exact == brute == best_brute
    elapsed = time.time() - start
    report(1, ok and elapsed < 1.0,
           "success probability equals n! brute force for n in [1, 7]",
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Secretary asymptotics at n = 10^4
# ---------------------------------------------------------------------------

def test_criterion_2_secretary_asymptotics():
    start = time.time()
    policy = optimal_policy(10**4)
    p = policy.p_sp
    inv_e = 1.0 / math.e
    gap_p = abs(p - inv_e)
    gap_t = abs(policy.threshold / policy.n - inv_e)
    elapsed = time.time() - start
    report(2, gap_p < 0.01 and gap_t < 0.01 and elapsed < 1.0,
           "p_sp(1e4) and threshold/n within 0.01 of 1/e",
           f"|dp|={gap_p:.5f}, |dt|={gap_t:.5f}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Secretary emulator matches the greedy pool distribution (rank patterns
#    and value bins)
# ---------------------------------------------------------------------------

BINS = 4


def binned(record):
    """A run's selections with each base replaced by its bin among BINS
    equal-mass bins of Unif(0, 1), as a float symbol."""
    return [ps.LabeledPair(ps.Element(float(min(int(p.element.base * BINS), BINS - 1)),
                                      p.element.tiebreak), p.response)
            for p in record.output]


def test_criterion_3_utility_stream_equivalence(utility_batches):
    # The rank pattern of a descending greedy is a point mass; the value bins
    # also test which values are selected, against the greedy pool on the
    # BINS-symbol atomless discretisation.
    canon = ps.RankPattern()
    worst = worst_binned = 0.0
    for m, q in ((3, 1), (4, 2), (5, 2), (10, 5)):
        exact = ps.exact_pool_distribution(greedy(m, q), ps.uniform_interval())
        emp = ps.empirical_distribution(utility_batches[(m, q)], canon)
        worst = max(worst, ps.tv_distance(exact, emp))
        exact = ps.exact_pool_distribution(
            greedy(m, q), ps.uniform_symbols(BINS, atomless=True))
        emp = ps.empirical_distribution(map(binned, utility_batches[(m, q)]),
                                        ps.DiscreteProjection())
        worst_binned = max(worst_binned, ps.tv_distance(exact, emp))
    report(3, worst <= 0.02 and worst_binned <= 0.02,
           "utility-stream vs exact pool rank and value-bin distributions, TV <= 0.02",
           f"worst TV={worst:.4f} by rank, {worst_binned:.4f} by bin "
           f"at {TRIALS_EQUIV} trials")


# ---------------------------------------------------------------------------
# 4. Rejection emulator matches both fixtures' exact distributions
# ---------------------------------------------------------------------------

def test_criterion_4_rejection_equivalence(rejection_batches):
    discrete = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    worst = 0.0
    for m, q in ((3, 1), (4, 2)):
        exact = ps.exact_pool_distribution(greedy(m, q), discrete)
        emp = ps.empirical_distribution(rejection_batches[("greedy", m, q)],
                                        ps.DiscreteProjection())
        worst = max(worst, ps.tv_distance(exact, emp))
        exact2 = ps.two_region_exact_distribution(m, q)
        emp2 = ps.empirical_distribution(rejection_batches[("coded", m, q)],
                                         exact2.projection)
        worst = max(worst, ps.tv_distance(exact2, emp2))
    report(4, worst <= 0.02,
           "rejection emulator vs exact pool distributions, TV <= 0.02",
           f"worst TV={worst:.4f} at {TRIALS_EQUIV} trials")


# ---------------------------------------------------------------------------
# 5. Selection count of the secretary emulator
# ---------------------------------------------------------------------------

def test_criterion_5_selection_formula(utility_batches):
    lines = []
    ok = True
    for m, q in ((4, 2), (10, 5)):
        records = utility_batches[(m, q)]
        mean_sel = float(np.mean([r.n_sel for r in records]))
        stated = q / optimal_policy(m).p_sp
        stated_dev = abs(mean_sel - stated) / stated
        if stated_dev <= 0.03:
            lines.append(f"(m={m},q={q}) flat-horizon formula holds: "
                         f"mean={mean_sel:.4f} vs {stated:.4f}")
            continue
        # Documented fallback: the per-attempt success probability is the
        # one for the round's shrinking horizon m-i+1, so the flat-horizon
        # n_sel formula overshoots; the per-round attempt counts must then
        # match 1/p_sp(m-i+1) within 3% each.
        attempts = np.mean([r.round_attempts for r in records], axis=0)
        per_round_ok = True
        log = []
        for i in range(1, q + 1):
            expected = 1.0 / optimal_policy(m - i + 1).p_sp
            dev = abs(attempts[i - 1] - expected) / expected
            per_round_ok = per_round_ok and dev <= 0.03
            log.append(f"round {i}: attempts={attempts[i - 1]:.4f} "
                       f"expected={expected:.4f} dev={dev:.2%}")
        lines.append(
            f"(m={m},q={q}) flat-horizon formula deviates {stated_dev:.1%} "
            f"(mean={mean_sel:.4f} vs stated={stated:.4f}); "
            "per-round attempt log: " + "; ".join(log))
        ok = ok and per_round_ok
    for line in lines:
        print("    " + line)
    report(5, ok, "selection count: flat-horizon formula or per-round "
                  "attempts within 3%")


# ---------------------------------------------------------------------------
# 6. Iteration bound of the secretary emulator
# ---------------------------------------------------------------------------

def test_criterion_6_utility_iteration_bound(utility_batches):
    ok = True
    details = []
    for m, q in ((4, 2), (10, 5)):
        records = utility_batches[(m, q)]
        est = ps.mean_ci([float(r.n_iter) for r in records])
        bound = q * m * math.exp(q / (m - q)) / optimal_policy(m).p_sp
        ok = ok and est.upper < bound
        details.append(f"(m={m},q={q}) mean={est.mean:.2f}+-{est.half_width:.2f} "
                       f"bound={bound:.2f}")
    report(6, ok, "mean observed elements below the secretary-cost bound "
                  "(CI upper edge)", "; ".join(details))


# ---------------------------------------------------------------------------
# 7. Iteration bound of the rejection emulator
# ---------------------------------------------------------------------------

def test_criterion_7_rejection_iteration_bound(rejection_batches):
    discrete = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    ok = True
    details = []
    for m, q, trials in ((3, 2, 20_000), (4, 2, None), (5, 3, 20_000)):
        if trials is None:
            records = rejection_batches[("greedy", m, q)]
        else:
            records = batch(ps.RejectionEmulator(greedy(m, q)), discrete, 700 + m, trials)
        est = ps.mean_ci([float(r.n_iter) for r in records])
        bound = m * m * (math.e * m / (q - 1)) ** (q - 1)
        ok = ok and est.upper <= bound
        details.append(f"(m={m},q={q}) mean={est.mean:.1f} bound={bound:.1f}")
    # q = 1: acceptance probability is 1/m per redraw by symmetry, so the
    # expected number of observed elements is exactly m^2.
    records = batch(ps.RejectionEmulator(greedy(3, 1)), discrete, 710, 20_000)
    mean1 = float(np.mean([r.n_iter for r in records]))
    ok = ok and abs(mean1 - 9.0) / 9.0 <= 0.05
    details.append(f"(m=3,q=1) mean={mean1:.2f} target=9")
    report(7, ok, "rejection emulator iteration means within analytic bounds",
           "; ".join(details))


# ---------------------------------------------------------------------------
# 8. Exact counter identities, zero tolerance
# ---------------------------------------------------------------------------

def test_criterion_8_counter_identities(utility_batches, rejection_batches):
    dist_atoms = ps.uniform_symbols(3, response_one=BERNOULLI)
    ok = True
    # selection-all emulator: both counters equal the pool size
    for r in batch(ps.NowaitEmulator(greedy(4, 2)),
                   dist_atoms, 801, 10_000):
        ok = ok and r.n_iter == 4 and r.n_sel == 4
    # wait emulator: exactly q reveals
    for r in batch(ps.WaitEmulator(greedy(4, 2)),
                   dist_atoms, 802, 10_000):
        ok = ok and r.n_sel == 2
    # rejection emulator: exactly q reveals on every equivalence batch
    for (_, _, q), records in rejection_batches.items():
        ok = ok and all(r.n_sel == q for r in records)
    # pool protocol: observes m, reveals q
    rng = ps.trial_rng(803, 0)
    dist = ps.uniform_symbols(3, atomless=True, response_one=BERNOULLI)
    for _ in range(2_000):
        record = run_pool(greedy(4, 2), sample_pool(dist, 4, rng))
        ok = ok and record.n_iter == 4 and record.n_sel == 2
    report(8, ok, "counter identities: nowait m/m, wait q, rejection q, pool m/q")


# ---------------------------------------------------------------------------
# 9. Construction fixtures behave exactly as specified
# ---------------------------------------------------------------------------

def test_criterion_9_constructions():
    ok = True
    # bit learner identifies every target index, exhaustively up to q = 8
    for q in range(1, 9):
        T = max(1, math.ceil(math.log2(q)))
        hc = ps.hypothesis_class(q, T, q * (1 << T))
        for target in range(1 << q):
            got, record = pool_bit_learner(hc, complete_pool(hc, target), q)
            ok = ok and got == target and record.n_sel == q
    # permutation coding is uniform for sizes 2..4 within 0.01 per bin
    for size in (2, 3, 4):
        rng = ps.trial_rng(900, size)
        counts = {}
        for u in rng.random(100_000).tolist():
            perm = ps.permutation_from_unit(u, size)
            counts[perm] = counts.get(perm, 0) + 1
        expected = 1.0 / math.factorial(size)
        ok = ok and len(counts) == math.factorial(size)
        ok = ok and all(abs(c / 100_000 - expected) < 0.01
                        for c in counts.values())
    # chain pool algorithm emits the forced output set for every response law
    for q in range(1, 6):
        fixture = _chain_with_alphabet(q, 2 * q - 1)
        m = 2 * q + 1
        alg = ps.GreedyUtilityPool(fixture.utility, m, q)
        for t in range(q + 1):
            law = fixture.dists[t]
            bases = list(range(1, 2 * q)) + [1] * (m - (2 * q - 1))
            pool = [ps.LabeledPair(ps.Element(float(b), (i + 1) / 50),
                                   int(law.prob_one(float(b))))
                    for i, b in enumerate(bases)]
            got = frozenset(int(p.element.base)
                            for p in run_pool(alg, pool).output)
            ok = ok and got == expected_output(fixture, t)
    report(9, ok, "bit learner exhaustive (q <= 8), permutation coding uniform, "
                  "chain outputs forced (q <= 5)")


def _chain_with_alphabet(q, n_min):
    m = 8
    while True:
        try:
            fixture = ps.chain_fixture(m, q)
            if fixture.n >= n_min:
                return fixture
        except ps.InvalidRegime:
            pass
        m += 1


# ---------------------------------------------------------------------------
# 10. Negative control: the equivalence test can discriminate
# ---------------------------------------------------------------------------

def test_criterion_10_negative_control():
    exact_pool = ps.exact_pool_distribution(greedy(4, 2), ps.uniform_interval())
    exact_first_q = first_q_exact_distribution(2)
    tv = ps.tv_distance(exact_pool, exact_first_q)
    report(10, tv > 0.1,
           "first-q selector vs greedy pool distribution has TV > 0.1",
           f"TV={tv:.3f}, both sides exact")


# ---------------------------------------------------------------------------
# 11. Exact cost expectations of the secretary emulator
# ---------------------------------------------------------------------------

def test_criterion_11_secretary_cost_expectations(utility_batches):
    ok = True
    details = []
    for (m, q), records in utility_batches.items():
        ref_sel, ref_iter = expected_costs(m, q)
        mean_sel = float(np.mean([r.n_sel for r in records]))
        mean_iter = float(np.mean([r.n_iter for r in records]))
        ok = (ok and abs(mean_sel - ref_sel) <= 0.03 * ref_sel
              and abs(mean_iter - ref_iter) <= 0.03 * ref_iter)
        details.append(f"(m={m},q={q}) n_sel={mean_sel:.4f} vs {ref_sel:.4f}, "
                       f"n_iter={mean_iter:.2f} vs {ref_iter:.2f}")
    report(11, ok, "secretary mean n_sel and n_iter within 3% of their exact "
                   "expectations", "; ".join(details))
