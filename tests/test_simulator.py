from collections import Counter

import numpy as np
import pytest

from pwbandit import (
    AttackTrace,
    Corpus,
    DescentConfig,
    Dictionary,
    GuessHistory,
    GuessPolicy,
    InitPolicy,
    MixtureWeights,
    PasswordSet,
    TraceRecord,
    average_traces,
    compose_password_set,
    largest_remainder_counts,
    log_likelihood,
    optimal_baseline,
    oracle_count,
    pad_curve,
    run_attack,
)
from pwbandit.errors import DimensionMismatch, EmptyInput

from helpers import assert_trace_dominated, grid_loglik_max, zipf_dictionary

CHEAP = DescentConfig(max_steps=20)


def test_largest_remainder_exact_shares():
    q = MixtureWeights((0.6, 0.3, 0.1))
    assert largest_remainder_counts(q, 10_000) == (6000, 3000, 1000)


def test_largest_remainder_rounds_and_breaks_ties_low():
    # Shares (5.5, 3, 1, 0.5): one leftover unit, remainder tie between
    # indices 0 and 3 goes to index 0. Worked by hand.
    q = MixtureWeights((0.55, 0.30, 0.10, 0.05))
    assert largest_remainder_counts(q, 10) == (6, 3, 1, 0)


@pytest.mark.parametrize("total", [1, 7, 100, 9973])
@pytest.mark.parametrize("seed", range(5))
def test_largest_remainder_is_an_apportionment(total, seed):
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(rng.integers(1, 6)))
    counts = largest_remainder_counts(weights, total)
    assert sum(counts) == total
    assert all(c >= 0 for c in counts)
    # Largest remainder satisfies quota: each count is floor or ceil of its share.
    for c, share in zip(counts, weights * total):
        assert np.floor(share) - 1e-9 <= c <= np.ceil(share) + 1e-9


@pytest.fixture
def disjoint_pair():
    return Corpus((
        Dictionary("d1", (("x1", 5), ("x2", 3), ("x3", 2))),
        Dictionary("d2", (("y1", 6), ("y2", 4))),
    ))


def test_compose_respects_counts_and_supports(disjoint_pair):
    q = MixtureWeights((0.6, 0.4))
    ps = compose_password_set(disjoint_pair, q, 100, seed=11)
    assert ps.size == 100
    assert Counter(ps.source_labels) == {0: 60, 1: 40}
    for pw, label in zip(ps.passwords, ps.source_labels):
        assert disjoint_pair.vocab_probs[disjoint_pair.vocab_index[pw], label] > 0
    assert ps.true_mixture is q


def test_compose_is_deterministic(disjoint_pair):
    q = MixtureWeights((0.5, 0.5))
    first = compose_password_set(disjoint_pair, q, 200, seed=4)
    second = compose_password_set(disjoint_pair, q, 200, seed=4)
    assert first.passwords == second.passwords
    other = compose_password_set(disjoint_pair, q, 200, seed=5)
    assert first.passwords != other.passwords


def test_compose_validates_arguments(disjoint_pair):
    with pytest.raises(DimensionMismatch):
        compose_password_set(disjoint_pair, MixtureWeights((1.0,)), 10, seed=0)
    with pytest.raises(ValueError):
        compose_password_set(disjoint_pair, MixtureWeights((0.5, 0.5)), 0, seed=0)


def test_compose_draw_frequencies_track_the_pmf():
    c = Corpus((Dictionary("d1", (("a", 9), ("b", 1))),))
    ps = compose_password_set(c, MixtureWeights((1.0,)), 10_000, seed=2)
    share = oracle_count(ps, "a") / ps.size
    assert share == pytest.approx(0.9, abs=0.02)


def test_password_set_rejects_mismatched_labels():
    with pytest.raises(ValueError):
        PasswordSet(("a", "b"), MixtureWeights((1.0,)), (0,))
    with pytest.raises(ValueError):
        # Mixture (0.5, 0.5) over 2 users demands one user per source.
        PasswordSet(("a", "b"), MixtureWeights((0.5, 0.5)), (0, 0))
    with pytest.raises(EmptyInput):
        PasswordSet(())


def test_oracle_counts_multiplicity():
    ps = PasswordSet(("a", "b", "a", "a", "c"))
    assert oracle_count(ps, "a") == 3
    assert oracle_count(ps, "c") == 1
    assert oracle_count(ps, "zzz") == 0


def test_optimal_baseline_frozen_curve():
    ps = PasswordSet(("a", "a", "a", "b", "b", "c"))
    assert optimal_baseline(ps, 2) == (3, 5)
    assert optimal_baseline(ps, 6) == (3, 5, 6, 6, 6, 6)


def test_optimal_baseline_breaks_count_ties_lexicographically():
    ps = PasswordSet(("b", "a", "b", "a"))
    assert optimal_baseline(ps, 1) == (2,)
    trace = run_attack(
        Corpus((Dictionary("d", (("a", 1), ("b", 1))),)),
        ps, InitPolicy.AVERAGE, GuessPolicy.BY_Q, 1, CHEAP,
    )
    assert trace.records[0].word == "a"


def test_attack_trace_validates_running_sum():
    est = MixtureWeights((1.0,))
    with pytest.raises(ValueError):
        AttackTrace(
            (TraceRecord("a", 2, 2, est), TraceRecord("b", 1, 4, est)),
            InitPolicy.AVERAGE, GuessPolicy.BY_Q, 0, 2,
        )


def test_run_attack_single_dictionary_matches_baseline():
    c = Corpus((Dictionary("d", (("a", 6), ("b", 3), ("c", 1))),))
    ps = compose_password_set(c, MixtureWeights((1.0,)), 500, seed=8)
    trace = run_attack(c, ps, InitPolicy.AVERAGE, GuessPolicy.BY_Q, 5, CHEAP)
    # Three distinct candidates truncate a five-guess budget.
    assert len(trace.records) == 3
    assert [r.word for r in trace.records] == ["a", "b", "c"]
    assert trace.cumulative_curve == optimal_baseline(ps, 3)
    assert trace.cumulative_curve[-1] == ps.size


def test_run_attack_recovers_a_pure_source(disjoint_pair):
    ps = compose_password_set(disjoint_pair, MixtureWeights((1.0, 0.0)), 200, seed=3)
    trace = run_attack(disjoint_pair, ps, InitPolicy.AVERAGE, GuessPolicy.BY_Q, 5)
    final = trace.records[-1].estimate
    assert final[0] >= 0.95
    # The final estimate should be as good as a grid search over the simplex.
    history = GuessHistory(ps.size, tuple((r.word, r.successes) for r in trace.records))
    grid_max, _ = grid_loglik_max(disjoint_pair, history, pitch=0.01)
    assert log_likelihood(disjoint_pair, final, history) >= grid_max - 1e-3


def test_run_attack_is_deterministic(disjoint_pair):
    ps = compose_password_set(disjoint_pair, MixtureWeights((0.7, 0.3)), 300, seed=21)
    first = run_attack(disjoint_pair, ps, InitPolicy.RANDOM, GuessPolicy.RANDOM_DICTIONARY,
                       4, CHEAP, seed=17)
    second = run_attack(disjoint_pair, ps, InitPolicy.RANDOM, GuessPolicy.RANDOM_DICTIONARY,
                        4, CHEAP, seed=17)
    assert first == second


def test_run_attack_rejects_zero_budget(disjoint_pair):
    ps = compose_password_set(disjoint_pair, MixtureWeights((0.7, 0.3)), 10, seed=0)
    with pytest.raises(ValueError):
        run_attack(disjoint_pair, ps, InitPolicy.AVERAGE, GuessPolicy.BY_Q, 0, CHEAP)


def test_no_trace_beats_the_optimal_baseline():
    corpus = Corpus((
        zipf_dictionary("z1", [f"a{i}" for i in range(20)]),
        zipf_dictionary("z2", [f"a{i}" for i in range(10, 30)]),
    ))
    ps = compose_password_set(corpus, MixtureWeights((0.5, 0.5)), 400, seed=6)
    for policy in GuessPolicy:
        for seed in range(3):
            trace = run_attack(corpus, ps, InitPolicy.BEST, policy, 15, CHEAP, seed=seed)
            assert_trace_dominated(trace, ps)


def _trace(curve, budget):
    est = MixtureWeights((1.0,))
    records = []
    prev = 0
    for i, c in enumerate(curve):
        records.append(TraceRecord(f"w{i}", c - prev, c, est))
        prev = c
    return AttackTrace(tuple(records), InitPolicy.AVERAGE, GuessPolicy.BY_Q, 0, budget)


def test_average_traces_arithmetic():
    assert average_traces([_trace((2, 4), 2)]) == (2.0, 4.0)
    assert average_traces([_trace((2, 4), 2), _trace((4, 4), 2)]) == (3.0, 4.0)


def test_average_traces_pads_short_runs():
    # The short run holds its final value while the longer one continues.
    assert average_traces([_trace((2,), 3), _trace((1, 3, 6), 3)]) == (1.5, 2.5, 4.0)
    with pytest.raises(EmptyInput):
        average_traces([])


def test_average_traces_over_random_runs(disjoint_pair):
    ps = compose_password_set(disjoint_pair, MixtureWeights((0.6, 0.4)), 100, seed=9)
    traces = [
        run_attack(disjoint_pair, ps, InitPolicy.RANDOM, GuessPolicy.RANDOM_DICTIONARY,
                   4, CHEAP, seed=s)
        for s in range(50)
    ]
    mean = average_traces(traces)
    finals = [t.cumulative_curve[-1] for t in traces]
    assert len(mean) == 4
    assert min(finals) <= mean[-1] <= max(finals)
    assert list(mean) == sorted(mean)


def test_pad_curve():
    assert pad_curve((1.0, 2.0), 4) == (1.0, 2.0, 2.0, 2.0)
    assert pad_curve((), 3) == (0.0, 0.0, 0.0)
    assert pad_curve((5.0, 6.0, 7.0), 2) == (5.0, 6.0)
