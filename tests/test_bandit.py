import numpy as np
import pytest
from hypothesis import given

from pwbandit import (
    Corpus,
    DescentConfig,
    Dictionary,
    GuessPolicy,
    InitPolicy,
    MixtureWeights,
    estimate,
    initialize_weights,
    new_state,
    record_observation,
    select_guess,
)
from pwbandit.errors import DuplicateGuess, SuccessExceedsPopulation

from helpers import zipf_dictionary
from test_dictionary import entries_st

CHEAP = DescentConfig(max_steps=20)
DICTIONARY_POLICIES = (GuessPolicy.RANDOM_DICTIONARY, GuessPolicy.BEST_DICTIONARY)


def mark_guessed(corpus, state, *words):
    """Exclude ``words`` from selection without recording an outcome."""
    for word in words:
        state.guessed[corpus.vocab_index[word]] = True


@pytest.fixture
def overlap_pair():
    return Corpus((
        Dictionary("d1", (("a", 8), ("b", 2))),
        Dictionary("d2", (("b", 9), ("c", 1))),
    ))


def test_average_init_is_uniform():
    assert initialize_weights(InitPolicy.AVERAGE, 4).q == (0.25, 0.25, 0.25, 0.25)


def test_best_init_passes_previous_through():
    prev = MixtureWeights((0.7, 0.3))
    assert initialize_weights(InitPolicy.BEST, 2, prev=prev) is prev
    assert initialize_weights(InitPolicy.BEST, 2, prev=None).q == (0.5, 0.5)


def test_random_init_requires_rng():
    with pytest.raises(ValueError):
        initialize_weights(InitPolicy.RANDOM, 3)


def test_random_init_is_uniform_on_simplex():
    rng = np.random.default_rng(7)
    draws = np.array(
        [initialize_weights(InitPolicy.RANDOM, 3, rng=rng).q for _ in range(10_000)]
    )
    assert np.all(draws >= 0)
    assert np.allclose(draws.sum(axis=1), 1.0, atol=1e-9)
    # Uniform on the simplex means every component has mean 1/3.
    assert np.allclose(draws.mean(axis=0), 1 / 3, atol=0.01)


def test_by_q_picks_highest_mixture_probability(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    # Q_a = 0.40, Q_b = 0.55, Q_c = 0.05 at (0.5, 0.5), checked by hand
    assert select_guess(GuessPolicy.BY_Q, overlap_pair, state) == "b"
    mark_guessed(overlap_pair, state, "b")
    assert select_guess(GuessPolicy.BY_Q, overlap_pair, state) == "a"
    mark_guessed(overlap_pair, state, "a", "c")
    assert select_guess(GuessPolicy.BY_Q, overlap_pair, state) is None


def test_by_q_tie_breaks_lexicographically():
    c = Corpus((Dictionary("d1", (("zz", 5), ("aa", 5))),))
    state = new_state(c, 10, InitPolicy.AVERAGE, np.random.default_rng(0))
    assert select_guess(GuessPolicy.BY_Q, c, state) == "aa"


def test_by_q_is_invariant_to_count_scale(overlap_pair):
    scaled = Corpus((
        Dictionary("d1", (("a", 8000), ("b", 2000))),
        Dictionary("d2", (("b", 9000), ("c", 1000))),
    ))
    for q in [(0.5, 0.5), (0.9, 0.1), (0.2, 0.8)]:
        s1 = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
        s2 = new_state(scaled, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
        s1.current_estimate = s2.current_estimate = MixtureWeights(q)
        assert select_guess(GuessPolicy.BY_Q, overlap_pair, s1) == select_guess(
            GuessPolicy.BY_Q, scaled, s2
        )


def test_best_dictionary_follows_weights_and_breaks_ties_low(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    # Equal weights: tie goes to the lower dictionary index, whose top word is a.
    assert select_guess(GuessPolicy.BEST_DICTIONARY, overlap_pair, state) == "a"
    state.current_estimate = MixtureWeights((0.1, 0.9))
    assert select_guess(GuessPolicy.BEST_DICTIONARY, overlap_pair, state) == "b"
    mark_guessed(overlap_pair, state, "b", "c")
    # d2 is exhausted, so the pick falls back to d1 regardless of weights.
    assert select_guess(GuessPolicy.BEST_DICTIONARY, overlap_pair, state) == "a"
    mark_guessed(overlap_pair, state, "a")
    assert select_guess(GuessPolicy.BEST_DICTIONARY, overlap_pair, state) is None


def test_random_dictionary_spreads_over_sources(overlap_pair):
    rng = np.random.default_rng(3)
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, rng)
    seen = {select_guess(GuessPolicy.RANDOM_DICTIONARY, overlap_pair, state) for _ in range(50)}
    # With no guesses recorded, only the two dictionary heads are reachable.
    assert seen == {"a", "b"}


def test_random_dictionary_skips_exhausted_sources(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(3))
    mark_guessed(overlap_pair, state, "b", "c")
    for _ in range(10):
        assert select_guess(GuessPolicy.RANDOM_DICTIONARY, overlap_pair, state) == "a"
    mark_guessed(overlap_pair, state, "a")
    assert select_guess(GuessPolicy.RANDOM_DICTIONARY, overlap_pair, state) is None


def test_record_observation_rejects_duplicates(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    record_observation(state, "b", 10, overlap_pair, InitPolicy.AVERAGE, CHEAP)
    with pytest.raises(DuplicateGuess):
        record_observation(state, "b", 1, overlap_pair, InitPolicy.AVERAGE, CHEAP)


def test_record_observation_rejects_overcount(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    record_observation(state, "b", 90, overlap_pair, InitPolicy.AVERAGE, CHEAP)
    with pytest.raises(SuccessExceedsPopulation):
        record_observation(state, "a", 11, overlap_pair, InitPolicy.AVERAGE, CHEAP)
    with pytest.raises(ValueError):
        record_observation(state, "a", -1, overlap_pair, InitPolicy.AVERAGE, CHEAP)


def test_record_observation_updates_state(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    before = state.current_estimate
    record_observation(state, "a", 60, overlap_pair, InitPolicy.AVERAGE, CHEAP)
    assert state.previous_estimate is before
    assert state.history.observations == (("a", 60),)
    assert state.guessed.tolist() == [True, False, False]
    # 60 of 100 users on a word that only d1 ranks highly: weight moves to d1.
    assert state.current_estimate[0] > 0.5


def test_zero_success_still_moves_the_estimate(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    record_observation(state, "a", 0, overlap_pair, InitPolicy.AVERAGE, CHEAP)
    # A miss on d1's top word is evidence against d1.
    assert state.current_estimate[0] < 0.5
    assert state.history.observations == (("a", 0),)


def test_estimates_stay_on_simplex_through_an_attack(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.BEST, np.random.default_rng(5))
    outcomes = {"a": 30, "b": 50, "c": 5}
    for _ in range(3):
        word = select_guess(GuessPolicy.BY_Q, overlap_pair, state)
        record_observation(state, word, outcomes[word], overlap_pair, InitPolicy.BEST, CHEAP)
    assert sum(state.current_estimate) == pytest.approx(1.0, abs=1e-9)
    assert min(state.current_estimate) >= 0
    assert state.guessed.all()


def test_policies_never_repeat_guesses(overlap_pair):
    for policy in GuessPolicy:
        state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(9))
        seen = []
        while (word := select_guess(policy, overlap_pair, state)) is not None:
            seen.append(word)
            record_observation(state, word, 1, overlap_pair, InitPolicy.AVERAGE, CHEAP)
        assert len(seen) == len(set(seen)) == 3


def test_single_dictionary_policies_agree_on_rank_order():
    c = Corpus((Dictionary("only", (("first", 9), ("second", 6), ("third", 1))),))
    for policy in GuessPolicy:
        state = new_state(c, 50, InitPolicy.AVERAGE, np.random.default_rng(1))
        order = []
        while (word := select_guess(policy, c, state)) is not None:
            order.append(word)
            record_observation(state, word, 2, c, InitPolicy.AVERAGE, CHEAP)
        assert order == ["first", "second", "third"]


def test_selection_is_deterministic_given_seed(overlap_pair):
    def run(seed):
        state = new_state(overlap_pair, 100, InitPolicy.RANDOM, np.random.default_rng(seed))
        picks = []
        for successes in (20, 30):
            word = select_guess(GuessPolicy.RANDOM_DICTIONARY, overlap_pair, state)
            picks.append(word)
            record_observation(state, word, successes, overlap_pair, InitPolicy.RANDOM, CHEAP)
        return picks, state.current_estimate.q

    assert run(42) == run(42)


def test_dictionary_policies_walk_rank_order_to_exhaustion():
    c = Corpus((Dictionary("t", (("a", 8), ("b", 2))),))
    for policy in DICTIONARY_POLICIES:
        state = new_state(c, 10, InitPolicy.AVERAGE, np.random.default_rng(0))
        assert select_guess(policy, c, state) == "a"
        mark_guessed(c, state, "a")
        assert select_guess(policy, c, state) == "b"
        mark_guessed(c, state, "b")
        assert select_guess(policy, c, state) is None


@given(entries_st)
def test_dictionary_policies_enumerate_rank_order(counts):
    c = Corpus((Dictionary("t", tuple(counts.items())),))
    for policy in DICTIONARY_POLICIES:
        state = new_state(c, 10, InitPolicy.AVERAGE, np.random.default_rng(0))
        seen = []
        while (word := select_guess(policy, c, state)) is not None:
            seen.append(word)
            mark_guessed(c, state, word)
        assert seen == [w for w, _ in c.dictionaries[0].entries]


def test_state_arrays_are_the_history_one_row_per_guess():
    words = [f"w{i:02d}" for i in range(40)]
    c = Corpus((zipf_dictionary("d1", words), zipf_dictionary("d2", words[::-1])))
    state = new_state(c, 1000, InitPolicy.AVERAGE, np.random.default_rng(0))
    for word in words[:20] + ["not-ranked"]:
        record_observation(state, word, 3, c, InitPolicy.AVERAGE, CHEAP)
        m = len(state.history)
        probs, counts = state.probs[:m], state.counts[:m]
        assert probs.flags.c_contiguous and counts.flags.c_contiguous
        assert np.array_equal(probs, c.probability_rows(state.history.words))
        assert counts.tolist() == [3.0] * m
        # The public estimate on the same history repeats the descent exactly.
        replay, _, _ = estimate(c, state.history, MixtureWeights.uniform(2), CHEAP)
        assert replay == state.current_estimate
    assert state.guessed.sum() == 20
