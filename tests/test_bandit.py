import copy
import math
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwbandit import (
    Corpus,
    Dictionary,
    GuessHistory,
    GuessPolicy,
    InitPolicy,
    MixtureWeights,
    compose_password_set,
    estimate,
    initialize_weights,
    new_state,
    oracle_count,
    record_observation,
    select_guess,
)
from pwbandit import bandit, log_likelihood, run_attack
from pwbandit.errors import DuplicateGuess, SuccessExceedsPopulation
from pwbandit.mixture import HistoryArrays

from helpers import overlap_corpus, zipf_dictionary
from test_dictionary import entries_st

DICTIONARY_POLICIES = (GuessPolicy.RANDOM_DICTIONARY, GuessPolicy.BEST_DICTIONARY)


def mark_guessed(corpus, state, *words):
    """Exclude ``words`` from selection without recording an outcome."""
    for word in words:
        state.guessed[corpus.row(word)] = True


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


def test_init_and_selection_reject_bad_arguments(overlap_pair):
    with pytest.raises(ValueError):
        initialize_weights(InitPolicy.AVERAGE, 0)
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown guess policy: 'by-q'"):
        select_guess("by-q", overlap_pair, state)
    # With every word guessed the members return None; a non-member still raises.
    mark_guessed(overlap_pair, state, "a", "b", "c")
    assert all(select_guess(policy, overlap_pair, state) is None for policy in GuessPolicy)
    with pytest.raises(ValueError, match="unknown guess policy: 'by-q'"):
        select_guess("by-q", overlap_pair, state)


def test_an_init_policy_that_is_not_a_member_is_rejected_before_any_draw(overlap_pair):
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    for rng_arg in (rng, None):
        with pytest.raises(ValueError, match="unknown init policy: 'average'"):
            initialize_weights("average", 3, rng=rng_arg)
    assert rng.bit_generator.state == before
    ps = compose_password_set(overlap_pair, MixtureWeights((0.5, 0.5)), 20, seed=1)
    with pytest.raises(ValueError, match="unknown init policy: 'average'"):
        run_attack(overlap_pair, ps, "average", GuessPolicy.BY_Q, 2, seed=0)


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


def by_q_reference(corpus, state):
    """The whole-vocabulary formula: first argmax of vocab_probs @ q over unguessed rows."""
    scores = corpus.vocab_probs @ np.asarray(state.current_estimate)
    scores[state.guessed] = -np.inf
    best = int(np.argmax(scores))
    return None if state.guessed[best] else corpus.union_vocabulary[best]


@contextmanager
def always_walk():
    """by-q takes the threshold walk whatever the vocabulary size and however
    many rows the walk keeps."""
    with mock.patch.object(bandit, "_FULL_SCORE_ENTRIES", 0), \
            mock.patch.object(bandit, "_WALK_SHARE", 0):
        yield


@st.composite
def by_q_states(draw):
    """A corpus over a pool of 8 words with counts 1-3, so that counts tie and
    words share dictionaries (often with equal probability rows); a q with
    exact zeros; and a state with random guessed words, cursors anywhere up to
    each dictionary's first unguessed word."""
    pool = [f"w{j}" for j in range(8)]
    dictionaries = []
    for i in range(draw(st.integers(1, 4))):
        words = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
        counts = draw(st.lists(st.integers(1, 3), min_size=len(words), max_size=len(words)))
        dictionaries.append(Dictionary(f"d{i}", tuple(zip(words, counts))))
    corpus = Corpus(tuple(dictionaries))
    n, size = len(corpus), len(corpus.union_vocabulary)
    raw = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.25, 1 / 3, 0.5, 0.7, 1.0])
                        | st.floats(0.0, 1.0), min_size=n, max_size=n).filter(any))
    state = new_state(corpus, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    state.current_estimate = MixtureWeights(np.array(raw) / sum(raw))
    state.guessed[:] = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    for i, rows in enumerate(corpus.ranked_rows):
        first = next((r for r, v in enumerate(rows) if not state.guessed[v]), len(rows))
        state.cursors[i] = draw(st.integers(0, first))
    return corpus, state


@given(by_q_states())
def test_by_q_walk_equals_the_whole_vocabulary_formula(case):
    corpus, state = case
    with always_walk():
        while True:
            expected = by_q_reference(corpus, state)
            assert select_guess(GuessPolicy.BY_Q, corpus, state) == expected
            if expected is None:
                break
            mark_guessed(corpus, state, expected)


@pytest.fixture
def full_scores(monkeypatch):
    """Counts by-q's calls of the whole-vocabulary product."""
    calls = []
    score_all = bandit._best_of_all_rows
    monkeypatch.setattr(bandit, "_best_of_all_rows",
                        lambda *args: calls.append(1) or score_all(*args))
    return calls


def test_by_q_walk_picks_every_guess_of_an_attack_on_a_large_vocabulary(full_scores):
    # Three overlapping 20,000-word lists: the walk keeps a few dozen of about
    # 29,000 rows per guess, so every guess takes the pruned path, and none
    # scores the whole vocabulary.
    rng = np.random.default_rng(5)
    pool = [f"w{j:05d}" for j in range(30_000)]
    corpus = Corpus(tuple(zipf_dictionary(f"d{i}", rng.permutation(pool)[:20_000].tolist(),
                                          exponent=0.9) for i in range(3)))
    assert corpus.vocab_probs.size > bandit._FULL_SCORE_ENTRIES
    ps = compose_password_set(corpus, MixtureWeights((0.5, 0.3, 0.2)), 20_000, seed=3)
    state = new_state(corpus, ps.size, InitPolicy.RANDOM, np.random.default_rng(9))
    for _ in range(200):
        word = select_guess(GuessPolicy.BY_Q, corpus, state)
        assert word == by_q_reference(corpus, state)
        record_observation(state, word, oracle_count(ps, word), corpus, InitPolicy.RANDOM)
    assert not full_scores
    assert len(set(state.history.words)) == 200


def test_by_q_scores_every_row_where_the_walk_keeps_too_many(full_scores):
    # One flat 40,000-word list: every word has the head's probability, so
    # the walk keeps every row and by-q takes the whole-vocabulary product.
    corpus = Corpus((Dictionary("flat", tuple((f"w{j:05d}", 1) for j in range(40_000))),))
    assert corpus.vocab_probs.size > bandit._FULL_SCORE_ENTRIES
    state = new_state(corpus, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    assert select_guess(GuessPolicy.BY_Q, corpus, state) == "w00000"
    assert by_q_reference(corpus, state) == "w00000"
    assert len(full_scores) == 1


def test_by_q_settles_ties_between_one_dictionary_words_without_the_full_product(full_scores):
    # Two 20,000-word lists with the same counts and no word in common: at
    # q = (0.5, 0.5) the two words of each rank tie exactly, and each is
    # ranked by one dictionary alone, so the walk's scores are exact.
    corpus = Corpus((zipf_dictionary("d1", [f"b{j:05d}" for j in range(20_000)]),
                     zipf_dictionary("d2", [f"a{j:05d}" for j in range(20_000)])))
    assert corpus.vocab_probs.size > bandit._FULL_SCORE_ENTRIES
    state = new_state(corpus, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    words = []
    for _ in range(6):
        words.append(select_guess(GuessPolicy.BY_Q, corpus, state))
        assert words[-1] == by_q_reference(corpus, state)
        mark_guessed(corpus, state, words[-1])
    assert words == ["a00000", "b00000", "a00001", "b00001", "a00002", "b00002"]
    assert not full_scores


def test_by_q_settles_a_near_tie_with_a_shared_word_by_the_full_product(full_scores):
    # The same lists plus a word s that both rank, with half the head's
    # count: at q = (0.5, 0.5) s scores as the heads do up to rounding, and
    # the order of its two terms may round it either way.
    d1 = zipf_dictionary("d1", [f"b{j:05d}" for j in range(20_000)])
    d2 = zipf_dictionary("d2", [f"a{j:05d}" for j in range(20_000)])
    corpus = Corpus((Dictionary("d1", tuple(zip(d1.words, d1.counts)) + (("s", 500_000),)),
                     Dictionary("d2", tuple(zip(d2.words, d2.counts)) + (("s", 500_000),))))
    state = new_state(corpus, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    assert select_guess(GuessPolicy.BY_Q, corpus, state) == "a00000"
    assert by_q_reference(corpus, state) == "a00000"
    assert len(full_scores) == 1


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


def assert_rejected(corpus, state, word, successes, error):
    """``record_observation`` raises ``error`` naming ``word`` and leaves the
    state as it was."""
    history, size, guessed = state.history, len(state.observed), state.guessed.copy()
    estimate = state.current_estimate
    with pytest.raises(error, match=repr(word)):
        record_observation(state, word, successes, corpus, InitPolicy.AVERAGE)
    assert state.history == history and len(state.observed) == size
    assert np.array_equal(state.guessed, guessed) and state.current_estimate is estimate


def test_record_observation_rejects_duplicates(overlap_pair):
    for word in ("b", "unranked"):
        state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
        record_observation(state, word, 10, overlap_pair, InitPolicy.AVERAGE)
        assert_rejected(overlap_pair, state, word, 1, DuplicateGuess)
        # the next valid guess still works
        record_observation(state, "c", 1, overlap_pair, InitPolicy.AVERAGE)
        assert state.history.observations == ((word, 10), ("c", 1))
        assert len(state.observed) == 2


def test_record_observation_rejects_overcount(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    record_observation(state, "b", 90, overlap_pair, InitPolicy.AVERAGE)
    assert_rejected(overlap_pair, state, "a", 11, SuccessExceedsPopulation)
    for successes in (-1, 2.5, 2.0, np.float64(2.0), True, np.True_, "2", None):
        assert_rejected(overlap_pair, state, "a", successes, ValueError)
    # numpy integers are integers; the next valid guess cracks the last users
    record_observation(state, "a", np.int64(10), overlap_pair, InitPolicy.AVERAGE)
    assert state.history.observations == (("b", 90), ("a", 10))
    assert type(state.history.observations[1][1]) is int
    assert state.observed == {"b": 90, "a": 10} and type(state.observed["a"]) is int
    assert (len(state.observed), state.arrays.successes) == (2, 100)
    assert state.guessed.tolist() == [True, True, False]


def test_record_observation_updates_state(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    before = state.current_estimate
    record_observation(state, "a", 60, overlap_pair, InitPolicy.AVERAGE)
    assert state.previous_estimate is before
    assert state.history.observations == (("a", 60),)
    assert state.guessed.tolist() == [True, False, False]
    # 60 of 100 users on a word that only d1 ranks highly: weight moves to d1.
    assert state.current_estimate[0] > 0.5


def test_zero_success_still_moves_the_estimate(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(0))
    record_observation(state, "a", 0, overlap_pair, InitPolicy.AVERAGE)
    # A miss on d1's top word is evidence against d1.
    assert state.current_estimate[0] < 0.5
    assert state.history.observations == (("a", 0),)


def test_estimates_stay_on_simplex_through_an_attack(overlap_pair):
    state = new_state(overlap_pair, 100, InitPolicy.BEST, np.random.default_rng(5))
    outcomes = {"a": 30, "b": 50, "c": 5}
    for _ in range(3):
        word = select_guess(GuessPolicy.BY_Q, overlap_pair, state)
        record_observation(state, word, outcomes[word], overlap_pair, InitPolicy.BEST)
    assert sum(state.current_estimate) == pytest.approx(1.0, abs=1e-9)
    assert min(state.current_estimate) >= 0
    assert state.guessed.all()


def test_policies_never_repeat_guesses(overlap_pair):
    for policy in GuessPolicy:
        state = new_state(overlap_pair, 100, InitPolicy.AVERAGE, np.random.default_rng(9))
        seen = []
        while (word := select_guess(policy, overlap_pair, state)) is not None:
            seen.append(word)
            record_observation(state, word, 1, overlap_pair, InitPolicy.AVERAGE)
        assert len(seen) == len(set(seen)) == 3


def test_single_dictionary_policies_agree_on_rank_order():
    c = Corpus((Dictionary("only", (("first", 9), ("second", 6), ("third", 1))),))
    for policy in GuessPolicy:
        state = new_state(c, 50, InitPolicy.AVERAGE, np.random.default_rng(1))
        order = []
        while (word := select_guess(policy, c, state)) is not None:
            order.append(word)
            record_observation(state, word, 2, c, InitPolicy.AVERAGE)
        assert order == ["first", "second", "third"]


def test_selection_is_deterministic_given_seed(overlap_pair):
    def run(seed):
        state = new_state(overlap_pair, 100, InitPolicy.RANDOM, np.random.default_rng(seed))
        picks = []
        for successes in (20, 30):
            word = select_guess(GuessPolicy.RANDOM_DICTIONARY, overlap_pair, state)
            picks.append(word)
            record_observation(state, word, successes, overlap_pair, InitPolicy.RANDOM)
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
        assert seen == list(c.dictionaries[0].words)


def test_state_arrays_are_the_history_one_row_per_guess():
    words = [f"w{i:02d}" for i in range(40)]
    c = Corpus((zipf_dictionary("d1", words), zipf_dictionary("d2", words[::-1])))
    guesses = [(word, 3) for word in words[:20]] + [("w20", 0), ("not-ranked", 5), ("w21", 3)]
    for init in InitPolicy:
        state = new_state(c, 1000, init, np.random.default_rng(0))
        snapshots = []
        for word, successes in guesses:
            before = copy.deepcopy(state.rng)
            record_observation(state, word, successes, c, init)
            snapshots.append(state.history)
            # the start record_observation drew, from a copy of the generator
            start = initialize_weights(init, 2, prev=state.previous_estimate, rng=before)
            arrays, observations = state.arrays, state.history.observations
            assert list(state.observed.items()) == guesses[:len(observations)]
            assert arrays.successes == sum(s for _, s in observations)
            rows = c.probability_rows(state.history.words)
            assert np.array_equal(arrays.prob_totals, np.cumsum(rows, axis=0)[-1])
            # the live categories are the rows of the guesses with successes
            # that some dictionary ranks, in guess order
            cats, weight, _ = arrays.categories()
            live = [(w, s) for w, s in observations if s > 0 and w != "not-ranked"]
            assert cats.flags.c_contiguous and arrays.live == len(live)
            assert np.array_equal(cats[:arrays.live], c.probability_rows(w for w, _ in live))
            assert weight[:arrays.live].tolist() == [s for _, s in live]
            # The public estimate on the same history repeats the descent exactly.
            replay, _, _ = estimate(c, state.history, start)
            assert replay == state.current_estimate
        assert state.guessed.sum() == 22
        # each history read is a copy that later guesses leave as it was
        for j, snapshot in enumerate(snapshots, start=1):
            assert snapshot == GuessHistory(1000, tuple(guesses[:j]))


def test_an_attack_sums_nothing_over_its_history(monkeypatch):
    # record_observation and maximize work from the running totals, so a
    # guess costs the same however long the history is: an attack neither
    # rebuilds its arrays nor looks up the rows of its history, and it keeps
    # no log-likelihood constant, so it takes no math.log. The public
    # functions do all three: here for each guess in a merged category.
    corpus = overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000)
    ps = compose_password_set(corpus, MixtureWeights((0.6, 0.3, 0.1)), 10_000, seed=42)
    calls = []
    of, rows, log = HistoryArrays.of.__func__, Corpus.probability_rows, math.log
    monkeypatch.setattr(HistoryArrays, "of", classmethod(
        lambda cls, *args: calls.append("of") or of(cls, *args)))
    monkeypatch.setattr(Corpus, "probability_rows",
                        lambda self, words: calls.append("rows") or rows(self, words))
    monkeypatch.setattr(math, "log", lambda x: calls.append("log") or log(x))
    trace = run_attack(corpus, ps, InitPolicy.BEST, GuessPolicy.BY_Q, 1000, seed=0)
    assert len(trace.words) == 1000 and calls == []
    history = GuessHistory(ps.size, tuple(zip(trace.words, trace.counts[:, 0].tolist())))
    log_likelihood(corpus, trace.estimates[-1], history)
    assert calls[:2] == ["of", "rows"] and set(calls[2:]) == {"log"}


def by_hand(corpus, ps, init, guess, m, seed):
    """An attack driven through the public per-guess functions, as
    ``perfbench/harness.py`` drives one: its words, successes and estimates."""
    state = new_state(corpus, ps.size, init, np.random.default_rng(seed))
    words, successes, estimates = [], [], []
    for _ in range(m):
        word = select_guess(guess, corpus, state)
        if word is None:
            break
        successes.append(oracle_count(ps, word))
        record_observation(state, word, successes[-1], corpus, init)
        words.append(word)
        estimates.append(state.current_estimate.q)
    return tuple(words), successes, np.array(estimates)


@pytest.mark.parametrize("n", [3, 4])
def test_run_attack_is_the_public_per_guess_path_bit_for_bit(n):
    # run_attack hands each selected row to the observation step and checks
    # its policies once; select_guess and record_observation look the word up
    # and check them on every guess. Both must make the same guesses and
    # estimates, to the last bit, including a budget past the vocabulary.
    weights = (0.5, 0.3, 0.2) if n == 3 else (0.4, 0.3, 0.2, 0.1)
    for corpus, m in ((overlap_corpus(n, 60, 20, exponent=0.4, seed=1000), 40),
                      (overlap_corpus(n, 8, 3, exponent=0.4, seed=7), 50)):
        ps = compose_password_set(corpus, MixtureWeights(weights), 2_000, seed=42)
        for init in InitPolicy:
            for guess in GuessPolicy:
                trace = run_attack(corpus, ps, init, guess, m, seed=3)
                words, successes, estimates = by_hand(corpus, ps, init, guess, m, seed=3)
                assert trace.words == words
                assert trace.counts[:, 0].tolist() == successes
                assert trace.estimates.tobytes() == estimates.tobytes()
        assert len(words) == min(m, len(corpus.union_vocabulary))
    assert len(words) == len(corpus.union_vocabulary) < m


def test_an_attack_looks_up_no_word_and_values_no_start(monkeypatch):
    # run_attack hands the row that selection took to the observation step,
    # builds one MixtureWeights per guess (the estimate) besides the state's
    # first estimate, and computes no log-likelihood: its descents need only
    # the gains.
    corpus = overlap_corpus(3, 200, 80, exponent=0.4, seed=1000)
    ps = compose_password_set(corpus, MixtureWeights((0.6, 0.3, 0.1)), 10_000, seed=42)
    calls = Counter()
    row, post_init, log = Corpus.row, MixtureWeights.__post_init__, np.log
    monkeypatch.setattr(Corpus, "row", lambda self, word: calls.update(["row"]) or row(self, word))
    monkeypatch.setattr(MixtureWeights, "__post_init__",
                        lambda self: calls.update(["weights"]) or post_init(self))
    monkeypatch.setattr(np, "log", lambda *args, **kwargs: calls.update(["log"])
                        or log(*args, **kwargs))
    for init in InitPolicy:
        for guess in GuessPolicy:
            calls.clear()
            guesses = len(run_attack(corpus, ps, init, guess, 60, seed=1).words)
            assert guesses == 60 and calls["row"] == calls["log"] == 0
            assert calls["weights"] == 1 + guesses
    # The public functions still look the word up and value the start.
    state = new_state(corpus, ps.size, InitPolicy.AVERAGE, np.random.default_rng(0))
    word = select_guess(GuessPolicy.BY_Q, corpus, state)
    record_observation(state, word, oracle_count(ps, word), corpus, InitPolicy.AVERAGE)
    estimate(corpus, state.history, MixtureWeights.uniform(3))
    assert calls["row"] >= 1 and calls["log"] >= 1
