"""Attack state and the explore/exploit policies built on the mixture MLE.

Three ways to initialize each descent (random simplex point, uniform 1/n,
or warm start from the previous estimate) and three ways to pick the next
guess (random dictionary, highest-weight dictionary, or the word with the
highest estimated mixture probability).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dictionary import Corpus
from .mixture import DescentConfig, GuessHistory, MixtureWeights, maximize


class InitPolicy(Enum):
    RANDOM = "random"
    AVERAGE = "average"
    BEST = "best"


class GuessPolicy(Enum):
    RANDOM_DICTIONARY = "random-dict"
    BEST_DICTIONARY = "best-dict"
    BY_Q = "by-q"


def initialize_weights(policy: InitPolicy, n: int,
                       prev: MixtureWeights | None = None,
                       rng: np.random.Generator | None = None) -> MixtureWeights:
    """Starting point for a descent under the given policy.

    RANDOM draws uniformly from the simplex (normalized standard-exponential
    components). BEST returns ``prev``, falling back to the uniform point
    when no previous estimate exists.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 dictionaries, got {n}")
    if policy is InitPolicy.AVERAGE:
        return MixtureWeights.uniform(n)
    if policy is InitPolicy.BEST:
        return prev if prev is not None else MixtureWeights.uniform(n)
    if rng is None:
        raise ValueError("random initialization needs an rng")
    draws = rng.standard_exponential(n)
    return MixtureWeights(draws / draws.sum())


@dataclass
class BanditState:
    """Everything one attack knows; ``record_observation`` grows it by one guess.

    ``probs[:m]`` and ``counts[:m]`` are the m-guess history as the solver reads
    it; later rows are spare. ``guessed`` masks ``corpus.union_vocabulary``, and
    ``cursors[i]`` is a rank position in dictionary i with every word above it guessed.
    """

    history: GuessHistory
    current_estimate: MixtureWeights
    rng: np.random.Generator
    guessed: np.ndarray
    cursors: list[int]
    probs: np.ndarray
    counts: np.ndarray
    previous_estimate: MixtureWeights | None = None


def new_state(corpus: Corpus, population: int, init: InitPolicy,
              rng: np.random.Generator) -> BanditState:
    """Fresh state before any guess; the first estimate comes from ``init``."""
    n = len(corpus)
    return BanditState(
        history=GuessHistory(population),
        current_estimate=initialize_weights(init, n, prev=None, rng=rng),
        rng=rng,
        guessed=np.zeros(len(corpus.union_vocabulary), dtype=bool),
        cursors=[0] * n,
        probs=np.zeros((16, n)),  # doubled by record_observation when full
        counts=np.zeros(16),
    )


def _next_unguessed(corpus: Corpus, state: BanditState, i: int) -> str | None:
    """Most popular unguessed word of dictionary i, moving its cursor up to it."""
    rows, rank, guessed = corpus.ranked_rows[i], state.cursors[i], state.guessed
    while rank < len(rows) and guessed[rows[rank]]:
        rank += 1
    state.cursors[i] = rank
    return corpus.union_vocabulary[rows[rank]] if rank < len(rows) else None


def select_guess(policy: GuessPolicy, corpus: Corpus, state: BanditState) -> str | None:
    """Choose the next word to guess, or None when all candidates are spent.

    Guessed words are excluded everywhere: a repeated guess compromises
    nobody new. Ties break deterministically (lowest dictionary index for
    BEST_DICTIONARY, lexicographic least word for BY_Q).
    """
    if policy is GuessPolicy.BY_Q:
        scores = corpus.vocab_probs @ np.asarray(state.current_estimate)
        np.putmask(scores, state.guessed, -np.inf)
        # union_vocabulary is sorted, so the first argmax is the tie-break winner
        best = int(np.argmax(scores))
        return None if state.guessed[best] else corpus.union_vocabulary[best]

    heads = [_next_unguessed(corpus, state, i) for i in range(len(corpus))]
    eligible = [i for i, word in enumerate(heads) if word is not None]
    if not eligible:
        return None
    if policy is GuessPolicy.RANDOM_DICTIONARY:
        return heads[eligible[int(state.rng.integers(len(eligible)))]]
    if policy is GuessPolicy.BEST_DICTIONARY:
        # max keeps the first of equal weights: the lowest dictionary index
        return heads[max(eligible, key=state.current_estimate.__getitem__)]
    raise ValueError(f"unknown guess policy: {policy!r}")


def record_observation(state: BanditState, word: str, successes: int,
                       corpus: Corpus, init: InitPolicy,
                       cfg: DescentConfig = DescentConfig()) -> BanditState:
    """Fold one guess outcome into the state and re-estimate the weights.

    Zero-success guesses still update the estimate: the remainder term of
    the likelihood shifts mass away from dictionaries that ranked the failed
    word highly.
    """
    state.history = state.history.extended(word, successes)
    m = len(state.history)
    if m > len(state.counts):
        state.probs = np.concatenate([state.probs, np.zeros_like(state.probs)])
        state.counts = np.concatenate([state.counts, np.zeros_like(state.counts)])
    v = corpus.vocab_index.get(word)
    if v is not None:
        state.guessed[v] = True
        state.probs[m - 1] = corpus.vocab_probs[v]
    state.counts[m - 1] = successes
    state.previous_estimate = state.current_estimate
    start = initialize_weights(init, len(corpus), prev=state.previous_estimate, rng=state.rng)
    state.current_estimate, _, _ = maximize(state.probs[:m], state.counts[:m],
                                            state.history.population, np.asarray(start), cfg)
    return state
