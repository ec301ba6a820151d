"""Attack state and the explore/exploit policies built on the mixture MLE.

Three ways to initialize each descent (random simplex point, uniform 1/n,
or warm start from the previous estimate) and three ways to pick the next
guess (random dictionary, highest-weight dictionary, or the word with the
highest estimated mixture probability).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .dictionary import Corpus
from .mixture import (DescentConfig, GuessHistory, HistoryArrays, MixtureWeights,
                      check_observation, maximize)


class InitPolicy(Enum):
    RANDOM = "random"
    AVERAGE = "average"
    BEST = "best"


class GuessPolicy(Enum):
    RANDOM_DICTIONARY = "random-dict"
    BEST_DICTIONARY = "best-dict"
    BY_Q = "by-q"


def require_policy(policy, kind: type[Enum], name: str) -> None:
    """ValueError unless ``policy`` is a member of ``kind``, the ``name`` policy."""
    if not isinstance(policy, kind):
        raise ValueError(f"unknown {name} policy: {policy!r}")


def initialize_weights(policy: InitPolicy, n: int,
                       prev: MixtureWeights | None = None,
                       rng: np.random.Generator | None = None) -> MixtureWeights:
    """Starting point for a descent under the given policy.

    RANDOM draws uniformly from the simplex (normalized standard-exponential
    components). BEST returns ``prev``, falling back to the uniform point
    when no previous estimate exists. A policy that is not an ``InitPolicy``
    is a ValueError.
    """
    require_policy(policy, InitPolicy, "init")
    if n < 1:
        raise ValueError(f"need n >= 1 dictionaries, got {n}")
    if policy is InitPolicy.BEST and prev is not None:
        return prev
    return MixtureWeights(_start(policy, n, prev, rng).tolist())


def _start(policy: InitPolicy, n: int, prev: MixtureWeights | None,
           rng: np.random.Generator | None) -> np.ndarray:
    """The point of :func:`initialize_weights` as the array a descent starts
    from, for a member ``policy``, unchecked: the attack path builds no
    ``MixtureWeights`` for it."""
    if policy is InitPolicy.RANDOM:
        if rng is None:
            raise ValueError("random initialization needs an rng")
        draws = rng.standard_exponential(n)
        return draws / np.add.reduce(draws)  # the reduction draws.sum() makes
    if policy is InitPolicy.BEST and prev is not None:
        return np.array(prev.q)
    return np.array((1.0 / n,) * n)


@dataclass
class BanditState:
    """Everything one attack knows; ``record_observation`` grows it by one guess.

    ``observed`` maps each guessed word to its successes, in guess order.
    ``arrays`` holds the history as the solver reads it: its categories and
    running totals, grown by each guess. ``guessed`` masks ``corpus.union_vocabulary``, and
    ``cursors[i]`` is a rank position in dictionary i with every word above it guessed.
    """

    current_estimate: MixtureWeights
    rng: np.random.Generator
    guessed: np.ndarray
    cursors: list[int]
    arrays: HistoryArrays
    observed: dict[str, int] = field(default_factory=dict)
    previous_estimate: MixtureWeights | None = None

    @property
    def history(self) -> GuessHistory:
        """The guesses so far, as a new :class:`GuessHistory` on each read (O(m))."""
        return GuessHistory(self.arrays.population, tuple(self.observed.items()))


def new_state(corpus: Corpus, population: int, init: InitPolicy,
              rng: np.random.Generator) -> BanditState:
    """Fresh state before any guess; the first estimate comes from ``init``."""
    n = len(corpus)
    return BanditState(
        current_estimate=initialize_weights(init, n, prev=None, rng=rng),
        rng=rng,
        guessed=np.zeros(len(corpus.union_vocabulary), dtype=bool),
        cursors=[0] * n,
        arrays=HistoryArrays(n, population),
    )


# Scoring every vocabulary row for by-q costs about a nanosecond per
# vocab_probs entry; the threshold walk (_by_q_candidates) costs 30-50 us
# however few rows it keeps (2-core Xeon, numpy 2.4). So by-q walks only when
# vocab_probs has more than _FULL_SCORE_ENTRIES entries, and scores every row
# when the walk keeps more than one row in _WALK_SHARE. Both give the same word.
_FULL_SCORE_ENTRIES = 1 << 15
_WALK_SHARE = 8
_EPS = float(np.finfo(float).eps)


def _next_unguessed(corpus: Corpus, state: BanditState, i: int) -> int:
    """Rank of dictionary i's most popular unguessed word (its length when
    every word is guessed), moving its cursor up to it."""
    rows, rank, guessed = corpus.ranked_rows[i], state.cursors[i], state.guessed
    while rank < rows.size and guessed[rows[rank]]:
        rank += 1
    state.cursors[i] = rank
    return rank


def _by_q_candidates(corpus: Corpus, state: BanditState, q: np.ndarray,
                     slack: float) -> np.ndarray:
    """Rows that hold every unguessed word the full product could rank first.

    This is the threshold algorithm (Fagin, Lotem & Naor 2003) over the
    ranked lists. Let B be the best score among the dictionaries' heads, the
    first unguessed words at the cursors. The winner scores at least B up to
    rounding, and a score is at most sum(q) times the word's largest p_i; so
    the winner has p_i >= floor, B / sum(q) less the slack, in some
    dictionary i. Each list is sorted, so those words lie between the cursor
    and the first rank below floor, which probes at ranks cursor + 2^j - 1
    bracket. Rows may repeat, and some may be guessed; none are returned
    once every word is guessed.
    """
    probs, ranked = corpus.vocab_probs, corpus.ranked_rows
    ranks = [_next_unguessed(corpus, state, i) for i in range(len(ranked))]
    live = [i for i, rank in enumerate(ranks) if rank < ranked[i].size]
    if not live:
        return np.empty(0, dtype=np.intp)
    # The ufunc reductions that .max() and .sum() make, without numpy's Python wrappers
    heads = probs[[ranked[i][ranks[i]] for i in live]].dot(q)
    floor = np.maximum.reduce(heads) / np.add.reduce(q) * (1.0 - slack)
    parts = []
    for i in live:
        rows, rank = ranked[i], ranks[i]
        end, span = rank, 1
        while end < rows.size and probs[rows[end], i] >= floor:
            end, span = rank + span, 2 * span + 1
        parts.append(rows[rank:end])
    return np.concatenate(parts)


def _best_of_all_rows(probs: np.ndarray, guessed: np.ndarray, q: np.ndarray) -> int | None:
    scores = probs.dot(q)
    np.putmask(scores, guessed, -np.inf)
    # union_vocabulary is sorted, so the first argmax is the tie-break winner
    best = int(scores.argmax())
    return None if guessed[best] else best


def _best_by_q(corpus: Corpus, state: BanditState) -> int | None:
    """Row of the unguessed word with the highest ``vocab_probs @ q`` score,
    the lowest row among equal scores; None once every word is guessed."""
    probs, guessed = corpus.vocab_probs, state.guessed
    q = np.array(state.current_estimate.q)
    if probs.size <= _FULL_SCORE_ENTRIES:
        return _best_of_all_rows(probs, guessed, q)
    # Any rounding of a sum of n non-negative products q_i p_i (in any order,
    # fused or not) is within n eps of the exact sum, relatively. The slack
    # covers two such roundings, plus those of sum(q) and of floor.
    slack = 8 * (q.size + 2) * _EPS
    rows = _by_q_candidates(corpus, state, q, slack)
    if not rows.size:
        return None
    if len(rows) * _WALK_SHARE > len(probs):
        return _best_of_all_rows(probs, guessed, q)
    scores = probs[rows].dot(q)
    np.putmask(scores, guessed[rows], -np.inf)
    # A product over fewer rows may round a score differently from the full
    # one, by less than the slack. So a winner clear of the rest by more than
    # the slack is the full product's winner too. A row that at most one
    # dictionary ranks scores fl(p_i q_i) in any product, its zero terms
    # being exact; so where every near tie is such a row, the lowest row of
    # the best score is the full product's pick. Other near ties (such as
    # shared words with equal probability rows) go to the full product.
    best = np.maximum.reduce(scores)
    top = rows[scores >= best * (1.0 - slack)]
    if np.minimum.reduce(top) == np.maximum.reduce(top):
        return int(top[0])
    if np.maximum.reduce(np.count_nonzero(probs[top], axis=1)) <= 1:
        return int(np.minimum.reduce(rows[scores == best]))
    return _best_of_all_rows(probs, guessed, q)


def select_guess(policy: GuessPolicy, corpus: Corpus, state: BanditState) -> str | None:
    """Choose the next word to guess, or None when all candidates are spent.

    Guessed words are excluded everywhere: a repeated guess compromises
    nobody new. Ties break deterministically (lowest dictionary index for
    BEST_DICTIONARY, lexicographic least word for BY_Q). A policy that is
    not a ``GuessPolicy`` is a ValueError.
    """
    require_policy(policy, GuessPolicy, "guess")
    row = select_row(policy, corpus, state)
    return None if row is None else corpus.union_vocabulary[row]


def select_row(policy: GuessPolicy, corpus: Corpus, state: BanditState) -> int | None:
    """:func:`select_guess`'s word as its ``union_vocabulary`` row, for a
    member ``policy``. Package-internal: ``run_attack`` hands the row on to
    :func:`observe`, so nothing looks the word up again."""
    if policy is GuessPolicy.BY_Q:
        return _best_by_q(corpus, state)
    ranked = corpus.ranked_rows
    ranks = [_next_unguessed(corpus, state, i) for i in range(len(ranked))]
    eligible = [i for i, rank in enumerate(ranks) if rank < ranked[i].size]
    if not eligible:
        return None
    if policy is GuessPolicy.RANDOM_DICTIONARY:
        i = eligible[int(state.rng.integers(len(eligible)))]
    else:
        # BEST_DICTIONARY. max keeps the first of equal weights: the lowest index
        i = max(eligible, key=state.current_estimate.q.__getitem__)
    return int(ranked[i][ranks[i]])


def record_observation(state: BanditState, word: str, successes: int,
                       corpus: Corpus, init: InitPolicy,
                       cfg: DescentConfig = DescentConfig()) -> BanditState:
    """Fold one guess outcome into the state and re-estimate the weights.

    Zero-success guesses still update the estimate: the remainder term of
    the likelihood shifts mass away from dictionaries that ranked the failed
    word highly. An invalid observation (a repeated word, successes that are
    not a non-negative integer or exceed the users left) raises ValueError
    and leaves the state as it was, as does an ``init`` that is not an
    ``InitPolicy``.
    """
    require_policy(init, InitPolicy, "init")
    observe(state, word, corpus.row(word), successes, corpus, init, cfg)
    return state


def observe(state: BanditState, word: str, row: int | None, successes: int,
            corpus: Corpus, init: InitPolicy, cfg: DescentConfig = DescentConfig()) -> None:
    """:func:`record_observation` of ``word``, whose ``union_vocabulary`` row
    is ``row`` (None if no dictionary ranks it), for a member ``init``.
    Package-internal, like :func:`select_row`.

    The descent is :func:`maximize`, which computes no log-likelihood. The
    estimate it returns is the one ``MixtureWeights`` a guess builds.
    """
    arrays = state.arrays
    successes = check_observation(word, successes, state.observed,
                                  arrays.population - arrays.successes)
    state.observed[word] = successes
    if row is None:
        arrays.append(None, successes)
    else:
        state.guessed[row] = True
        arrays.append(corpus.vocab_probs[row], successes)
    state.previous_estimate = prev = state.current_estimate
    start = _start(init, arrays.prob_totals.size, prev, state.rng)
    state.current_estimate, _ = maximize(arrays, start, cfg)
