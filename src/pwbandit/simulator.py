"""Synthetic password sets, the guess oracle, full attack runs and baselines."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

import numpy as np

from .bandit import GuessPolicy, InitPolicy, new_state, observe, require_policy, select_row
from .dictionary import Corpus
from .errors import DimensionMismatch, EmptyInput
from .mixture import MixtureWeights


@dataclass(frozen=True)
class PasswordSet:
    """The multiset of users' passwords under attack.

    For synthetic sets, ``true_mixture`` keeps the ground-truth composition
    and ``source_labels`` the dictionary index each user was drawn from.
    """

    passwords: tuple[str, ...]
    true_mixture: MixtureWeights | None = None
    source_labels: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "passwords", tuple(self.passwords))
        if not self.passwords:
            raise EmptyInput("password set is empty")
        if self.source_labels is not None:
            object.__setattr__(self, "source_labels", tuple(self.source_labels))
            if len(self.source_labels) != len(self.passwords):
                raise ValueError("one source label per password required")
            if self.true_mixture is not None:
                expected = largest_remainder_counts(self.true_mixture, len(self.passwords))
                actual = Counter(self.source_labels)
                for i, want in enumerate(expected):
                    if actual.get(i, 0) != want:
                        raise ValueError(
                            f"source {i} has {actual.get(i, 0)} users, expected {want}"
                        )

    @property
    def size(self) -> int:
        return len(self.passwords)

    @cached_property
    def counts(self) -> Counter:
        return Counter(self.passwords)


def oracle_count(ps: PasswordSet, word: str) -> int:
    """How many users the guess ``word`` compromises (multiset multiplicity)."""
    return ps.counts.get(word, 0)


def largest_remainder_counts(proportions, total: int) -> tuple[int, ...]:
    """Apportion ``total`` users by largest-remainder rounding of the shares.

    Near-integer targets are snapped before flooring so float fuzz cannot
    shift a unit; remainder ties go to the lower index.
    """
    shares = np.asarray(proportions, dtype=float) * total
    shares = np.where(np.abs(shares - np.round(shares)) < 1e-9, np.round(shares), shares)
    base = np.floor(shares).astype(int)
    remainders = shares - base
    leftover = total - int(base.sum())
    order = sorted(range(len(base)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        base[i] += 1
    return tuple(int(x) for x in base)


def compose_password_set(corpus: Corpus, proportions: MixtureWeights, size: int,
                         seed: int) -> PasswordSet:
    """Draw a synthetic password set from the corpus with known composition.

    User counts per dictionary come from largest-remainder rounding of
    size * q_i; each user's password is an independent draw from that
    dictionary's probability mass function (with replacement).
    """
    if len(proportions) != len(corpus):
        raise DimensionMismatch(
            f"{len(proportions)} proportions for {len(corpus)} dictionaries"
        )
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    counts = largest_remainder_counts(proportions, size)
    rng = np.random.default_rng(seed)
    passwords: list[str] = []
    labels: list[int] = []
    vocab = corpus.union_vocabulary
    for i, (rows, users) in enumerate(zip(corpus.ranked_rows, counts)):
        if users == 0:
            continue
        picks = rows[rng.choice(len(rows), size=users, p=corpus.vocab_probs[rows, i])]
        passwords.extend(vocab[v] for v in picks.tolist())
        labels.extend([i] * users)
    return PasswordSet(tuple(passwords), proportions, tuple(labels))


@dataclass(frozen=True)
class TraceRecord:
    word: str
    successes: int
    cumulative: int
    estimate: MixtureWeights


class AttackTrace:
    """Per-guess record of one attack run plus an echo of its configuration.

    Kept as columns: ``words``, ``counts`` (an (m, 2) int64 array of each
    guess's successes and the running total) and ``estimates`` (an (m, n)
    array, row j the estimate after guess j). ``records`` rebuilds the
    per-guess :class:`TraceRecord` view on demand.
    """

    def __init__(self, records: Sequence[TraceRecord], init_policy: InitPolicy,
                 guess_policy: GuessPolicy, seed: int, guess_budget: int):
        m = len(records)
        n = len(records[0].estimate) if m else 0
        self._fill(tuple(r.word for r in records),
                   np.array([(r.successes, r.cumulative) for r in records],
                            dtype=np.int64).reshape(m, 2),
                   np.array([r.estimate.q for r in records], dtype=float).reshape(m, n),
                   init_policy, guess_policy, seed, guess_budget)
        running = np.cumsum(self.counts[:, 0])
        wrong = np.flatnonzero(running != self.counts[:, 1])
        if wrong.size:
            j = int(wrong[0])
            raise ValueError(f"cumulative {self.counts[j, 1]} at {self.words[j]!r} "
                             f"!= running sum {running[j]}")

    @classmethod
    def from_columns(cls, words: tuple[str, ...], counts: np.ndarray, estimates: np.ndarray,
                     init_policy: InitPolicy, guess_policy: GuessPolicy, seed: int,
                     guess_budget: int) -> "AttackTrace":
        """A trace from columns whose running totals are right by construction."""
        trace = cls.__new__(cls)
        trace._fill(words, counts, estimates, init_policy, guess_policy, seed, guess_budget)
        return trace

    def _fill(self, words, counts, estimates, init_policy, guess_policy, seed, guess_budget):
        counts.flags.writeable = estimates.flags.writeable = False
        self.words, self.counts, self.estimates = words, counts, estimates
        self.init_policy, self.guess_policy = init_policy, guess_policy
        self.seed, self.guess_budget = seed, guess_budget

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        return tuple(TraceRecord(word, successes, cumulative, MixtureWeights(q))
                     for word, (successes, cumulative), q
                     in zip(self.words, self.counts.tolist(), self.estimates.tolist()))

    @property
    def cumulative_curve(self) -> tuple[int, ...]:
        return tuple(self.counts[:, 1].tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttackTrace):
            return NotImplemented
        return (self.words == other.words and np.array_equal(self.counts, other.counts)
                and np.array_equal(self.estimates, other.estimates)
                and (self.init_policy, self.guess_policy, self.seed, self.guess_budget)
                == (other.init_policy, other.guess_policy, other.seed, other.guess_budget))


def run_attack(corpus: Corpus, ps: PasswordSet, init: InitPolicy, guess: GuessPolicy,
               m: int, seed: int = 0) -> AttackTrace:
    """Run one attack of ``min(m, vocabulary size)`` guesses and return the
    full trace.

    Each iteration selects a word, asks the oracle how many users it
    compromises, and re-estimates the mixture weights. Every policy picks
    an unguessed vocabulary word while one is left, so a budget beyond the
    vocabulary ends once every word is guessed. Each guess is
    ``select_guess`` and ``record_observation`` with the policies checked
    once, and with the word's vocabulary row handed from one to the other.
    """
    if m < 1:
        raise ValueError(f"guess budget must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    state = new_state(corpus, ps.size, init, rng)
    require_policy(guess, GuessPolicy, "guess")
    vocabulary = corpus.union_vocabulary
    estimates = np.zeros((min(m, len(vocabulary)), len(corpus)))
    for j in range(len(estimates)):
        row = select_row(guess, corpus, state)
        word = vocabulary[row]
        observe(state, word, row, oracle_count(ps, word), corpus, init)
        estimates[j] = state.current_estimate.q
    successes = np.fromiter(state.observed.values(), dtype=np.int64, count=len(state.observed))
    counts = np.column_stack([successes, np.cumsum(successes)])
    return AttackTrace.from_columns(tuple(state.observed), counts, estimates, init, guess, seed, m)


def optimal_baseline(ps: PasswordSet, m: int) -> tuple[int, ...]:
    """Cumulative successes of the unbeatable strategy: guess the password
    set's own words in descending multiplicity order (ties lexicographic).
    Padded with the final value once every distinct word is spent."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    ordered = sorted(ps.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return pad_curve(tuple(accumulate(count for _, count in ordered[:m])), m)


def pad_curve(curve: Sequence[float], length: int) -> tuple[float, ...]:
    """Extend a cumulative curve to ``length`` entries with its final value."""
    out = list(curve)[:length]
    tail = out[-1] if out else 0.0
    out += [tail] * (length - len(out))
    return tuple(out)
