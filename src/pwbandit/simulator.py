"""Synthetic password sets, the guess oracle, full attack runs and baselines."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .bandit import GuessPolicy, InitPolicy, new_state, record_observation, select_guess
from .dictionary import Corpus
from .errors import DimensionMismatch, EmptyInput
from .mixture import DescentConfig, MixtureWeights


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


@dataclass(frozen=True)
class AttackTrace:
    """Per-guess record of one attack run plus an echo of its configuration."""

    records: tuple[TraceRecord, ...]
    init_policy: InitPolicy
    guess_policy: GuessPolicy
    seed: int
    guess_budget: int

    def __post_init__(self):
        running = 0
        for r in self.records:
            running += r.successes
            if r.cumulative != running:
                raise ValueError(
                    f"cumulative {r.cumulative} at {r.word!r} != running sum {running}"
                )

    @property
    def cumulative_curve(self) -> tuple[int, ...]:
        return tuple(r.cumulative for r in self.records)


def run_attack(corpus: Corpus, ps: PasswordSet, init: InitPolicy, guess: GuessPolicy,
               m: int, cfg: DescentConfig = DescentConfig(), seed: int = 0) -> AttackTrace:
    """Run one attack of up to ``m`` guesses and return the full trace.

    Each iteration selects a word, asks the oracle how many users it
    compromises, and re-estimates the mixture weights. Exhausting every
    candidate word truncates the trace early.
    """
    if m < 1:
        raise ValueError(f"guess budget must be >= 1, got {m}")
    rng = np.random.default_rng(seed)
    state = new_state(corpus, ps.size, init, rng)
    records: list[TraceRecord] = []
    cumulative = 0
    for _ in range(m):
        word = select_guess(guess, corpus, state)
        if word is None:
            break
        successes = oracle_count(ps, word)
        record_observation(state, word, successes, corpus, init, cfg)
        cumulative += successes
        records.append(TraceRecord(word, successes, cumulative, state.current_estimate))
    return AttackTrace(tuple(records), init, guess, seed, m)


def optimal_baseline(ps: PasswordSet, m: int) -> tuple[int, ...]:
    """Cumulative successes of the unbeatable strategy: guess the password
    set's own words in descending multiplicity order (ties lexicographic).
    Padded with the final value once every distinct word is spent."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    ordered = sorted(ps.counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return pad_curve(tuple(accumulate(count for _, count in ordered[:m])), m)


def average_traces(traces: Iterable[AttackTrace]) -> tuple[float, ...]:
    """Mean cumulative successes per guess index across runs.

    Shorter traces are padded with their final cumulative value so every
    run contributes to every index.
    """
    curves = [t.cumulative_curve for t in traces]
    if not curves:
        raise EmptyInput("no traces to average")
    length = max(len(c) for c in curves)
    padded = np.array([pad_curve(c, length) for c in curves], dtype=float)
    return tuple(float(x) for x in padded.mean(axis=0))


def pad_curve(curve: Sequence[float], length: int) -> tuple[float, ...]:
    """Extend a cumulative curve to ``length`` entries with its final value."""
    out = list(curve)[:length]
    tail = out[-1] if out else 0.0
    out += [tail] * (length - len(out))
    return tuple(out)
