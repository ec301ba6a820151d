"""Mixture-weight maximum likelihood from censored guess observations.

The model: a password set of N users was composed from the corpus
dictionaries with unknown simplex weights q. After guessing words k_1..k_m
and observing success counts N_1..N_m, the log-likelihood (multinomial
coefficient dropped, it does not depend on q) is

    sum_j N_j * ln Q_{k_j}  +  (N - sum_j N_j) * ln(1 - sum_j Q_{k_j})

with Q_k = sum_i q_i * p_i(k). Both logs are floored at a small epsilon so
the objective stays finite on the whole simplex. The maximizer is found by
projected gradient ascent with a backtracking line search.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dictionary import Corpus
from .errors import DimensionMismatch, DuplicateGuess, EmptyInput, SuccessExceedsPopulation

SIMPLEX_TOL = 1e-9

# The solver's fixed constants: the first trial step of each line search, the
# factor it shrinks (or, inverted, grows) the step by, the smallest step it
# tries, the floor on both logarithms, and the least gain that counts as a step.
INITIAL_STEP = 0.1
BACKTRACK_FACTOR = 0.5
MIN_STEP = 1e-12
PROBABILITY_FLOOR = 1e-12
CONVERGENCE_TOL = 1e-10


@dataclass(frozen=True)
class MixtureWeights:
    """A point on the probability simplex: q_i >= 0, sum q_i = 1 (within 1e-9)."""

    q: tuple[float, ...]

    def __post_init__(self):
        q = tuple(float(x) for x in self.q)
        if not q:
            raise EmptyInput("weight vector is empty")
        if min(q) < 0:
            raise ValueError(f"negative weight in {q}")
        total = sum(q)
        if not abs(total - 1.0) <= SIMPLEX_TOL:  # NaN fails this too
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "q", q)

    @classmethod
    def uniform(cls, n: int) -> "MixtureWeights":
        return cls((1.0 / n,) * n)

    def __array__(self, dtype=None) -> np.ndarray:
        return np.asarray(self.q, dtype=dtype or float)

    def __len__(self) -> int:
        return len(self.q)

    def __getitem__(self, i):
        return self.q[i]

    def __iter__(self):
        return iter(self.q)


@dataclass(frozen=True)
class GuessHistory:
    """Observed guesses against a population of N users.

    Each observation pairs a guessed word with the number of users it
    compromised. Words never repeat; total successes cannot exceed the
    population. ``words`` and ``total_successes`` are kept alongside, so
    that :meth:`extended` checks only the observation it appends.
    """

    population: int
    observations: tuple[tuple[str, int], ...] = ()
    words: tuple[str, ...] = field(init=False, compare=False, repr=False)
    total_successes: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.population < 1:
            raise ValueError(f"population must be >= 1, got {self.population}")
        observations = self.observations
        self.__dict__.update(observations=(), words=(), total_successes=0)
        for word, successes in observations:
            self._append(str(word), int(successes))

    def _append(self, word: str, successes: int) -> None:
        # Checks one observation and appends it in place, on an unshared instance.
        if word in self.words:
            raise DuplicateGuess(f"{word!r} was already guessed")
        if successes < 0:
            raise ValueError(f"negative successes for {word!r}")
        remaining = self.population - self.total_successes
        if successes > remaining:
            raise SuccessExceedsPopulation(
                f"{successes} successes for {word!r}, only {remaining} users uncompromised"
            )
        self.__dict__.update(observations=self.observations + ((word, successes),),
                             words=self.words + (word,),
                             total_successes=self.total_successes + successes)

    def extended(self, word: str, successes: int) -> "GuessHistory":
        """New history with one more observation appended (only that one is checked)."""
        grown = copy.copy(self)
        grown._append(str(word), int(successes))
        return grown

    def __len__(self) -> int:
        return len(self.observations)


@dataclass(frozen=True)
class DescentConfig:
    """The cap on accepted steps of the projected gradient ascent."""

    max_steps: int = 100

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def _weight_vector(weights, n: int) -> np.ndarray:
    q = np.asarray(weights, dtype=float)
    if q.ndim != 1 or q.size != n:
        raise DimensionMismatch(f"expected {n} weights, got shape {q.shape}")
    return q


def mixture_probability(corpus: Corpus, weights, word: str) -> float:
    """Probability of seeing ``word`` under the weighted dictionary mixture."""
    q = _weight_vector(weights, len(corpus))
    return float(corpus.probability_rows((word,))[0] @ q)


def _history_arrays(corpus: Corpus, history: GuessHistory) -> tuple[np.ndarray, np.ndarray]:
    probs = corpus.probability_rows(history.words)
    counts = np.array([s for _, s in history.observations], dtype=float)
    return probs, counts


def _log_likelihood(probs, counts, population, q) -> float:
    observed = probs @ q
    remainder_count = population - counts.sum()
    remainder = max(1.0 - observed.sum(), PROBABILITY_FLOOR)
    return float(counts @ np.log(np.maximum(observed, PROBABILITY_FLOOR))
                 + remainder_count * np.log(remainder))


def _gradient(probs, counts, population, q) -> np.ndarray:
    observed = np.maximum(probs @ q, PROBABILITY_FLOOR)
    remainder_count = population - counts.sum()
    remainder = max(1.0 - (probs @ q).sum(), PROBABILITY_FLOOR)
    return probs.T @ (counts / observed) - remainder_count * probs.sum(axis=0) / remainder


def log_likelihood(corpus: Corpus, weights, history: GuessHistory) -> float:
    """Censored-multinomial log-likelihood of ``weights`` given ``history``.

    ``weights`` may be a MixtureWeights or any length-n sequence; the value
    is well defined off the simplex too, which the finite-difference checks
    rely on. Empty history gives exactly 0.
    """
    q = _weight_vector(weights, len(corpus))
    return _log_likelihood(*_history_arrays(corpus, history), history.population, q)


def gradient(corpus: Corpus, weights, history: GuessHistory) -> np.ndarray:
    """Analytic gradient of :func:`log_likelihood` with respect to the weights.

    Component i is

        sum_j N_j * p_i(k_j) / Q_{k_j}
            - (N - sum_j N_j) * sum_j p_i(k_j) / (1 - sum_j Q_{k_j})

    with the same epsilon floors as the objective.
    """
    q = _weight_vector(weights, len(corpus))
    return _gradient(*_history_arrays(corpus, history), history.population, q)


def _project(v: np.ndarray) -> np.ndarray:
    # Sort-and-threshold Euclidean projection onto the standard simplex.
    n = v.size
    u = np.sort(v)[::-1]
    shifts = (1.0 - np.cumsum(u)) / np.arange(1, n + 1)
    rho = int(np.nonzero(u + shifts > 0)[0][-1])
    out = np.maximum(v + shifts[rho], 0.0)
    # Exact arithmetic gives sum(out) == 1, but when v has entries of large
    # magnitude (floored-likelihood gradients can reach 1e13) the shift
    # cancellation leaves rounding error far above the simplex tolerance.
    total = out.sum()
    if total <= 0.0:
        out = np.zeros(n)
        out[int(np.argmax(v))] = 1.0
        return out
    return out / total


def project_to_simplex(v: Sequence[float]) -> MixtureWeights:
    """Euclidean-nearest point of the probability simplex to ``v``."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput(f"cannot project shape {arr.shape}")
    return MixtureWeights(_project(arr))


StepCallback = Callable[[int, MixtureWeights, float], None]


def estimate(corpus: Corpus, history: GuessHistory, init: MixtureWeights,
             cfg: DescentConfig = DescentConfig(),
             on_step: StepCallback | None = None) -> tuple[MixtureWeights, float, int]:
    """Maximize the log-likelihood by projected gradient ascent from ``init``.

    Each step proposes project(w + step * gradient), starting from
    ``INITIAL_STEP``. A worse proposal halves the step until it improves or
    falls under ``MIN_STEP``; an improving one keeps doubling the step while
    that keeps helping, which matters near flat face-constrained optima where
    a fixed step would crawl. Stops after ``cfg.max_steps`` accepted steps,
    when no admissible step improves, or when the improvement falls below
    ``CONVERGENCE_TOL``.

    Returns (weights, final log-likelihood, effective steps taken). The
    log-likelihood of the result is never below that of ``init``. If given,
    ``on_step(index, weights, loglik)`` is called for the initial point
    (index 0) and for every accepted iterate.
    """
    return maximize(*_history_arrays(corpus, history), history.population,
                    _weight_vector(init, len(corpus)), cfg, on_step)


def maximize(probs: np.ndarray, counts: np.ndarray, population: int, w: np.ndarray,
             cfg: DescentConfig = DescentConfig(),
             on_step: StepCallback | None = None) -> tuple[MixtureWeights, float, int]:
    """:func:`estimate` on history arrays: ``probs`` holds one row of
    per-dictionary probabilities per guessed word, ``counts`` its successes."""
    def value(q: np.ndarray) -> float:
        return _log_likelihood(probs, counts, population, q)

    current = value(w)
    emitted = 0
    if on_step is not None:
        on_step(0, MixtureWeights(w), current)
    steps = 0
    for _ in range(cfg.max_steps):
        grad = _gradient(probs, counts, population, w)
        step = INITIAL_STEP
        candidate = _project(w + step * grad)
        proposed = value(candidate)
        if proposed < current:
            while proposed < current and step * BACKTRACK_FACTOR >= MIN_STEP:
                step *= BACKTRACK_FACTOR
                candidate = _project(w + step * grad)
                proposed = value(candidate)
            if proposed < current:
                break
        else:
            while step < 1e12:  # projection saturates long before this
                grown = step / BACKTRACK_FACTOR
                next_candidate = _project(w + grown * grad)
                next_proposed = value(next_candidate)
                if next_proposed <= proposed:
                    break
                step, candidate, proposed = grown, next_candidate, next_proposed
        gain = proposed - current
        w, current = candidate, proposed
        emitted += 1
        if on_step is not None:
            on_step(emitted, MixtureWeights(w), current)
        if gain < CONVERGENCE_TOL:
            break
        steps += 1
    return MixtureWeights(w), current, steps
