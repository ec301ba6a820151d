"""Mixture-weight maximum likelihood from censored guess observations.

The model: a password set of N users was composed from the corpus
dictionaries with unknown simplex weights q. After guessing words k_1..k_m
and observing success counts N_1..N_m, the log-likelihood (multinomial
coefficient dropped, it does not depend on q) is

    sum_j N_j * ln Q_{k_j}  +  (N - sum_j N_j) * ln(1 - sum_j Q_{k_j})

with Q_k = sum_i q_i * p_i(k): a multinomial over m + 1 categories, the
guessed words and the rest, each with a probability linear in q, so the
log-likelihood is concave on the simplex. ``log_likelihood``, ``gradient``
and ``estimate`` all read it through ``HistoryArrays.categories``, which
takes the rest's probability as sum_i q_i * (1 - sum_j p_i(k_j)), equal to
1 - sum_j Q_{k_j} on the simplex. A word that only dictionary i ranks, with
probability p, has Q_k = p * q_i, so its term is N ln q_i + N ln p: the
guessed words that only dictionary i ranks form one merged category, with
row p_min * e_i (p_min the least of their p) and their total count W, and
sum N ln(p / p_min) over them joins the constant. ``log_likelihood`` and
``gradient`` floor both logs at ``PROBABILITY_FLOOR`` so they are finite on
the whole simplex. They are defined per category, merged ones included: the
floor applies to p_min * q_i, and the objective equals the one with a
category per word, each floored on its own, wherever no floor binds.

``estimate`` maximizes it by damped active-set Newton ascent on the faces of
the simplex (Bertsekas 1982; Boyd and Vandenberghe 2004, section 9.5), with a
pairwise Frank-Wolfe step where the Newton step does not gain (Lacoste-Julien
and Jaggi 2015), counting it as -inf where an observed word has probability at
or below the floor. It stops once the Frank-Wolfe duality gap max_i g_i - g . q,
an upper bound on the distance to the maximum for a concave objective (Jaggi
2013), is at most ``GAP_TOL`` nats per user.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from numbers import Integral
from typing import Callable, Container

import numpy as np

from .dictionary import Corpus
from .errors import DimensionMismatch, DuplicateGuess, EmptyInput, SuccessExceedsPopulation

SIMPLEX_TOL = 1e-9

# The floor on both logarithms of the public objective and gradient; the
# Frank-Wolfe gap, in nats per user, at which a descent has converged; and
# the fraction of its first-order gain a step must realise.
PROBABILITY_FLOOR = 1e-12
GAP_TOL = 1e-9
ARMIJO = 1e-4
_LOG_FLOOR = np.log(PROBABILITY_FLOOR)


@dataclass(frozen=True)
class MixtureWeights:
    """A point on the probability simplex: q_i >= 0, sum q_i = 1 (within 1e-9)."""

    q: tuple[float, ...]

    def __post_init__(self):
        q = tuple(map(float, self.q))
        if not q:
            raise EmptyInput("weight vector is empty")
        if min(q) < 0:
            raise ValueError(f"negative weight in {q}")
        # sum() rounds differently from Python 3.12 on, but it only decides
        # this check; no estimate is computed from it.
        total = sum(q)
        if not abs(total - 1.0) <= SIMPLEX_TOL:  # NaN fails this too
            raise ValueError(f"weights sum to {total!r}, not 1")
        object.__setattr__(self, "q", q)

    @classmethod
    def uniform(cls, n: int) -> "MixtureWeights":
        return cls((1.0 / n,) * n)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("MixtureWeights holds a tuple: an array of it is always a copy")
        return np.asarray(self.q, dtype=dtype or float)

    def __len__(self) -> int:
        return len(self.q)

    def __getitem__(self, i):
        return self.q[i]

    def __iter__(self):
        return iter(self.q)


def check_observation(word: str, successes, guessed: Container[str], remaining) -> int:
    """The successes of guessing ``word``, as an int, if that observation may
    follow guesses of the words in ``guessed`` with ``remaining`` users left
    uncompromised; ValueError otherwise."""
    if word in guessed:
        raise DuplicateGuess(f"{word!r} was already guessed")
    if type(successes) is not int:  # a plain int skips the slower ABC check
        if isinstance(successes, bool) or not isinstance(successes, Integral):
            raise ValueError(f"successes for {word!r} must be an integer, got {successes!r}")
        successes = int(successes)
    if successes < 0:
        raise ValueError(f"negative successes for {word!r}")
    if successes > remaining:
        raise SuccessExceedsPopulation(
            f"{successes} successes for {word!r}, only {remaining} users uncompromised"
        )
    return successes


@dataclass(frozen=True)
class GuessHistory:
    """Observed guesses against a population of N users.

    Each observation pairs a guessed word with the number of users it
    compromised, an integer. The population is an integer of at least 1;
    words never repeat; total successes cannot exceed the population. The
    constructor checks the population and every observation.
    """

    population: int
    observations: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        population = self.population
        if isinstance(population, bool) or not isinstance(population, Integral) or population < 1:
            raise ValueError(f"population must be an integer >= 1, got {population!r}")
        object.__setattr__(self, "population", int(population))
        observed, left = {}, self.population
        for word, successes in self.observations:
            word = str(word)
            observed[word] = check_observation(word, successes, observed, left)
            left -= observed[word]
        object.__setattr__(self, "observations", tuple(observed.items()))

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(word for word, _ in self.observations)

    def __len__(self) -> int:
        return len(self.observations)


@dataclass(frozen=True)
class DescentConfig:
    """The cap on steps of one descent, a guard: a converging descent stops
    at the Frank-Wolfe gap tolerance well before it."""

    max_steps: int = 100

    def __post_init__(self):
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


def _weight_vector(weights, n: int) -> np.ndarray:
    q = np.asarray(weights, dtype=float)
    if q.ndim != 1 or q.size != n:
        raise DimensionMismatch(f"expected {n} weights, got shape {q.shape}")
    return q


@functools.cache
def _pair_layout(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, ...]]:
    """Where a category's pair row keeps its products a_i a_j, i <= j, for
    n dictionaries: the pairs in row-major order as the index arrays of i
    and of j; the n x n array of the column of pair (min(i, j), max(i, j)),
    which unpacks a pair row into a symmetric matrix; and the column of
    each (i, i)."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    column = {pair: k for k, pair in enumerate(pairs)}
    layout = (np.array([i for i, _ in pairs], dtype=np.intp),
              np.array([j for _, j in pairs], dtype=np.intp),
              np.array([[column[min(i, j), max(i, j)] for j in range(n)] for i in range(n)],
                       dtype=np.intp))
    for array in layout:  # shared by every caller
        array.flags.writeable = False
    return (*layout, tuple(column[i, i] for i in range(n)))


class HistoryArrays:
    """One attack's guesses as the solver reads them, grown by :meth:`append`.

    In guess order, the rows of per-dictionary probabilities and the counts
    of the ``live`` categories. A guess is live if it has successes and some
    dictionary gives it more than ``PROBABILITY_FLOOR`` (any other guess is a
    constant of the floored objective). A live guess that two or more
    dictionaries rank is a category of its own. The live guesses that only
    dictionary i ranks share one category, its merged category: it takes
    the row where the first of them would be, its count is their total
    count ``W``, and its row is ``p_min * e_i``, with ``p_min`` the least
    probability among them. A guess with probability p and N successes adds
    ``N ln q_i + N ln p`` to the objective, so the merged category's
    ``W ln(p_min q_i)`` leaves ``sum N ln(p / p_min)`` over its guesses for
    the constant; and ``p_min q_i`` is above the floor exactly when each of
    its guesses' ``p q_i`` is. The arrays keep no constant, which an attack
    never reads: :func:`_value` computes it. A spare row after them takes the
    rest category. Beside each row a_c, a pair row keeps its products a_ci
    a_cj for i <= j (see :meth:`pair_rows`), written once when the category
    opens and again where a merged category's ``p_min`` drops. Three running
    totals, each grown by one term per guess,
    spare the objective any sum over the history: ``prob_totals``, the column
    totals of the guesses' probability rows; ``successes``, their total
    count; and ``live_successes``, the total count of the live categories.
    Buffers double when full, so a guess costs O(n) amortized, not an O(m)
    rebuild. Package-internal: an attack's ``BanditState`` owns one.
    """

    def __init__(self, n: int, population: int):
        self.population, self.live = population, 0
        self._cats, self._weight = np.zeros((17, n)), np.zeros(17)
        self._pairs = np.zeros((17, n * (n + 1) // 2))
        self.prob_totals, self.successes, self.live_successes = np.zeros(n), 0, 0
        # Per dictionary with a merged category: [its row, p_min, its count W].
        self._merged: dict[int, list] = {}

    @classmethod
    def of(cls, corpus: Corpus, history: GuessHistory) -> tuple["HistoryArrays", float]:
        """The arrays that appending each observation of ``history`` in turn
        would leave, buffers included, built from one
        :meth:`Corpus.probability_rows` lookup with array operations; and
        ``sum N ln p`` over the merged categories' guesses, exactly rounded,
        which :func:`_value` reads in place of their ``sum N ln(p / p_min)``.

        Each merged category opens at the row of its dictionary's first live
        one-dictionary guess; its ``p_min`` and its count are reductions over
        all of them."""
        n = len(corpus)
        arrays = cls(n, history.population)
        words, successes = zip(*history.observations) if history.observations else ((), ())
        probs = corpus.probability_rows(words)
        if successes:
            # cumsum adds the rows in turn, as append does; sum(axis=0) does
            # too for n >= 2, but sums a single column pairwise.
            arrays.prob_totals = np.cumsum(probs, axis=0)[-1].copy()
        # As append keeps them: Python ints, exact above 2^53.
        arrays.successes = sum(successes)
        # Each count as _weight holds it, float(count); the reductions over
        # each row run over the columns of a copy, which is faster.
        counts, columns = np.fromiter(successes, float, len(successes)), probs.T.copy()
        live = (counts > 0) & (columns.max(axis=0, initial=0.0) > PROBABILITY_FLOOR)
        arrays.live_successes = sum(compress(successes, live.tolist()))
        single = live & (np.count_nonzero(columns, axis=0) == 1)
        opens, rows = live & ~single, np.flatnonzero(single)
        owner = columns[:, rows].argmax(axis=0)
        p, p_min = columns[owner, rows], np.full(n, np.inf)
        np.minimum.at(p_min, owner, p)
        owners, firsts = np.unique(owner, return_index=True)
        opens[rows[firsts]] = True
        for i, r in zip(owners.tolist(), rows[firsts].tolist()):
            total = sum(map(successes.__getitem__, rows[owner == i].tolist()))
            arrays._merged[i] = [int(np.count_nonzero(opens[:r])), float(p_min[i]), total]
        constant = math.fsum(count * math.log(x) for count, x
                             in zip(counts[rows].tolist(), p.tolist()))
        arrays.live = k = int(np.count_nonzero(opens))
        arrays._reserve(k)
        first, second, _, _ = _pair_layout(n)
        cats = arrays._cats[:k] = probs[opens]
        arrays._weight[:k] = counts[opens]
        np.multiply(cats[:, first], cats[:, second], out=arrays._pairs[:k])
        for i in arrays._merged:
            arrays._place(i)
        return arrays, constant

    def _reserve(self, k: int) -> None:
        """Double the buffers until they hold ``k`` categories and the spare."""
        if self._weight.size > k:
            return
        capacity = self._weight.size - 1
        while capacity < k:
            capacity *= 2
        grow = capacity + 1 - self._weight.size
        self._cats, self._weight, self._pairs = (
            np.concatenate([a, np.zeros((grow,) + a.shape[1:])])
            for a in (self._cats, self._weight, self._pairs))

    def append(self, row: np.ndarray | None, successes: int) -> None:
        """Add one guess: its probability row (None if unranked) and successes."""
        self.successes += successes
        if row is not None:
            self.prob_totals += row
            if successes > 0:
                self._add(row.tolist(), successes)

    def _add(self, probs: list[float], successes: int) -> None:
        """Add a guess with successes, whose probability row is ``probs``,
        to the categories if it is live."""
        p = max(probs)
        if not p > PROBABILITY_FLOOR:
            return
        self.live_successes += successes
        if probs.count(0.0) == len(probs) - 1:  # only dictionary i ranks it
            i = probs.index(p)
            if i in self._merged:
                merged = self._merged[i]
                if p < merged[1]:
                    merged[1] = p
                merged[2] += successes
                self._place(i)
                return
            self._merged[i] = [self.live, p, successes]
        self._reserve(self.live + 1)
        k = self.live
        self._cats[k], self._weight[k] = probs, successes
        self._pair(k)
        self.live += 1

    def _place(self, i: int) -> None:
        """Write dictionary i's merged category into its row, its pair row
        and its count."""
        k, p_min, total = self._merged[i]
        self._cats[k, i], self._weight[k] = p_min, total
        self._pairs[k, _pair_layout(self._cats.shape[1])[3][i]] = p_min * p_min

    def _pair(self, k: int) -> None:
        """Write row k's pair products."""
        first, second, _, _ = _pair_layout(self._cats.shape[1])
        row = self._cats[k]
        np.multiply(row[first], row[second], out=self._pairs[k])

    def categories(self) -> tuple[np.ndarray, np.ndarray, int]:
        """The rows and counts of every category, and the number of users
        outside them: the log-likelihood at q is ``weight @ log(max(cats @
        q, PROBABILITY_FLOOR))`` plus ln(floor) for each user outside, plus
        the merged categories' ``sum N ln(p / p_min)`` (see :func:`_value`).

        The rest comes last, with each dictionary's probability of the
        unguessed words, ``left``, as its row, while users remain and some
        dictionary gives it more than the floor.
        """
        # Each dictionary's probability of the rest, from the running column
        # totals, which add the rows in turn. For n >= 2 numpy's sum(axis=0)
        # over the rows adds them in the same order, to the same bits; with
        # one dictionary it sums the column pairwise, which may round apart.
        left = 1.0 - self.prob_totals
        rest = self.population - self.successes
        k, outside = self.live, self.population - self.live_successes
        if rest > 0 and max(left.tolist()) > PROBABILITY_FLOOR:
            self._cats[k], self._weight[k] = left, rest
            k, outside = k + 1, outside - rest
        return self._cats[:k], self._weight[:k], outside

    def pair_rows(self, k: int) -> np.ndarray:
        """The pair rows of the first ``k`` rows that :meth:`categories`
        returned: row c holds a_ci a_cj for each pair i <= j, in row-major
        order. The rest's, if it is among them, is formed here from its row,
        once per call."""
        if k > self.live:
            self._pair(self.live)
        return self._pairs[:k]


def log_likelihood(corpus: Corpus, weights, history: GuessHistory) -> float:
    """Censored-multinomial log-likelihood of ``weights`` given ``history``,
    evaluated on the categories that :func:`estimate` reads, each floored at
    ``PROBABILITY_FLOOR``: a merged category as a whole (see
    :class:`HistoryArrays`), so where a floor binds it may differ from
    flooring each word on its own.

    The rest's probability is ``left @ q``, with ``left_i = 1 - sum_j
    p_i(k_j)`` each dictionary's probability of its unguessed words; on the
    simplex that is ``1 - sum_j Q_{k_j}``. ``weights`` may be a
    MixtureWeights or any length-n sequence; the value is well defined off
    the simplex too, which the finite-difference checks rely on. An empty
    history gives N ln(sum_i q_i): exactly 0 where the weights sum to 1.
    """
    return _value(*HistoryArrays.of(corpus, history), _weight_vector(weights, len(corpus)))


def _value(arrays: HistoryArrays, merged: float, q: np.ndarray) -> float:
    """The floored objective at ``q``, given ``arrays`` and ``merged`` as
    :meth:`HistoryArrays.of` returns them. The merged category of dictionary
    i counts ``W ln max(q_i, PROBABILITY_FLOOR / p_min)`` and its guesses
    ``sum N ln p``: the ``W ln max(p_min q_i, PROBABILITY_FLOOR)`` and ``sum
    N ln(p / p_min)`` of the objective, without their large terms that
    cancel where p_min is far below the other p."""
    cats, weight, outside = arrays.categories()
    observed = np.maximum(cats.dot(q), PROBABILITY_FLOOR)
    for i, (k, p_min, _) in arrays._merged.items():
        observed[k] = max(q[i], PROBABILITY_FLOOR / p_min)
    return float(weight.dot(np.log(observed)) + (outside * _LOG_FLOOR + merged))


def gradient(corpus: Corpus, weights, history: GuessHistory) -> np.ndarray:
    """Analytic gradient of :func:`log_likelihood` with respect to the weights.

    Component i is

        sum_j N_j * p_i(k_j) / Q_{k_j}  +  (N - sum_j N_j) * left_i / (left . q)

    with ``left_i = 1 - sum_j p_i(k_j)``, the same categories and the same
    floor as the objective. A term the floor binds, a category at most
    ``PROBABILITY_FLOOR`` (a guessed word, a merged category as a whole, or
    a rest when every dictionary's words are all guessed), is a constant of
    the objective and adds nothing here.
    """
    q = _weight_vector(weights, len(corpus))
    cats, weight, _ = HistoryArrays.of(corpus, history)[0].categories()
    observed = cats.dot(q)
    live = observed > PROBABILITY_FLOOR
    return cats.T.dot(np.where(live, weight, 0.0) / np.where(live, observed, 1.0))


StepCallback = Callable[[int, MixtureWeights, float], None]
GainCallback = Callable[[int, np.ndarray, float | None], None]


def estimate(corpus: Corpus, history: GuessHistory, init: MixtureWeights,
             on_step: StepCallback | None = None) -> tuple[MixtureWeights, float, int]:
    """Maximize the log-likelihood from ``init`` by active-set Newton ascent.

    The descent reads only its categories: each guessed word with successes
    that some dictionary gives more than ``PROBABILITY_FLOOR``, those that
    only one dictionary ranks merged into one category per dictionary (see
    :class:`HistoryArrays`), and the rest while users remain and some
    dictionary gives it more than the floor. Every
    other term of the objective is a constant, and adds nothing to its
    gradient. Each step solves the Newton system on the face of the simplex the
    iterate lies on, widened by the empty coordinates whose gradient beats
    g . q, keeping the sum of the weights. Where fewer than two coordinates are
    free, or the Newton direction does not ascend or gains nothing, the step is
    a pairwise Frank-Wolfe step instead: towards the best vertex and away from
    the worst vertex in the support. Every step is damped the same way: it
    starts at the unit step, or at the simplex boundary when that is nearer
    (coordinates that reach the boundary become exactly 0), and is halved until
    the point it reaches leaves every category above ``PROBABILITY_FLOOR`` and
    gains at least ``ARMIJO`` times its first-order prediction. So no step ends
    on a face where an observed word has probability 0; a start on such a face
    is first moved halfway to the uniform point, which counts as a step. Where
    neither direction gains, the descent stops, with the gap it has.

    Stops once the Frank-Wolfe gap max_i g_i - g . q is at most
    ``GAP_TOL * population`` nats: the log-likelihood is concave, so that
    gap bounds how far it is below its maximum. Its gradient is that of
    :func:`gradient`, which reads the same categories. The step cap of the
    default :class:`DescentConfig`, 100 steps, only guards against a descent
    that does not get there. Where there is no category, the objective is
    constant: its gradient is 0, so the first gap test returns the start.

    Returns (weights, final log-likelihood, steps taken). The log-likelihood
    is that of ``init`` plus the gain of each step, summed from log1p terms
    so that small gains are not lost to rounding; it is never below that of
    ``init``. The gains are added in the order of the steps to the start's
    value. A start is valued afresh: the first point, and the point halfway
    to uniform that replaces a first point the floor binds. If given,
    ``on_step(index, weights, loglik)`` is called for the initial point
    (index 0) and after every step.

    ``init`` may be a MixtureWeights or any length-n sequence; a sequence of
    the wrong shape raises DimensionMismatch, and one that is not a point of
    the simplex raises MixtureWeights' ValueError, before any step.
    """
    w = _weight_vector(init, len(corpus))
    if not isinstance(init, MixtureWeights):
        MixtureWeights(w.tolist())
    arrays, merged = HistoryArrays.of(corpus, history)
    cats, loglik = arrays.categories()[0], -np.inf

    def track(index: int, point: np.ndarray, gain: float | None) -> None:
        nonlocal loglik
        if gain is not None:
            loglik += gain
        else:
            # Where every category is above the floor, the floored objective
            # is the unfloored one; elsewhere the descent counts it as -inf.
            floored = np.minimum.reduce(cats.dot(point), initial=1.0) <= PROBABILITY_FLOOR
            loglik = -np.inf if floored else _value(arrays, merged, point)
        if on_step is not None:
            on_step(index, MixtureWeights(point), loglik)

    weights, steps = maximize(arrays, w, on_step=track)
    return weights, loglik, steps


def maximize(arrays: HistoryArrays, w: np.ndarray, cfg: DescentConfig = DescentConfig(),
             on_step: GainCallback | None = None) -> tuple[MixtureWeights, int]:
    """The descent of :func:`estimate` on an attack's :class:`HistoryArrays`
    from the start ``w``: the weights reached and the steps taken.

    If given, ``on_step(index, point, gain)`` is called for the start (index
    0) and after every step, with the point as an array and the step's gain.
    The gain is None for a start: the first point, and the point halfway to
    uniform that replaces a first point the floor binds.

    It computes no log-likelihood, only gains: an attack needs only the
    estimate, so ``record_observation`` evaluates neither the start's ``log``
    over the categories nor its product with their counts. :func:`estimate`
    values the start itself and adds each gain to it, in the order of the
    steps.

    Minus the Hessian, ``sum_c s_c a_c a_c^T`` with ``s = weight /
    observed**2``, is one product ``s . pairs`` with the categories' pair
    rows (see :meth:`HistoryArrays.pair_rows`): its n(n + 1) / 2 entries,
    unpacked into an n x n list that is exactly symmetric. Its entries
    round apart from those of ``cats.T * s`` times ``cats`` in the last
    places. The gradient, ``g . q``, the floor test and each step read
    ``cats`` alone, so the gap a descent stops at is the gap of
    :func:`gradient` at its estimate, bit for bit.
    """
    cats, weight, _ = arrays.categories()
    pairs, unpack = arrays.pair_rows(weight.size), _pair_layout(w.size)[2]

    # Products call ndarray.dot, not the @ operator: both reach the same
    # BLAS routine, to the same bits, but @ goes through numpy's matmul
    # gufunc, whose dispatch costs more than the arithmetic at these sizes.
    observed, steps = cats.dot(w), 0
    if on_step is not None:
        on_step(0, w, None)
    if np.minimum.reduce(observed, initial=1.0) <= PROBABILITY_FLOOR:
        w = 0.5 * (w + 1.0 / w.size)
        observed, steps = cats.dot(w), 1
        if on_step is not None:
            on_step(1, w, None)
        if np.minimum.reduce(observed, initial=1.0) <= PROBABILITY_FLOOR:
            # the floor binds everywhere: nothing to climb
            return MixtureWeights(w.tolist()), steps
    tolerance = GAP_TOL * arrays.population
    cats_t = cats.T
    while steps < cfg.max_steps:
        ratio = weight / observed
        grad = cats_t.dot(ratio)
        lam = float(grad.dot(w))
        g, q = grad.tolist(), w.tolist()
        if max(g) - lam <= tolerance:
            break
        # minus the Hessian: sum_c C_c a_c a_c^T / (a_c . q)^2
        hessian = (ratio / observed).dot(pairs)[unpack].tolist()
        d = _newton_direction(hessian, g, q, lam)
        moved = None
        if d is not None and (slope := float(grad.dot(direction := np.array(d)))) > 0:
            moved = _step(w, direction, q, d, slope, cats, weight, observed)
        if moved is None:
            # Pairwise Frank-Wolfe: towards the best vertex, away from the
            # worst one in the support. Its slope is at least the gap.
            best = g.index(max(g))
            worst = min((i for i, x in enumerate(q) if x > 0), key=g.__getitem__)
            d = [0.0] * w.size
            d[best], d[worst] = 1.0, -1.0
            moved = _step(w, np.array(d), q, d, g[best] - g[worst], cats, weight, observed)
        if moved is None:
            break  # neither direction gains
        w, observed, gain = moved
        steps += 1
        if on_step is not None:
            on_step(steps, w, gain)
    return MixtureWeights(w.tolist()), steps


def _step(w: np.ndarray, direction: np.ndarray, q: list[float], d: list[float], slope: float,
          cats: np.ndarray, weight: np.ndarray,
          observed: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """The damped step of :func:`estimate` from ``w`` along ``direction``,
    whose product with the gradient is ``slope``: the point reached, its
    category probabilities and its gain; None if 64 halvings find no step
    that gains. ``q`` and ``d`` are ``w`` and ``direction`` as lists, which
    the caller already holds. The gain is a sum of log1p terms, exact to its
    own rounding, where a difference of two values would lose the gains of
    the last steps.
    """
    # The ratio test: the longest step keeping w >= 0, and where it binds.
    limit, hits = np.inf, []
    for i, (x, di) in enumerate(zip(q, d)):
        if di < 0:
            r = x / -di
            if r < limit:
                limit, hits = r, [i]
            elif r == limit:
                hits.append(i)
    change = cats.dot(direction) / observed  # relative change of each category per unit step
    step = limit if limit < 1.0 else 1.0
    for _ in range(64):
        # A product with 1.0 is exact, so the unit step skips it.
        point = w + direction if step == 1.0 else w + step * direction
        if step == limit:
            for i in hits:
                point[i] = 0.0
        # No coordinate goes below 0, so none is clipped. Where d_i < 0, the
        # ratio r_i = fl(w_i / -d_i) is the float nearest the exact ratio,
        # so a float step below r_i is below the exact ratio: step * -d_i <
        # w_i, fl(step * -d_i) <= w_i by monotone rounding, and w_i + step *
        # d_i rounds to +0.0 or more. A step is at most the limit, the least
        # r_i, and below every r_i but the hits', which are set to 0 above;
        # the other coordinates only grow. (For w >= 0: a -0.0 in w keeps its
        # sign where d_i is -0.0.)
        new = cats.dot(point)
        if np.minimum.reduce(new) > PROBABILITY_FLOOR:
            gain = float(weight.dot(np.log1p(change if step == 1.0 else step * change)))
            if gain >= ARMIJO * step * slope:
                return point, new, gain
        step *= 0.5
    return None


def _newton_direction(c: list[list[float]], g: list[float], q: list[float],
                      lam: float) -> list[float] | None:
    """Newton step of the quadratic model on the free coordinates, the
    nonzero ones and the empty ones whose gradient beats ``lam`` = g . q,
    with the others fixed and the sum kept; None when fewer than two are
    free.

    ``c`` is minus the Hessian, ``g`` the gradient and ``q`` the point. The
    step d is written as d = Z u, where the last free coordinate balances
    the others, and u solves the reduced system a u = b, a = Z^T c Z and
    b = Z^T g. An empty coordinate the step would push negative is fixed at
    0 and the step solved again.

    A direction after a floored pivot may not ascend, from the rounding of
    ``c``, not from a re-solve. In sweep histories 890 and 2196 nothing is
    fixed, and an exact solve of the same floats gave the same negative
    slope: ``c``'s entries, about 1e5, rounded by about 1e-11, the size of
    ``a``, which came out asymmetric and indefinite while ``c`` was formed
    from the category rows. Formed from their pair rows (see
    :func:`maximize`), ``c`` is exactly symmetric and both ascend; of the
    sweep's 3,000 histories only 497 still meets a direction that does not,
    a flat one, where the 1 x 1 reduced system rounds to exactly 0.

    :func:`_reduced_direction` solves the reduced system; it is the
    reference, and it solves the 1 x 1 system and those of five or more free
    coordinates. Three free coordinates, a 2 x 2 system, are nearly every
    solve of an attack on three dictionaries, and four, a 3 x 3 system,
    most solves on four; there its loops cost more than the arithmetic, so
    :func:`_reduced_pair` and :func:`_reduced_triple` do the same float
    operations in the same order in straight-line code, to the same bits.
    Both end in :func:`_reduced_block`, the 2 x 2 elimination: the triple
    eliminates its first pivot and hands it the 2 x 2 system left.

    n is the number of dictionaries, a handful, so this works on Python
    lists: at that size they cost less than numpy's calls, and no LAPACK
    routine is loaded (``numpy.linalg.eigh`` alone added 0.8 MB of resident
    code pages).
    """
    # Where every coordinate of q >= 0 is positive, every one is free and
    # none can be fixed, so both scans are skipped: the same bits.
    n, positive = len(q), 0.0 not in q
    index = list(range(n)) if positive else [i for i, x in enumerate(q) if x > 0 or g[i] > lam]
    while (size := len(index)) >= 2:
        solve = (_reduced_pair if size == 3 else _reduced_triple if size == 4
                 else _reduced_direction)
        direction = solve(c, g, n, index)
        if positive:
            return direction
        free = [i for i in index if q[i] != 0 or not direction[i] < 0]
        if free == index:  # a sublist of index, so equal only if nothing was fixed
            return direction
        index = free
    return None


def _reduced_direction(c: list[list[float]], g: list[float], n: int,
                       index: list[int]) -> list[float]:
    """The length-n direction Z u of :func:`_newton_direction` on the free
    coordinates ``index``.

    The positive semidefinite ``a`` is eliminated in place, pivoting on the
    first of the largest remaining diagonal entries (pivoted Cholesky). A
    pivot at or below 1e-12 of the largest counts as zero (its part of u is
    0) only where the likelihood is flat: its eliminated right-hand side is
    at most 1e-12 * max|g|, the rounding scale of b's entries, differences
    g_i - g_last that cancel; or the whole diagonal is 0. Any other is kept,
    floored at the threshold, so a near-flat direction, such as two nearly
    equal dictionaries give, becomes a long step cut short at the boundary.
    """
    *head, last = index
    c_last, g_last = c[last], g[last]
    c_ll = c_last[last]
    a, b = [], []
    for i in head:
        row = c[i]
        row_last = row[last]
        a.append([row[j] - row_last - c_last[j] + c_ll for j in head])
        b.append(g[i] - g_last)
    remaining, order = list(range(len(b))), []
    threshold = 1e-12 * max([row[k] for k, row in enumerate(a)])
    while remaining:
        p = remaining[0]
        pivot = a[p][p]
        for i in remaining:
            if a[i][i] > pivot:
                p, pivot = i, a[i][i]
        remaining.remove(p)
        if not pivot > threshold:
            if not (threshold > 0 and abs(b[p]) > 1e-12 * max(map(abs, g))):
                continue
            pivot = a[p][p] = threshold
        order.append(p)
        row_p, b_p = a[p], b[p]
        for i in remaining:
            row_i = a[i]
            f = row_i[p] / pivot
            for j in remaining:
                row_i[j] -= f * row_p[j]
            b[i] -= f * b_p
    u = [0.0] * len(b)
    for k in range(len(order) - 1, -1, -1):
        p = order[k]
        row_p, total = a[p], 0
        for j in order[k + 1:]:
            total += row_p[j] * u[j]
        u[p] = (b[p] - total) / row_p[p]
    direction, total = [0.0] * n, 0
    for i, x in zip(head, u):
        direction[i] = x
        total += x
    # Added in turn from 0, not by sum(), which compensates its rounding
    # from Python 3.12 on: the same bits on every Python version.
    direction[last] = -total
    return direction


def _reduced_pair(c: list[list[float]], g: list[float], n: int,
                  index: list[int]) -> list[float]:
    """:func:`_reduced_direction` for three free coordinates, bit for bit:
    the reduced system is 2 x 2, and :func:`_reduced_block` solves it."""
    i, j, last = index
    c_i, c_j, c_last = c[i], c[j], c[last]
    c_il, c_jl, c_ll = c_i[last], c_j[last], c_last[last]
    a_ii = c_i[i] - c_il - c_last[i] + c_ll
    a_ij = c_i[j] - c_il - c_last[j] + c_ll
    a_ji = c_j[i] - c_jl - c_last[i] + c_ll
    a_jj = c_j[j] - c_jl - c_last[j] + c_ll
    g_last = g[last]
    u_i, u_j, _, _ = _reduced_block(a_ii, a_ij, a_ji, a_jj, g[i] - g_last, g[j] - g_last,
                                    1e-12 * max(a_ii, a_jj), g)
    direction = [0.0] * n
    # As the reference adds them: in turn from 0, in the order of ``index``.
    direction[i], direction[j], direction[last] = u_i, u_j, -(0.0 + u_i + u_j)
    return direction


def _reduced_triple(c: list[list[float]], g: list[float], n: int,
                    index: list[int]) -> list[float]:
    """:func:`_reduced_direction` for four free coordinates, bit for bit.

    The reduced system is 3 x 3. Its first pivot p is the first of the
    largest diagonal entries, and s and t are the other two in the order of
    ``index``. p is kept, floored or dropped by the reference's rule and,
    if kept, eliminates s and t; :func:`_reduced_block` solves the 2 x 2
    system left. Back-substitution for p adds the kept pivots' terms to a
    total that starts at 0, where two terms round the same in either order.
    """
    i, j, k, last = index
    c_last = c[last]
    c_ll = c_last[last]
    # a is not bitwise symmetric: a_ps and a_sp round apart.
    a_ii = c[i][i] - c[i][last] - c_last[i] + c_ll
    a_jj = c[j][j] - c[j][last] - c_last[j] + c_ll
    a_kk = c[k][k] - c[k][last] - c_last[k] + c_ll
    # The scan max() makes: p is the first of the largest diagonal entries.
    p, a_pp, s, a_ss, t, a_tt = i, a_ii, j, a_jj, k, a_kk
    if a_jj > a_pp:
        p, a_pp, s, a_ss = j, a_jj, i, a_ii
    if a_kk > a_pp:
        p, a_pp, s, a_ss, t, a_tt = k, a_kk, i, a_ii, j, a_jj
    threshold = 1e-12 * a_pp
    c_p, c_s, c_t = c[p], c[s], c[t]
    c_pl, c_sl, c_tl = c_p[last], c_s[last], c_t[last]
    c_lp, c_ls, c_lt = c_last[p], c_last[s], c_last[t]
    a_ps = c_p[s] - c_pl - c_ls + c_ll
    a_pt = c_p[t] - c_pl - c_lt + c_ll
    a_sp = c_s[p] - c_sl - c_lp + c_ll
    a_st = c_s[t] - c_sl - c_lt + c_ll
    a_tp = c_t[p] - c_tl - c_lp + c_ll
    a_ts = c_t[s] - c_tl - c_ls + c_ll
    g_last = g[last]
    b_p, b_s, b_t = g[p] - g_last, g[s] - g_last, g[t] - g_last
    keep_p = a_pp > threshold
    if not keep_p and threshold > 0 and abs(b_p) > 1e-12 * max(map(abs, g)):
        a_pp, keep_p = threshold, True
    if keep_p:
        f = a_sp / a_pp
        a_ss -= f * a_ps
        a_st -= f * a_pt
        b_s -= f * b_p
        f = a_tp / a_pp
        a_ts -= f * a_ps
        a_tt -= f * a_pt
        b_t -= f * b_p
    u_s, u_t, keep_s, keep_t = _reduced_block(a_ss, a_st, a_ts, a_tt, b_s, b_t, threshold, g)
    total = 0
    if keep_s:
        total += a_ps * u_s
    if keep_t:
        total += a_pt * u_t
    u_p = (b_p - total) / a_pp if keep_p else 0.0
    direction = [0.0] * n
    direction[p], direction[s], direction[t] = u_p, u_s, u_t
    # As the reference adds them: in turn from 0, in the order of ``index``.
    direction[last] = -(0.0 + direction[i] + direction[j] + direction[k])
    return direction


def _reduced_block(a_ss: float, a_st: float, a_ts: float, a_tt: float, b_s: float, b_t: float,
                   threshold: float, g: list[float]) -> tuple[float, float, bool, bool]:
    """The trailing 2 x 2 elimination of :func:`_reduced_direction`, bit for
    bit: u_s, u_t and whether the pivots of s and t were kept.

    The first pivot p is the larger diagonal entry, s on a tie, and o is
    the other. Each pivot is kept, floored or dropped by the reference's
    rule against ``threshold`` and the gradient ``g``, o is eliminated
    once if p is kept, and back-substitution adds to a total that starts
    at 0.
    """
    swap = a_tt > a_ss
    if swap:
        a_pp, a_po, b_p, a_op, a_oo, b_o = a_tt, a_ts, b_t, a_st, a_ss, b_s
    else:
        a_pp, a_po, b_p, a_op, a_oo, b_o = a_ss, a_st, b_s, a_ts, a_tt, b_t
    keep_p = a_pp > threshold
    if not keep_p and threshold > 0 and abs(b_p) > 1e-12 * max(map(abs, g)):
        a_pp, keep_p = threshold, True
    if keep_p:
        f = a_op / a_pp
        a_oo -= f * a_po
        b_o -= f * b_p
    keep_o = a_oo > threshold
    if not keep_o and threshold > 0 and abs(b_o) > 1e-12 * max(map(abs, g)):
        a_oo, keep_o = threshold, True
    u_o = b_o / a_oo if keep_o else 0.0
    u_p = (b_p - (0 + a_po * u_o if keep_o else 0)) / a_pp if keep_p else 0.0
    return (u_o, u_p, keep_o, keep_p) if swap else (u_p, u_o, keep_p, keep_o)
