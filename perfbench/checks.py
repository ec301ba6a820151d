"""Checks of the program's outputs that do not reuse the program's results.

The reference is built from the benchmark's own reading of the input files
and from a plain count of the password list; the rules are written out here
from the model (a censored multinomial over a dictionary mixture) and from
the documented guess policies. Only numpy and the standard library are used.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

FLOOR = 1e-12           # the model's floor on both logarithms
SIMPLEX_TOL = 1e-9      # documented tolerance of a point on the simplex
REL_TOL = 1e-9          # rounding allowance when comparing two evaluations
RULE_SAMPLES = 5        # guesses per attack whose policy rule is re-derived


@dataclass
class Reference:
    """What the benchmark knows about a workload without asking the program."""

    ranked: list[list[str]]     # per dictionary: words by count desc, then word
    index: dict[str, int]       # union vocabulary, sorted, word -> row
    matrix: np.ndarray          # row v, column i: count_i(v) / total_i
    counts: Counter             # password -> number of users
    optimal: np.ndarray         # cumulative users cracked by the optimal order
    population: int


def build_reference(dicts: list[dict[str, int]], passwords) -> Reference:
    vocab = sorted(set().union(*dicts))
    index = {w: v for v, w in enumerate(vocab)}
    matrix = np.zeros((len(vocab), len(dicts)))
    for i, d in enumerate(dicts):
        total = sum(d.values())
        for word, count in d.items():
            matrix[index[word], i] = count / total
    ranked = [sorted(d, key=lambda w: (-d[w], w)) for d in dicts]
    counts = Counter(passwords)
    optimal = np.cumsum(sorted(counts.values(), reverse=True))
    return Reference(ranked, index, matrix, counts, optimal, len(passwords))


def apportion(proportions, total: int) -> list[int]:
    """Largest-remainder apportionment in exact arithmetic; ties to the lower index."""
    shares = [Fraction(repr(p)) * total for p in proportions]
    base = [int(s) for s in shares]
    order = sorted(range(len(shares)), key=lambda i: (-(shares[i] - base[i]), i))
    for i in order[:total - sum(base)]:
        base[i] += 1
    return base


def check_composition(dicts, proportions, passwords, labels) -> list[str]:
    """Per-source user counts follow apportionment; each user's word is in its source."""
    failures = []
    want = apportion(proportions, len(passwords))
    got = Counter(labels)
    if [got.get(i, 0) for i in range(len(dicts))] != want:
        failures.append(f"source counts {dict(got)} != apportionment {want}")
    if any(word not in dicts[label] for word, label in zip(passwords, labels)):
        failures.append("a password is not in the dictionary it was drawn from")
    return failures


@dataclass
class Attack:
    """One attack's outputs as plain data."""

    init: str
    guess: str
    seed: int
    budget: int
    words: list[str]
    successes: list[int]
    cumulative: list[int]
    estimates: np.ndarray               # guess j -> estimate after guess j
    starts: np.ndarray | None = None    # descent start points, when captured

    @classmethod
    def from_trace(cls, trace, starts=None) -> "Attack":
        records = trace.records
        n = len(records[0].estimate) if records else 0
        return cls(trace.init_policy.value, trace.guess_policy.value, trace.seed,
                   trace.guess_budget, [r.word for r in records],
                   [r.successes for r in records], [r.cumulative for r in records],
                   np.array([r.estimate.q for r in records]).reshape(len(records), n),
                   None if starts is None else np.array([s.q for s in starts]))

    def to_bytes(self, guesses: int | None = None) -> bytes:
        """The first ``guesses`` records (all by default) as exact text."""
        rows = [f"{w}\t{s}\t{c}\t" + ",".join(repr(float(x)) for x in q)
                for w, s, c, q in zip(self.words, self.successes, self.cumulative, self.estimates)]
        return "\n".join(rows[:guesses]).encode()


def log_likelihoods(probs: np.ndarray, successes: np.ndarray, population: int,
                    points: np.ndarray) -> np.ndarray:
    """Entry j: log-likelihood of ``points[j]`` given the first j+1 observations."""
    m = len(successes)
    observed = probs @ points.T                      # [k, j]: Q_k under point j
    upto = np.triu(np.ones((m, m), dtype=bool))      # observation k is in history j iff k <= j
    hits = np.where(upto, np.log(np.maximum(observed, FLOOR)) * successes[:, None], 0.0).sum(0)
    rest = np.maximum(1.0 - np.where(upto, observed, 0.0).sum(0), FLOOR)
    return hits + (population - np.cumsum(successes)) * np.log(rest)


def _next_unguessed(ranked: list[str], guessed: set[str]) -> str | None:
    return next((w for w in ranked if w not in guessed), None)


def _rule_failure(ref: Reference, attack: Attack, j: int, q: np.ndarray) -> str | None:
    guessed = set(attack.words[:j])
    word = attack.words[j]
    nexts = [_next_unguessed(r, guessed) for r in ref.ranked]
    if attack.guess == "by-q":
        scores = ref.matrix @ q
        scores[[ref.index[w] for w in guessed]] = -np.inf
        best = scores.max()
        if scores[ref.index[word]] < best - REL_TOL * abs(best):
            return f"guess {j + 1}: by-q picked {word!r}, not a maximiser of q . p(w)"
    elif attack.guess == "best-dict":
        top = max(q[i] for i, w in enumerate(nexts) if w is not None)
        if word not in {w for i, w in enumerate(nexts) if w is not None and q[i] >= top - FLOOR}:
            return f"guess {j + 1}: best-dict picked {word!r}, not the next word of a top dictionary"
    elif word not in nexts:
        return f"guess {j + 1}: random-dict picked {word!r}, no dictionary's next word"
    return None


def rule_samples(attack: Attack) -> range:
    """Indices of the guesses whose policy rule is re-derived, fixed by the seed.

    A guess is chosen by the previous descent's estimate; the first guess of
    a random-init attack depends on an undisclosed draw, so it is skipped.
    """
    m = len(attack.words)
    stride = max(1, m // RULE_SAMPLES)
    first = 1 if attack.init == "random" else 0
    return range(first + attack.seed % stride, m, stride)


def check_attack(ref: Reference, attack: Attack) -> list[str]:
    """Every failed property of one attack, as messages; empty when it passes."""
    failures = []
    m, n = len(attack.words), ref.matrix.shape[1]
    if m != attack.budget:
        failures.append(f"{m} guesses made, budget {attack.budget}")
    if m == 0:
        return failures
    if len(set(attack.words)) != m:
        failures.append("a word is guessed twice")
    if any(w not in ref.index for w in attack.words):
        return failures + ["a guess is outside the union vocabulary"]
    want = [ref.counts.get(w, 0) for w in attack.words]
    if attack.successes != want:
        j = next(j for j in range(m) if attack.successes[j] != want[j])
        failures.append(f"guess {j + 1}: {attack.successes[j]} successes, the list has {want[j]}")
    running = np.cumsum(attack.successes)
    if list(running) != attack.cumulative:
        failures.append("cumulative counts are not running sums")
    bound = ref.optimal[np.minimum(np.arange(m), len(ref.optimal) - 1)]
    if np.any(np.asarray(attack.cumulative) > bound):
        failures.append("cumulative count exceeds the optimal order")
    q = attack.estimates
    if (q.shape != (m, n) or np.any(q < 0) or np.any(np.abs(q.sum(1) - 1.0) > SIMPLEX_TOL)):
        return failures + ["an estimate is off the simplex"]

    uniform = np.full((1, n), 1.0 / n)
    if attack.starts is not None:
        starts = attack.starts
    elif attack.init == "average":
        starts = np.repeat(uniform, m, axis=0)
    elif attack.init == "best":
        starts = np.vstack([uniform, q[:-1]])
    else:
        starts = None               # a random start is known only when captured
    if starts is not None:
        probs = ref.matrix[[ref.index[w] for w in attack.words]]
        got = log_likelihoods(probs, np.asarray(attack.successes, float), ref.population, q)
        base = log_likelihoods(probs, np.asarray(attack.successes, float), ref.population, starts)
        worse = np.nonzero(got < base - REL_TOL * np.maximum(1.0, np.abs(base)))[0]
        if worse.size:
            failures.append(f"descent {worse[0] + 1}: log-likelihood below its start point")

    for j in rule_samples(attack):
        prev = q[j - 1] if j else uniform[0]
        message = _rule_failure(ref, attack, j, prev)
        if message:
            failures.append(message)
            break
    return failures


def report_failures(label: str, failures: list[str]) -> None:
    for message in failures:
        print(f"perfbench: {label}: {message}", file=sys.stderr)
