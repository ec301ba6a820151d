"""What one solver step costs on the descents of the benchmark's attacks.

Runs three instances, captures every descent their attacks run, and replays
:func:`pwbandit.mixture.maximize` on them in-process:

- ``mixed-attack``: the six attack slots of the benchmark's workload of that
  name (the random-dict, best-dict and by-q policies, each under ``average``
  and ``random`` init, 100 guesses, attack seeds 0 to 5) on
  ``overlap_corpus(3, 1000, 400, 0.4, seed=1000)`` with 10,000 users at
  (0.6, 0.3, 0.1);
- ``large-vocab``: the four slots of the workload of that name (by-q under
  ``average`` and ``random`` init, best-dict under ``best``, random-dict
  under ``random``, 25 guesses, attack seeds 0 to 3) on the four-dictionary
  ``overlap_corpus(4, 100000, 40000, 0.9, seed=2020)`` with 200,000 users at
  (0.4, 0.3, 0.2, 0.1), so that most Newton systems have four free
  coordinates;
- ``long-budget``: the three slots of the workload of that name (each guess
  policy under ``best`` init, 1,000 guesses, attack seeds 0 to 2) on the
  corpus and users of ``mixed-attack``, where the histories grow long.

Run

    PYTHONPATH=src python tests/descent_replay.py [repetitions] [out.json]

to print, for each instance,

- the replay's wall-clock microseconds per step, the minimum and the median
  over ``repetitions`` (default 20) replays of every descent;
- per guess, counts that do not depend on the host: solver steps, and the
  C-level and Python calls of the attacks, counted with ``sys.setprofile``;
- the live categories a descent reads (its history's word categories, the
  rest not counted): their mean over the descents, and their least and
  largest number at the last guess of a slot;
- how many of the Newton directions start with three and with four free
  coordinates;
- how many Newton systems went to ``_reduced_pair`` and ``_reduced_triple``
  in one replay, and how many of their solves differ in bits from
  ``_reduced_direction``'s solve of the same system, which must be 0;

and, per guess, the C-level calls of the attacks by the function that
makes them, with the C functions each calls most; and check that each
replayed descent returns what it returned in its attack. With ``out.json``
it also writes one record per descent (its instance, steps, log-likelihood
and estimate) to compare two trees descent by descent. An attack's descent
computes no log-likelihood, so a record's is that of :func:`pwbandit.estimate`
from the same start on the attack's guesses so far, whose weights and steps
must be the descent's: the start's value plus each step's gain, in order.
"""

import json
import statistics
import struct
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

from helpers import overlap_corpus
from pwbandit import (Corpus, GuessHistory, GuessPolicy, InitPolicy, MixtureWeights, bandit,
                      compose_password_set, estimate, mixture, run_attack)
from pwbandit.mixture import maximize


@dataclass(frozen=True)
class Instance:
    """A corpus, the password set composed from it, and the attack slots."""

    corpus: Callable[[], Corpus]
    proportions: tuple[float, ...]
    users: int
    budget: int
    slots: tuple[tuple[InitPolicy, GuessPolicy], ...]


POLICIES = (GuessPolicy.RANDOM_DICTIONARY, GuessPolicy.BEST_DICTIONARY, GuessPolicy.BY_Q)
INSTANCES = {
    "mixed-attack": Instance(
        lambda: overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000), (0.6, 0.3, 0.1),
        10_000, 100,
        tuple((init, guess) for init in (InitPolicy.AVERAGE, InitPolicy.RANDOM)
              for guess in POLICIES)),
    "large-vocab": Instance(
        lambda: overlap_corpus(4, 100_000, 40_000, exponent=0.9, seed=2020),
        (0.4, 0.3, 0.2, 0.1), 200_000, 25,
        ((InitPolicy.AVERAGE, GuessPolicy.BY_Q), (InitPolicy.RANDOM, GuessPolicy.BY_Q),
         (InitPolicy.BEST, GuessPolicy.BEST_DICTIONARY),
         (InitPolicy.RANDOM, GuessPolicy.RANDOM_DICTIONARY))),
    "long-budget": Instance(
        lambda: overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000), (0.6, 0.3, 0.1),
        10_000, 1000, tuple((InitPolicy.BEST, guess) for guess in POLICIES)),
}
SOLVERS = ("_reduced_pair", "_reduced_triple", "_reduced_direction")


class Captured:
    """A descent as :func:`maximize` reads it: the categories, their pair
    rows, the population and the start, with the number of live categories,
    the result it gave in its attack (the weights and the steps) and the
    attack's guesses it was run on."""

    def __init__(self, arrays, w, cfg):
        cats, weight, outside = arrays.categories()
        self.population, self.live = arrays.population, arrays.live
        self._categories = cats.copy(), weight.copy(), outside
        self._pairs = arrays.pair_rows(weight.size).copy()
        self.start, self.cfg, self.result, self.history = w.copy(), cfg, None, None

    def categories(self):
        return self._categories

    def pair_rows(self, k):
        assert k == len(self._pairs)
        return self._pairs


def password_set(instance: Instance):
    """The corpus and password set the slots attack."""
    corpus = instance.corpus()
    return corpus, compose_password_set(corpus, MixtureWeights(instance.proportions),
                                        instance.users, seed=42)


def attacks(instance: Instance, corpus, ps) -> int:
    """Run the slots; return the guesses they made."""
    return sum(len(run_attack(corpus, ps, init, guess, instance.budget, seed=slot).words)
               for slot, (init, guess) in enumerate(instance.slots))


def capture(instance: Instance, corpus, ps) -> tuple[list[Captured], list[int], int]:
    """Every descent of the slots, the live categories of each slot's last
    descent, and the guesses they made. The j-th descent of an attack
    follows its j-th guess."""
    descents, last = [], []

    def capturing(arrays, w, cfg, on_step=None):
        descents.append(Captured(arrays, w, cfg))
        descents[-1].result = maximize(arrays, w, cfg, on_step)
        return descents[-1].result

    bandit.maximize = capturing
    try:
        guesses = 0
        for slot, (init, guess) in enumerate(instance.slots):
            first = len(descents)
            trace = run_attack(corpus, ps, init, guess, instance.budget, seed=slot)
            observations = tuple(zip(trace.words, trace.counts[:, 0].tolist()))
            for j, d in enumerate(descents[first:], start=1):
                d.history = GuessHistory(ps.size, observations[:j])
            guesses += len(trace.words)
            last.append(descents[-1].live)
    finally:
        bandit.maximize = maximize
    return descents, last, guesses


def calls(instance: Instance, corpus, ps) -> tuple[dict[str, Counter], int]:
    """The C-level calls of the slots, by the function that makes them and
    the C function called, and the count of their Python calls."""
    by_caller, python = defaultdict(Counter), [0]

    def count(frame, event, arg):
        if event == "c_call":
            by_caller[frame.f_code.co_qualname][getattr(arg, "__qualname__", arg.__name__)] += 1
        elif event == "call":
            python[0] += 1

    sys.setprofile(count)
    try:
        attacks(instance, corpus, ps)
    finally:
        sys.setprofile(None)
    return by_caller, python[0]


def breakdown(by_caller: dict[str, Counter], guesses: int, least: float = 0.05) -> str:
    """Lines of C-level calls per guess by the function that makes them,
    most first, each with its three most called C functions; callers below
    ``least`` a guess are left out."""
    lines = []
    for caller, callees in sorted(by_caller.items(), key=lambda item: -item[1].total()):
        if callees.total() >= least * guesses:
            top = ", ".join(f"{name} {n / guesses:.2f}" for name, n in callees.most_common(3))
            lines.append(f"  {caller:32} {callees.total() / guesses:6.2f}  ({top})")
    return "\n".join(lines)


def solves(descents: list[Captured]) -> tuple[Counter, int, int]:
    """One replay's solves: how many Newton directions start with each
    number of free coordinates (the size of the first reduced solve of
    each), how many systems go to the straight-line solvers, and how many
    of those differ in bits from the reference's solve of the same system."""
    newton, reference = mixture._newton_direction, mixture._reduced_direction
    solvers = {name: getattr(mixture, name) for name in SOLVERS if hasattr(mixture, name)}
    first, checked = [], [0, 0]

    def direction(*args):
        first.append(None)
        return newton(*args)

    def sized(solve):
        def recorded(c, g, n, index):
            if first[-1] is None:
                first[-1] = len(index)
            got = solve(c, g, n, index)
            if solve is not reference:
                want = reference(c, g, n, index)
                checked[0] += 1
                checked[1] += struct.pack(f"{n}d", *got) != struct.pack(f"{n}d", *want)
            return got
        return recorded

    mixture._newton_direction = direction
    for name, solve in solvers.items():
        setattr(mixture, name, sized(solve))
    try:
        for d in descents:
            maximize(d, d.start.copy(), d.cfg)
    finally:
        mixture._newton_direction = newton
        for name, solve in solvers.items():
            setattr(mixture, name, solve)
    return Counter(first), *checked


def replay(descents: list[Captured]) -> float:
    """Seconds to run every descent once; each must return its attack's result."""
    start = time.perf_counter()
    results = [maximize(d, d.start.copy(), d.cfg) for d in descents]
    elapsed = time.perf_counter() - start
    differ = sum(r != d.result for r, d in zip(results, descents))
    if differ:
        raise SystemExit(f"{differ} of {len(descents)} replayed descents differ from their attack")
    return elapsed


def record(name: str, corpus, k: int, d: Captured) -> dict:
    """The record of a descent, with the log-likelihood :func:`estimate`
    gives it on the attack's guesses so far; the weights and steps must be
    the attack's."""
    weights, loglik, steps = estimate(corpus, d.history, d.start.copy())
    if (weights, steps) != d.result:
        raise SystemExit(f"{name}: descent {k} differs from its attack when valued")
    return {"instance": name, "descent": k, "steps": steps, "loglik": loglik,
            "q": list(weights.q)}


if __name__ == "__main__":
    repetitions = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    records = []
    for name, instance in INSTANCES.items():
        corpus, ps = password_set(instance)
        descents, last, guesses = capture(instance, corpus, ps)
        steps = sum(d.result[1] for d in descents)
        live = statistics.fmean(d.live for d in descents)
        times = [replay(descents) for _ in range(repetitions)]
        by_caller, py_calls = calls(instance, corpus, ps)
        c_calls = sum(callees.total() for callees in by_caller.values())
        sizes, fast, differ = solves(descents)
        records += [record(name, corpus, k, d) for k, d in enumerate(descents)]
        per_step = [1e6 * t / steps for t in times]
        print(f"{name}: {len(descents)} descents, {steps} steps over {guesses} guesses; replay "
              f"{min(per_step):.2f} us a step at best, median "
              f"{statistics.median(per_step):.2f} over {repetitions}; per guess "
              f"{steps / guesses:.2f} steps, {c_calls / guesses:.1f} C-level calls, "
              f"{py_calls / guesses:.1f} Python calls; {live:.1f} live categories a "
              f"descent, {min(last)} to {max(last)} at the last guess; {sum(sizes.values())} Newton "
              f"directions, {sizes[3]} starting with three free coordinates, {sizes[4]} "
              f"with four; {fast} systems solved in straight-line code, {differ} of them "
              f"differing in bits from the reference's solve")
        print(f"{name}: C-level calls per guess, by the function that makes them\n"
              + breakdown(by_caller, guesses))
        if differ:
            raise SystemExit(f"{name}: {differ} straight-line solves differ from the reference")
        del corpus, ps, descents
    if len(sys.argv) > 2:
        with open(sys.argv[2], "w", encoding="utf-8") as handle:
            json.dump(records, handle)
