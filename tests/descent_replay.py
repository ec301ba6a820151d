"""What one solver step costs on the descents of the acceptance instance.

Runs the six attack slots of the benchmark's ``mixed-attack`` workload (the
random-dict, best-dict and by-q policies, each under ``average`` and
``random`` init, 100 guesses, attack seeds 0 to 5) on
``overlap_corpus(3, 1000, 400, 0.4, seed=1000)`` with 10,000 users at
(0.6, 0.3, 0.1), captures every descent the attacks run, and replays
:func:`pwbandit.mixture.maximize` on them in-process. Run

    PYTHONPATH=src python tests/descent_replay.py [repetitions] [out.json]

to print

- the replay's wall-clock microseconds per step, the minimum and the median
  over ``repetitions`` (default 20) replays of every descent;
- per guess, counts that do not depend on the host: solver steps, and the
  C-level and Python calls of the attacks, counted with ``sys.setprofile``;

and check that each replayed descent returns what it returned in its attack.
With ``out.json`` it also writes one record per descent (its steps,
log-likelihood and estimate) to compare two trees descent by descent.
"""

import json
import statistics
import sys
import time

from helpers import overlap_corpus
from pwbandit import (GuessPolicy, InitPolicy, MixtureWeights, bandit, compose_password_set,
                      run_attack)
from pwbandit.mixture import maximize

SLOTS = tuple((init, guess) for init in (InitPolicy.AVERAGE, InitPolicy.RANDOM)
              for guess in (GuessPolicy.RANDOM_DICTIONARY, GuessPolicy.BEST_DICTIONARY,
                            GuessPolicy.BY_Q))
BUDGET = 100


class Captured:
    """A descent as :func:`maximize` reads it: the categories, the
    population and the start, with the result it gave in its attack."""

    def __init__(self, arrays, w, cfg):
        cats, weight, constant = arrays.categories()
        self.population = arrays.population
        self._categories = cats.copy(), weight.copy(), constant
        self.start, self.cfg, self.result = w.copy(), cfg, None

    def categories(self):
        return self._categories


def acceptance_instance():
    """The corpus and password set the slots attack."""
    corpus = overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000)
    return corpus, compose_password_set(corpus, MixtureWeights((0.6, 0.3, 0.1)), 10_000, seed=42)


def attacks(corpus, ps) -> int:
    """Run the six slots; return the guesses they made."""
    return sum(len(run_attack(corpus, ps, init, guess, BUDGET, seed=slot).words)
               for slot, (init, guess) in enumerate(SLOTS))


def capture(corpus, ps) -> tuple[list[Captured], int]:
    """Every descent of the six slots, and the guesses they made."""
    descents = []

    def capturing(arrays, w, cfg, on_step=None):
        descents.append(Captured(arrays, w, cfg))
        descents[-1].result = maximize(arrays, w, cfg, on_step)
        return descents[-1].result

    bandit.maximize = capturing
    try:
        guesses = attacks(corpus, ps)
    finally:
        bandit.maximize = maximize
    return descents, guesses


def calls(corpus, ps) -> tuple[int, int]:
    """The C-level and Python calls of the six slots."""
    counts = {"c_call": 0, "call": 0}

    def count(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(count)
    try:
        attacks(corpus, ps)
    finally:
        sys.setprofile(None)
    return counts["c_call"], counts["call"]


def replay(descents: list[Captured]) -> float:
    """Seconds to run every descent once; each must return its attack's result."""
    start = time.perf_counter()
    results = [maximize(d, d.start.copy(), d.cfg) for d in descents]
    elapsed = time.perf_counter() - start
    differ = sum(r != d.result for r, d in zip(results, descents))
    if differ:
        raise SystemExit(f"{differ} of {len(descents)} replayed descents differ from their attack")
    return elapsed


if __name__ == "__main__":
    repetitions = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    corpus, ps = acceptance_instance()
    descents, guesses = capture(corpus, ps)
    steps = sum(d.result[2] for d in descents)
    times = [replay(descents) for _ in range(repetitions)]
    c_calls, py_calls = calls(corpus, ps)
    if len(sys.argv) > 2:
        with open(sys.argv[2], "w", encoding="utf-8") as handle:
            json.dump([{"descent": k, "steps": d.result[2], "loglik": d.result[1],
                        "q": list(d.result[0].q)} for k, d in enumerate(descents)], handle)
    per_step = [1e6 * t / steps for t in times]
    print(f"{len(descents)} descents, {steps} steps over {guesses} guesses; replay "
          f"{min(per_step):.2f} us a step at best, median {statistics.median(per_step):.2f} "
          f"over {repetitions}; per guess {steps / guesses:.2f} steps, "
          f"{c_calls / guesses:.1f} C-level calls, {py_calls / guesses:.1f} Python calls")
