"""How often ``estimate`` ends without its certificate, on random histories
over corpora with near-duplicate dictionaries.

Each of the histories (numpy rng seed 0) draws:

- n from 2 to 8 dictionaries over a vocabulary of 5 to 60 words. A
  dictionary is, with probability 0.3, an earlier one plus 1 to 3 words of
  count 1; otherwise a random subset of the vocabulary with Pareto counts
  scaled by 10 to 10^5, plus one ``rest`` word that holds up to 30 times
  their total;
- a population of 10^3 to 10^6 users, a Dirichlet mixture, a random prefix
  of a random order of the union vocabulary, and binomial successes for
  each guess, drawn in turn from the users left;
- a Dirichlet start for the descent.

A descent is certified when the Frank-Wolfe gap of :func:`gradient` at its
estimate is at most ``GAP_TOL`` per user. Run

    PYTHONPATH=src python tests/certification_sweep.py [histories] [out.json]

to print the uncertified and capped counts, the largest gap, the mean,
median and 99th percentile of the steps, how many Newton directions did not
ascend (slope <= 0) and how many pairwise Frank-Wolfe steps were taken, and
optionally write one record per history (its steps, gap per user,
log-likelihood, estimate and those two counts) to compare two trees descent
by descent.
"""

import json
import sys

import numpy as np

from pwbandit import (Corpus, DescentConfig, Dictionary, GuessHistory, MixtureWeights, estimate,
                      gradient, mixture)
from pwbandit.mixture import GAP_TOL


def instance(rng):
    """One corpus, history and start, drawn as the module docstring says."""
    n = int(rng.integers(2, 9))
    size = int(rng.integers(5, 61))
    scale = 10.0 ** rng.uniform(1, 5)
    dictionaries = []
    for i in range(n):
        if i and rng.random() < 0.3:
            source = dictionaries[int(rng.integers(i))]
            base = tuple(zip(source.words, source.counts))
            entries = base + tuple((f"r{i}_{j}", 1) for j in range(int(rng.integers(1, 4))))
        else:
            k = int(rng.integers(1, size + 1))
            words = rng.choice(size, k, replace=False)
            counts = np.ceil(scale * (1 + rng.pareto(1.0, k))).astype(np.int64)
            rest = int(counts.sum() * rng.uniform(0, 30)) + 1
            entries = tuple((f"w{w}", int(c)) for w, c in zip(words, counts))
            entries += ((f"rest{i}", rest),)
        dictionaries.append(Dictionary(f"d{i}", entries))
    corpus = Corpus(tuple(dictionaries))
    truth = rng.dirichlet(np.ones(n))
    population = int(10 ** rng.uniform(3, 6))
    vocabulary = corpus.union_vocabulary
    order = [vocabulary[j] for j in rng.permutation(len(vocabulary))]
    order = order[:int(rng.integers(1, len(order) + 1))]
    mass = corpus.probability_rows(order) @ truth
    left, remaining, observations = population, 1.0, []
    for word, p in zip(order, mass):
        successes = int(rng.binomial(left, min(max(p / remaining, 0.0), 1.0))) if remaining > 0 else 0
        observations.append((word, successes))
        left -= successes
        remaining -= p
    return corpus, GuessHistory(population, tuple(observations)), rng.dirichlet(np.ones(n))


def sweep(histories: int = 3000) -> list[dict]:
    rng = np.random.default_rng(0)
    records = []
    newton, step = mixture._newton_direction, mixture._step
    last, counts = [None], {}

    def direction(c, g, q, lam):
        d = last[0] = newton(c, g, q, lam)
        counts["not_ascending"] += d is not None and float(np.dot(g, d)) <= 0
        return d

    def stepped(w, direction, q, d, *args):
        moved = step(w, direction, q, d, *args)
        # maximize hands _step the Newton direction's own list, or a new one
        # for the pairwise step.
        counts["pairwise"] += d is not last[0] and moved is not None
        return moved

    mixture._newton_direction, mixture._step = direction, stepped
    try:
        for k in range(histories):
            corpus, history, start = instance(rng)
            counts.update(not_ascending=0, pairwise=0)
            weights, loglik, steps = estimate(corpus, history, MixtureWeights(start / start.sum()))
            g = gradient(corpus, weights, history)
            gap = float(g.max() - g @ np.asarray(weights)) / history.population
            records.append({"history": k, "n": len(corpus), "population": history.population,
                            "steps": steps, "gap": gap, "loglik": loglik, "q": list(weights.q),
                            **counts})
    finally:
        mixture._newton_direction, mixture._step = newton, step
    return records


if __name__ == "__main__":
    records = sweep(int(sys.argv[1]) if len(sys.argv) > 1 else 3000)
    if len(sys.argv) > 2:
        with open(sys.argv[2], "w", encoding="utf-8") as handle:
            json.dump(records, handle)
    cap, steps = DescentConfig().max_steps, [r["steps"] for r in records]
    print(f"uncertified {sum(r['gap'] > GAP_TOL for r in records)} of {len(records)}, "
          f"at the step cap {sum(s >= cap for s in steps)}, "
          f"largest gap per user {max(r['gap'] for r in records):.3g}; steps mean "
          f"{np.mean(steps):.1f}, median {np.median(steps):g}, 99th percentile {np.percentile(steps, 99):g}; "
          f"Newton directions with slope <= 0 {sum(r['not_ascending'] for r in records)} (histories "
          f"{[r['history'] for r in records if r['not_ascending']]}), pairwise steps taken "
          f"{sum(r['pairwise'] for r in records)}")
