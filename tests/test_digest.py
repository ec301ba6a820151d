"""Bit-exact guard on the attack outputs of the acceptance instance.

One sha256 over every attack's words, the bytes of its ``counts`` column
and the bytes of its ``estimates`` column pins the last bit of each
estimate, which ``golden_outputs.json`` (9 significant digits on an 8-word
vocabulary) cannot see. ``DIGEST`` covers all nine init x guess configs at
seeds 0 and 1 with 100 guesses, and the three ``best``-init configs at seed
0 with 1,000 guesses, on three dictionaries. ``OTHER_SIZES_DIGEST`` covers
two and four dictionaries, where the solver's reduced Newton systems are
1 x 1 and 3 x 3: all nine configs at seed 0 with 100 guesses, and one
``best``/``by-q`` attack of 500 guesses, on each corpus.
``SIX_DICTIONARIES_DIGEST`` covers the same attacks on six dictionaries,
where the reduced systems reach 5 x 5. The digests pin
this platform's numpy rounding: another BLAS, CPU or numpy version may
round differently and change them with no change to the code. To write
them again after a deliberate output change, run

    PYTHONPATH=src python tests/test_digest.py

and paste the printed digests into ``DIGEST``, ``OTHER_SIZES_DIGEST`` and
``SIX_DICTIONARIES_DIGEST``.
"""

import builtins
import hashlib
import math

from pwbandit import GuessPolicy, InitPolicy, MixtureWeights, compose_password_set, mixture, run_attack

from helpers import overlap_corpus

DIGEST = "bad160e1d217ca887131364b839f098219f749386911ac8686ffe91355abb8b3"
OTHER_SIZES_DIGEST = "693aea1d9785eaf3b4004a9bdffd28cc7de7d7f218a4f1b16babb8f24ed879be"
SIX_DICTIONARIES_DIGEST = "2d90e14a67f73da7c2d4ef55eda110c3bc6b151a2e9784bf910e2d79df5d6e34"


def attacks_digest(corpus, weights, runs) -> str:
    ps = compose_password_set(corpus, MixtureWeights(weights), 10_000, seed=42)
    digest = hashlib.sha256()
    for init, guess, seed, budget in runs:
        trace = run_attack(corpus, ps, init, guess, budget, seed=seed)
        digest.update("\n".join(trace.words).encode("utf-8"))
        digest.update(trace.counts.tobytes())
        digest.update(trace.estimates.tobytes())
    return digest.hexdigest()


def attack_digest() -> str:
    runs = [(init, guess, seed, 100)
            for init in InitPolicy for guess in GuessPolicy for seed in (0, 1)]
    runs += [(InitPolicy.BEST, guess, 0, 1000) for guess in GuessPolicy]
    return attacks_digest(overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000),
                          (0.6, 0.3, 0.1), runs)


def size_digest(weights) -> str:
    """The digest of the attacks that pin a corpus size, on
    ``overlap_corpus`` with one dictionary per weight."""
    runs = [(init, guess, 0, 100) for init in InitPolicy for guess in GuessPolicy]
    runs.append((InitPolicy.BEST, GuessPolicy.BY_Q, 0, 500))
    corpus = overlap_corpus(len(weights), 1000, 400, exponent=0.4, seed=1000)
    return attacks_digest(corpus, weights, runs)


def other_sizes_digest() -> str:
    digest = hashlib.sha256()
    for weights in ((0.7, 0.3), (0.4, 0.3, 0.2, 0.1)):
        digest.update(size_digest(weights).encode("ascii"))
    return digest.hexdigest()


def six_dictionaries_digest() -> str:
    return size_digest((0.3, 0.25, 0.2, 0.12, 0.08, 0.05))


def test_attack_outputs_are_bit_identical():
    assert attack_digest() == DIGEST


def test_attack_outputs_with_two_and_four_dictionaries_are_bit_identical():
    assert other_sizes_digest() == OTHER_SIZES_DIGEST


def test_attack_outputs_with_six_dictionaries_are_bit_identical():
    assert six_dictionaries_digest() == SIX_DICTIONARIES_DIGEST


if __name__ == "__main__":
    print(attack_digest())
    print(other_sizes_digest())
    print(six_dictionaries_digest())


def compensated_sum(items, start=0):
    """The builtin sum as Python 3.12 and later compute it: Neumaier's
    compensated sum over floats, exact integer sums otherwise."""
    items = list(items)
    if not items or not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_the_digests_do_not_depend_on_how_sum_rounds(monkeypatch):
    # From Python 3.12 the builtin sum compensates float rounding. The
    # solver adds its own terms in turn from 0, so the four- and
    # six-dictionary attacks keep their bits under either sum.
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    monkeypatch.setattr(mixture, "sum", compensated_sum, raising=False)
    assert other_sizes_digest() == OTHER_SIZES_DIGEST
    assert six_dictionaries_digest() == SIX_DICTIONARIES_DIGEST
