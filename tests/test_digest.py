"""Bit-exact guard on the attack outputs of the acceptance instance.

One sha256 over every attack's words, the bytes of its ``counts`` column
and the bytes of its ``estimates`` column pins the last bit of each
estimate, which ``golden_outputs.json`` (9 significant digits on an 8-word
vocabulary) cannot see. It covers all nine init x guess configs at seeds 0
and 1 with 100 guesses, and the three ``best``-init configs at seed 0 with
1,000 guesses. The digest pins this platform's numpy rounding: another BLAS,
CPU or numpy version may round differently and change it with no change to
the code. To write it again after a deliberate output change, run

    PYTHONPATH=src python tests/test_digest.py

and paste the printed digest into ``DIGEST``.
"""

import hashlib

from pwbandit import GuessPolicy, InitPolicy, MixtureWeights, compose_password_set, run_attack

from helpers import overlap_corpus

DIGEST = "effa0a38aebf071e6452677f8e501620343bf14da9de3a4e23f350ded18a25e3"


def attack_digest() -> str:
    corpus = overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000)
    ps = compose_password_set(corpus, MixtureWeights((0.6, 0.3, 0.1)), 10_000, seed=42)
    runs = [(init, guess, seed, 100)
            for init in InitPolicy for guess in GuessPolicy for seed in (0, 1)]
    runs += [(InitPolicy.BEST, guess, 0, 1000) for guess in GuessPolicy]
    digest = hashlib.sha256()
    for init, guess, seed, budget in runs:
        trace = run_attack(corpus, ps, init, guess, budget, seed=seed)
        digest.update("\n".join(trace.words).encode("utf-8"))
        digest.update(trace.counts.tobytes())
        digest.update(trace.estimates.tobytes())
    return digest.hexdigest()


def test_attack_outputs_are_bit_identical():
    assert attack_digest() == DIGEST


if __name__ == "__main__":
    print(attack_digest())
