"""Bit-exact guard on the attack outputs of the acceptance instance.

Two sha256 digests per set of attacks: one over every attack's words and the
bytes of its ``counts`` column, and one over the bytes of its ``estimates``
column, which pins the last bit of each estimate that
``golden_outputs.json`` (9 significant digits on an 8-word vocabulary)
cannot see. ``DIGEST`` covers all nine init x guess configs at seeds 0 and 1
with 100 guesses, and the three ``best``-init configs at seed 0 with 1,000
guesses, on three dictionaries. ``OTHER_SIZES_DIGEST`` covers two and four
dictionaries, where the solver's reduced Newton systems are 1 x 1 and
3 x 3: all nine configs at seed 0 with 100 guesses, and one ``best``/``by-q``
attack of 500 guesses, on each corpus. ``SIX_DICTIONARIES_DIGEST`` covers
the same attacks on six dictionaries, where the reduced systems reach 5 x 5.

The estimates' bytes depend on the kernel set that numpy's OpenBLAS picks
for the CPU (``helpers.blas_core``): its products accumulate in their own
order. The words and counts were the same on every kernel set measured, so
their digest is pinned once; the estimates' digest is pinned per kernel set,
each computed with ``OPENBLAS_CORETYPE`` set to it, and skipped, with the
reason, on any other. To write them again after a deliberate output change,
run

    PYTHONPATH=src python tests/test_digest.py
    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/test_digest.py
    OPENBLAS_CORETYPE=Sandybridge PYTHONPATH=src python tests/test_digest.py

and paste the printed digests into ``DIGEST``, ``OTHER_SIZES_DIGEST`` and
``SIX_DICTIONARIES_DIGEST``.
"""

import builtins
import functools
import hashlib
import math

import pytest

from pwbandit import GuessPolicy, InitPolicy, MixtureWeights, compose_password_set, mixture, run_attack

from helpers import blas_core, overlap_corpus

# Each: the digest of the words and counts, and the digest of the estimates
# per kernel set.
DIGEST = ("3e26008a9b983873cf30eab9743a5e851bbdda528e1f38ae0fb0b7abf885074b", {
    "SkylakeX": "6b14309dd8cb9c86c2acfc6e40862e670651cd43d18b86a4368c35d41b47b0ef",
    "Haswell": "111c09f55f30248cae65ec789a2d3c207289af927ddf7d04a0ca0fadd39802fe",
    "Sandybridge": "8cf6223f6ad4ed353af4a83185cbd97637b0bc1c3ebfab13124bc955163932bb"})
OTHER_SIZES_DIGEST = ("3cdf61a13fc26acfe600520b0f092fe6e0925acc4fe85d4728cf09b05c3315e7", {
    "SkylakeX": "63e5eec8d8dc962a2d0f9dae8cb29a5937f3b225e63948596af7709b023c7569",
    "Haswell": "a66370cdbc51c4afc85c18d81c8ddd780c286cd1cc9554543f941724b9075cd9",
    "Sandybridge": "b88e956f98e397ac285cf2369738163e0ebacb27ec6fe33e678793506afe71a0"})
SIX_DICTIONARIES_DIGEST = ("4e32163d8bc9a12bdc6f818d4919bd4a602210b0fb92bec53225499c8719081e", {
    "SkylakeX": "7e4679a5a70160c801a2192ebad20696d831db9a8d6d790454d9b7cb8cc24f97",
    "Haswell": "2961bb7e1f1aa3827e9b8399a2043b4f8f28a2d409f9cd93e2b0ee7d7b6f4e32",
    "Sandybridge": "2332f9d6278a457c45be7589f22c9c2dfad9ba0a4a3e473b4ac19cc1fd50c383"})


def attacks_digest(corpus, weights, runs) -> tuple[str, str]:
    ps = compose_password_set(corpus, MixtureWeights(weights), 10_000, seed=42)
    outcomes, estimates = hashlib.sha256(), hashlib.sha256()
    for init, guess, seed, budget in runs:
        trace = run_attack(corpus, ps, init, guess, budget, seed=seed)
        outcomes.update("\n".join(trace.words).encode("utf-8"))
        outcomes.update(trace.counts.tobytes())
        estimates.update(trace.estimates.tobytes())
    return outcomes.hexdigest(), estimates.hexdigest()


def attack_digest() -> tuple[str, str]:
    runs = [(init, guess, seed, 100)
            for init in InitPolicy for guess in GuessPolicy for seed in (0, 1)]
    runs += [(InitPolicy.BEST, guess, 0, 1000) for guess in GuessPolicy]
    return attacks_digest(overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000),
                          (0.6, 0.3, 0.1), runs)


def size_digest(weights) -> tuple[str, str]:
    """The digests of the attacks that pin a corpus size, on
    ``overlap_corpus`` with one dictionary per weight."""
    runs = [(init, guess, 0, 100) for init in InitPolicy for guess in GuessPolicy]
    runs.append((InitPolicy.BEST, GuessPolicy.BY_Q, 0, 500))
    corpus = overlap_corpus(len(weights), 1000, 400, exponent=0.4, seed=1000)
    return attacks_digest(corpus, weights, runs)


def other_sizes_digest() -> tuple[str, str]:
    digests = [size_digest(weights) for weights in ((0.7, 0.3), (0.4, 0.3, 0.2, 0.1))]
    return tuple(hashlib.sha256("".join(parts).encode("ascii")).hexdigest()
                 for parts in zip(*digests))


def six_dictionaries_digest() -> tuple[str, str]:
    return size_digest((0.3, 0.25, 0.2, 0.12, 0.08, 0.05))


# Each set of attacks runs once per test session; the test that patches
# ``sum`` calls the functions above directly.
DIGESTS = {"three": (functools.cache(attack_digest), DIGEST),
           "two and four": (functools.cache(other_sizes_digest), OTHER_SIZES_DIGEST),
           "six": (functools.cache(six_dictionaries_digest), SIX_DICTIONARIES_DIGEST)}


def assert_same_words_and_counts(name):
    compute, (outcomes, _) = DIGESTS[name]
    assert compute()[0] == outcomes


def test_attack_outputs_are_bit_identical():
    assert_same_words_and_counts("three")


def test_attack_outputs_with_two_and_four_dictionaries_are_bit_identical():
    assert_same_words_and_counts("two and four")


def test_attack_outputs_with_six_dictionaries_are_bit_identical():
    assert_same_words_and_counts("six")


@pytest.mark.parametrize("name", DIGESTS)
def test_attack_estimates_are_bit_identical_on_the_pinned_kernels(name):
    compute, (_, estimates) = DIGESTS[name]
    core = blas_core()
    if core not in estimates:
        pytest.skip(f"no estimate digest pinned for the BLAS kernel set {core!r}; "
                    f"pinned: {', '.join(estimates)}")
    assert compute()[1] == estimates[core]


if __name__ == "__main__":
    print("kernel set:", blas_core())
    for name, (compute, _) in DIGESTS.items():
        print(name, *compute())


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
    # six-dictionary attacks keep their bits under either sum, on any
    # kernel set.
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    plain = DIGESTS["two and four"][0](), DIGESTS["six"][0]()
    monkeypatch.setattr(mixture, "sum", compensated_sum, raising=False)
    assert (other_sizes_digest(), six_dictionaries_digest()) == plain
    assert plain[0][0] == OTHER_SIZES_DIGEST[0] and plain[1][0] == SIX_DICTIONARIES_DIGEST[0]
