"""Fast tests of the benchmark's own checks on a tiny workload.

    python3 -m pytest perfbench

Each check must pass on the program's real outputs and fail on a copy with
one corruption.
"""

from __future__ import annotations

import copy
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from setup_probe import build, use_checkout_source  # noqa: E402

use_checkout_source()

from checks import (Attack, build_reference, check_attack, check_composition,  # noqa: E402
                    rule_samples)
from harness import drive  # noqa: E402
from inputs import Spec, attack_seed, read_dictionaries, spec_for, write_inputs  # noqa: E402
from reference import REFERENCE_S, reference_time  # noqa: E402

TINY = Spec(n_dicts=3, n_words=40, n_shared=15, exponent=0.7, dict_seed=5,
            proportions=(0.5, 0.3, 0.2), users=300, composition_seed=3, budget=12,
            attacks=(("average", "by-q"), ("random", "random-dict"), ("best", "best-dict")))
SEED = 7


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tiny")
    workload = build(write_inputs(TINY, SEED, directory))
    dicts = read_dictionaries(directory, TINY)
    ref = build_reference(dicts, workload.password_set.passwords)
    attacks = {}
    for init, guess in TINY.attacks:
        trace, starts, _ = drive(workload, init, guess, TINY.budget, SEED)
        attacks[guess] = Attack.from_trace(trace, starts)
    return workload, dicts, ref, attacks


def test_real_outputs_pass(tiny):
    workload, dicts, ref, attacks = tiny
    ps = workload.password_set
    assert check_composition(dicts, TINY.proportions, ps.passwords, ps.source_labels) == []
    for attack in attacks.values():
        assert check_attack(ref, attack) == []


def test_hand_driven_attack_equals_run_attack(tiny):
    from pwbandit import GuessPolicy, InitPolicy, run_attack

    workload, _, _, attacks = tiny
    for init, guess in TINY.attacks:
        trace = run_attack(workload.corpus, workload.password_set, InitPolicy(init),
                           GuessPolicy(guess), TINY.budget, seed=SEED)
        assert Attack.from_trace(trace).to_bytes() == attacks[guess].to_bytes()


def _worst_unguessed(ref, attack, j):
    """The unguessed word with the lowest by-q score under the previous estimate."""
    scores = ref.matrix @ attack.estimates[j - 1]
    guessed = {ref.index[w] for w in attack.words[:j + 1]}
    order = [v for v in np.argsort(scores) if v not in guessed]
    return sorted(ref.index)[order[0]]


def _success_off_by_one(ref, a):
    a.successes[3] += 1
    a.cumulative = list(np.cumsum(a.successes))


def _cumulative_not_running(ref, a):
    a.cumulative[4] += 1


def _beyond_optimal(ref, a):
    a.cumulative = [int(c) + int(ref.optimal[-1]) for c in a.cumulative]


def _repeated_guess(ref, a):
    a.words[5] = a.words[2]


def _outside_vocabulary(ref, a):
    a.words[1] = "not-a-dictionary-word"


def _off_simplex(ref, a):
    a.estimates[2, 0] += 1e-3


def _below_start(ref, a):
    # The vertex of the dictionary least like the first guess, for the last descent.
    probs = ref.matrix[ref.index[a.words[0]]]
    a.estimates[-1] = np.eye(len(probs))[int(np.argmin(probs))]


def _not_the_rule(ref, a):
    j = list(rule_samples(a))[-1]
    a.words[j] = _worst_unguessed(ref, a, j)
    a.successes[j] = ref.counts.get(a.words[j], 0)
    a.cumulative = list(np.cumsum(a.successes))


CORRUPTIONS = [
    ("by-q", _success_off_by_one, "successes, the list has"),
    ("by-q", _cumulative_not_running, "not running sums"),
    ("by-q", _beyond_optimal, "exceeds the optimal order"),
    ("random-dict", _repeated_guess, "guessed twice"),
    ("best-dict", _outside_vocabulary, "outside the union vocabulary"),
    ("random-dict", _off_simplex, "off the simplex"),
    ("by-q", _below_start, "below its start point"),
    ("random-dict", _below_start, "below its start point"),
    ("by-q", _not_the_rule, "by-q picked"),
    ("best-dict", _not_the_rule, "best-dict picked"),
    ("random-dict", _not_the_rule, "random-dict picked"),
]


@pytest.mark.parametrize("guess, corrupt, message", CORRUPTIONS,
                         ids=[f"{g}-{c.__name__.strip('_')}" for g, c, _ in CORRUPTIONS])
def test_check_catches_corruption(tiny, guess, corrupt, message):
    _, _, ref, attacks = tiny
    attack = copy.deepcopy(attacks[guess])
    corrupt(ref, attack)
    failures = check_attack(ref, attack)
    assert any(message in f for f in failures), failures


def test_repeat_comparison_sees_one_changed_digit(tiny):
    attack = copy.deepcopy(tiny[3]["by-q"])
    before = attack.to_bytes()
    attack.estimates[7, 1] = np.nextafter(attack.estimates[7, 1], 1.0)
    assert attack.to_bytes() != before
    assert attack.to_bytes(7) == before[:len(attack.to_bytes(7))]


def test_composition_check_catches_a_moved_user(tiny):
    workload, dicts, _, _ = tiny
    ps = workload.password_set
    labels = list(ps.source_labels)
    labels[0] = (labels[0] + 1) % TINY.n_dicts
    failures = check_composition(dicts, TINY.proportions, ps.passwords, labels)
    assert any("apportionment" in f for f in failures), failures


def test_inputs_repeat_and_the_seed_picks_the_attack_seed(tmp_path):
    small = replace(spec_for("large-vocab"), n_words=50, n_shared=20, users=100)
    configs = []
    for run, seed in enumerate((1, 1, 2)):
        directory = tmp_path / str(run)
        configs.append(write_inputs(small, attack_seed(seed, 0, 0, small), directory)
                       .read_text().replace(str(directory), ""))
        assert (directory / "dict0.tsv").read_bytes() == (tmp_path / "0" / "dict0.tsv").read_bytes()
    assert configs[0] == configs[1] != configs[2]


def test_reference_time_scales_each_stretch_by_the_readings_around_it():
    r = REFERENCE_S
    assert reference_time([2.0], [r, r]) == pytest.approx(2.0)
    # A host at half speed doubles both the stretch and the kernel around it.
    assert reference_time([4.0], [2 * r, 2 * r]) == pytest.approx(2.0)
    assert reference_time([1.0, 3.0], [r, 3 * r, r]) == pytest.approx(1.0 / 2 + 3.0 / 2)
    with pytest.raises(ValueError):
        reference_time([1.0], [r])
