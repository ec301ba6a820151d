"""The closed attack loop shared by the timed and the traced runs.

One attacker: every guess waits for the oracle's answer and for the new
estimate before the next guess is chosen. A round runs each of the
workload's attack slots once; runs are made of whole rounds.
"""

from __future__ import annotations

import copy
import time

from inputs import Spec
from setup_probe import no_span

WARM_UP_GUESSES = 5
# An attack's first guesses do not depend on its budget, so an attack run
# again for comparison stops here and is compared with the first one's prefix.
REPEAT_GUESSES = 100


def run_rounds(spec: Spec, seconds: float, one_attack) -> int:
    """Call ``one_attack(round, slot, init, guess)`` for whole rounds.

    The first round always runs; another starts while it would be at least
    half done by ``seconds``, judged by the mean round so far, so that runs
    end near ``seconds`` on average. Returns the round count.
    """
    started = time.perf_counter()
    rounds = 0
    while True:
        for slot, (init, guess) in enumerate(spec.attacks):
            one_attack(rounds, slot, init, guess)
        rounds += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / rounds / 2 > seconds:
            return rounds


def warm_up(workload, spec: Spec) -> None:
    """One short untimed attack per slot, so lazy state is built before timing."""
    from pwbandit import GuessPolicy, InitPolicy, run_attack

    for init, guess in spec.attacks:
        run_attack(workload.corpus, workload.password_set, InitPolicy(init),
                   GuessPolicy(guess), min(WARM_UP_GUESSES, spec.budget), seed=0)


def drive(workload, init: str, guess: str, budget: int, seed: int, span=no_span):
    """One attack driven by hand through the public per-guess functions.

    Mirrors ``run_attack``: same seeding, same calls, same records. Also
    returns, per guess, the start point ``record_observation`` descended
    from (drawn again from a copy of the state's generator) and the history
    it estimated on, so that each descent can be replayed.
    """
    from pwbandit import (AttackTrace, DescentConfig, GuessPolicy, InitPolicy, TraceRecord,
                          initialize_weights, new_state, oracle_count, record_observation,
                          select_guess)
    import numpy as np

    corpus, ps = workload.corpus, workload.password_set
    init_p, guess_p, cfg = InitPolicy(init), GuessPolicy(guess), DescentConfig()
    state = new_state(corpus, ps.size, init_p, np.random.default_rng(seed))
    records, starts, histories = [], [], []
    cumulative = 0
    select_name = f"bandit.select.{guess}"
    for _ in range(budget):
        with span(select_name):
            word = select_guess(guess_p, corpus, state)
        if word is None:
            break
        with span("simulator.oracle"):
            successes = oracle_count(ps, word)
        before = copy.deepcopy(state.rng)
        with span("bandit.record"):
            record_observation(state, word, successes, corpus, init_p, cfg)
        starts.append(initialize_weights(init_p, len(corpus), prev=state.previous_estimate,
                                         rng=before))
        histories.append(state.history)
        cumulative += successes
        records.append(TraceRecord(word, successes, cumulative, state.current_estimate))
    return AttackTrace(tuple(records), init_p, guess_p, seed, budget), starts, histories
