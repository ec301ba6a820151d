"""The traced run: per-layer figures from spans around every call into pwbandit.

Each attack is driven by hand (``harness.drive``) with a span around each
call into ``bandit`` and ``simulator``; set-up has spans around the calls
into ``config``, ``dictionary`` and ``simulator``. After each attack every
descent is replayed through the public ``mixture.estimate`` from the start
point ``record_observation`` used; the replay must return the recorded
estimate exactly, and gives the solver's step count and, through the public
``gradient``, its Frank-Wolfe duality gap. One attack is also run through
``run_attack`` and must give the same bytes, and one ``pwbandit attack`` runs
in-process through the CLI and must guess the same words as the first
attack; both stop after ``REPEAT_GUESSES`` guesses. Spans are kept in memory
and written at the end to ``.perfbench_out/<workload>/spans.json`` with each
layer's self time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

from checks import Attack, build_reference, check_attack, check_composition, report_failures
from harness import REPEAT_GUESSES, drive, run_rounds, warm_up
from inputs import POLICIES, attack_seed, read_dictionaries
from setup_probe import build


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 at the top level."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str, since: int = 0) -> list[float]:
        return [s[2] - s[1] for s in self.spans[since:] if s[0] == name]

    def self_times(self) -> dict[str, float]:
        """Seconds per layer (the name's first part) not covered by child spans."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        layers: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            layer = s[0].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + t
        return layers


def span_cost(samples: int = 20_000) -> float:
    """Seconds one empty span costs, measured on a throwaway tracer."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(samples):
        with tracer.span("x"):
            pass
    return (time.perf_counter() - started) / samples


def traced_run(seed: int, seconds: float, workdir: Path, config: Path, spec) -> dict:
    from pwbandit import DescentConfig, GuessPolicy, InitPolicy, estimate, gradient, run_attack
    from pwbandit.cli import main as cli_main

    max_steps = DescentConfig().max_steps
    tracer = Tracer()
    with tracer.span("bench.setup"):
        workload = build(config, span=tracer.span)
    warm_up(workload, spec)
    corpus, ps = workload.corpus, workload.password_set
    truth = np.asarray(spec.proportions)

    attacks = []
    record_excess, steps, hits, gaps, q_errors = [], [], [], [], []
    replayed_ok = []

    def one_attack(round_no, slot, init, guess):
        mark = len(tracer.spans)
        with tracer.span("bench.attack"):
            trace, starts, histories = drive(workload, init, guess, spec.budget,
                                             attack_seed(seed, round_no, slot, spec),
                                             span=tracer.span)
        records = tracer.durations("bandit.record", mark)
        same = True
        for record_s, start, history, rec in zip(records, starts, histories, trace.records):
            accepted = []
            with tracer.span("mixture.estimate"):
                q, _, taken = estimate(corpus, history, start,
                                       on_step=lambda i, w, ll: accepted.append(i))
            _, replay_start, replay_end, _ = tracer.spans[-1]
            record_excess.append(record_s - (replay_end - replay_start))
            if q.q != rec.estimate.q:
                report_failures(f"{guess}/{init} seed {trace.seed}",
                                [f"replay of descent {len(history)} returns another estimate"])
                same = False
            g = gradient(corpus, q, history)
            gaps.append(float(g.max() - g @ np.asarray(q)))
            steps.append(len(accepted) - 1)
            hits.append(taken == max_steps)
        q_errors.append(float(np.abs(np.asarray(trace.records[-1].estimate) - truth).sum()))
        attacks.append(Attack.from_trace(trace, starts))
        replayed_ok.append(same)

    rounds = run_rounds(spec, seconds, one_attack)

    dicts = read_dictionaries(workdir, spec)
    ref = build_reference(dicts, ps.passwords)
    setup_failures = check_composition(dicts, spec.proportions, ps.passwords, ps.source_labels)
    report_failures("composition", setup_failures)
    failed = []
    for a, same in zip(attacks, replayed_ok):
        failures = check_attack(ref, a)
        report_failures(f"{a.guess}/{a.init} seed {a.seed}", failures)
        failed.append(bool(failures) or not same)

    k = seed % len(spec.attacks)
    length = min(spec.budget, REPEAT_GUESSES)
    untraced = run_attack(corpus, ps, InitPolicy(attacks[k].init), GuessPolicy(attacks[k].guess),
                          length, seed=attacks[k].seed)
    if Attack.from_trace(untraced).to_bytes() != attacks[k].to_bytes(length):
        report_failures("run_attack", ["hand-driven trace differs from run_attack's"])
        failed[k] = True

    with tracer.span("cli.attack"), contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["attack", "--config", str(config), "--guesses", str(length)])
    with open(workdir / "cli_out" / "trace.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.DictReader(handle))
    cli_ok = code == 0 and ([(r["word"], int(r["successes"])) for r in rows]
                            == list(zip(attacks[0].words, attacks[0].successes))[:length])
    if not cli_ok:
        report_failures("cli", [f"pwbandit attack exited {code} or wrote another trace"])

    attack_s = sum(tracer.durations("bench.attack"))
    in_attacks = sum(1 for s in tracer.spans
                     if s[3] >= 0 and tracer.spans[s[3]][0] == "bench.attack")
    overhead_share = span_cost() * in_attacks / attack_s
    estimate_s = tracer.durations("mixture.estimate")
    select_s = {g: tracer.durations(f"bandit.select.{g}") for g in POLICIES}
    (workdir / "spans.json").write_text(json.dumps({
        "spans": tracer.spans,
        "self_time_s": tracer.self_times(),
        "overhead_share": overhead_share,
    }), encoding="utf-8")

    def ms(values, q=0.5):
        return 1000 * float(np.quantile(values, q))

    def total(name):
        return sum(tracer.durations(name))

    metrics = {
        "config.load_s": (total("config.load"), "s"),
        "dictionary.load_s": (total("dictionary.load"), "s"),
        "dictionary.corpus_s": (total("dictionary.corpus"), "s"),
        "dictionary.matrix_mb": (len(corpus.union_vocabulary) * len(corpus) * 8 / 2**20, "MB"),
        "simulator.compose_s": (total("simulator.compose"), "s"),
        "simulator.oracle_ms": (ms(tracer.durations("simulator.oracle")), "ms"),
        **{f"bandit.select_ms.{g}": (ms(v), "ms") for g, v in select_s.items()},
        "bandit.select_share": (sum(map(sum, select_s.values())) / attack_s, "fraction"),
        "bandit.record_ms": (ms(tracer.durations("bandit.record")), "ms"),
        "bandit.record_overhead_ms": (ms(record_excess), "ms"),
        "mixture.estimate_ms": (ms(estimate_s), "ms"),
        "mixture.estimate_p90_ms": (ms(estimate_s, 0.9), "ms"),
        "mixture.estimate_share": (sum(estimate_s) / attack_s, "fraction"),
        "mixture.steps_mean": (statistics.fmean(steps), "count"),
        "mixture.max_steps_hits": (sum(hits) / rounds, "count/round"),
        "mixture.fw_gap_median": (statistics.median(gaps), "nats"),
        "mixture.fw_gap_max": (max(gaps), "nats"),
        "mixture.q_err_l1": (statistics.fmean(q_errors), "l1"),
        "cli.attack_s": (total("cli.attack"), "s"),
        "trace.overhead_share": (overhead_share, "fraction"),
    }
    return {
        "correct": not setup_failures and cli_ok and not any(failed),
        "attempted": len(attacks),
        "failed": sum(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
