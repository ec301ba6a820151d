"""pwbandit benchmark: one workload per process, a closed loop with one attacker.

    python3 perfbench/run.py --workload mixed-attack --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload's inputs are generated from
``--seed`` under ``.perfbench_out/<workload>/``; pwbandit is imported from the
checkout's ``src``. With ``--trace 0`` the run is timed and prints the
end-to-end metrics; with ``--trace 1`` it drives the attacks by hand with a
span around every call into the library and prints the per-layer metrics
(see ``traced.py``). Either way the last line of standard output is one JSON
object with ``correct``, ``attempted`` (attacks), ``failed`` (attacks that
failed a check in ``checks.py``) and ``metrics``. Times are reported at the
host speed ``reference.py`` fixes, from a reference kernel timed next to them.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from reference import Gauge, reference_time  # noqa: E402
from setup_probe import ROOT, build, use_checkout_source  # noqa: E402

# Set-up is timed in fresh interpreters, at least SETUP_PROBES times and more
# while they take under PROBE_SECONDS in all; setup_s is their median.
SETUP_PROBES = 3
PROBE_SECONDS = 3.0
# After each attack and each set-up probe the reference kernel runs for this
# share of its time (at least three times), so that a long stretch gets a
# steadier reading.
KERNEL_SHARE = 0.1


def probe_setup(gauge: Gauge, config: Path) -> float:
    """Set-up seconds in a fresh interpreter, from the import of pwbandit on,
    at the reference speed of kernel readings taken just before and after."""
    before = gauge.reading(0.1)
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                          capture_output=True, text=True, timeout=120, check=True)
    setup_s = json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]
    return reference_time([setup_s], [before, gauge.reading(max(0.1, KERNEL_SHARE * setup_s))])


def timed_run(gauge: Gauge, seed: int, seconds: float, workdir: Path, config: Path,
              spec) -> dict:
    """The end-to-end metrics of one untraced run, after checking every attack."""
    probes, started = [], time.perf_counter()
    while len(probes) < SETUP_PROBES or time.perf_counter() - started < PROBE_SECONDS:
        probes.append(probe_setup(gauge, config))
    setup_s = statistics.median(probes)

    from checks import (Attack, build_reference, check_attack, check_composition,
                        report_failures)
    from harness import REPEAT_GUESSES, drive, run_rounds, warm_up
    from inputs import attack_seed, read_dictionaries
    from pwbandit import GuessPolicy, InitPolicy, run_attack

    workload = build(config)
    warm_up(workload, spec)
    traces, times, readings = [], [], [gauge.reading(0.2)]

    def one_attack(round_no, slot, init, guess):
        started = time.perf_counter()
        traces.append(run_attack(workload.corpus, workload.password_set, InitPolicy(init),
                                 GuessPolicy(guess), spec.budget,
                                 seed=attack_seed(seed, round_no, slot, spec)))
        times.append(time.perf_counter() - started)
        readings.append(gauge.reading(KERNEL_SHARE * times[-1]))

    run_rounds(spec, seconds, one_attack)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Checks, outside the timed loop.
    ps = workload.password_set
    dicts = read_dictionaries(workdir, spec)
    ref = build_reference(dicts, ps.passwords)
    setup_failures = check_composition(dicts, spec.proportions, ps.passwords, ps.source_labels)
    report_failures("composition", setup_failures)
    attacks = [Attack.from_trace(t) for t in traces]
    failed = []
    for a in attacks:
        failures = check_attack(ref, a)
        report_failures(f"{a.guess}/{a.init} seed {a.seed}", failures)
        failed.append(bool(failures))
    # One attack per run again, by hand: it must give the same bytes, and its
    # captured start points let a random-init descent be checked as well.
    k = seed % len(spec.attacks)
    first = attacks[k]
    length = min(spec.budget, REPEAT_GUESSES)
    again, starts, _ = drive(workload, first.init, first.guess, length, first.seed)
    repeat = Attack.from_trace(again, starts)
    failures = check_attack(ref, repeat)
    if repeat.to_bytes() != first.to_bytes(length):
        failures.append("repeated attack differs from the first")
    report_failures(f"repeat of attack {k}", failures)
    failed[k] = failed[k] or bool(failures)

    # Totals, not a median of rounds: the host's speed drifts for tens of
    # seconds at a time, and the total weighs each speed by its time.
    guesses = sum(len(t.records) for t in traces)
    guesses_per_s = guesses / reference_time(times, readings)
    print(f"perfbench: {guesses / sum(times):.2f} guesses per wall-clock second, "
          f"kernel median {statistics.median(readings) * 1e3:.2f} ms", file=sys.stderr)
    crack_ratio = statistics.fmean(a.cumulative[-1] / ref.optimal[min(a.budget, len(ref.optimal)) - 1]
                                   for a in attacks)
    return {
        "correct": not setup_failures and not any(failed),
        "attempted": len(attacks),
        "failed": sum(failed),
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "guesses_per_s": {"value": guesses_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "crack_ratio": {"value": crack_ratio, "unit": "fraction"},
        },
    }


def main(argv=None) -> int:
    from inputs import WORKLOADS, read_spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    use_checkout_source()

    workdir = ROOT / ".perfbench_out" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "inputs.py"), args.workload, str(args.seed),
                    str(workdir)], check=True, timeout=120)
    config, spec = workdir / "config.ini", read_spec(workdir)
    if args.trace:
        from traced import traced_run
        result = traced_run(args.seed, args.seconds, workdir, config, spec)
    else:
        with Gauge() as gauge:
            result = timed_run(gauge, args.seed, args.seconds, workdir, config, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
