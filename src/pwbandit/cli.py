"""Command-line front end: compose password sets, run attacks, emit CSV traces.

Subcommands:
    compose   draw a synthetic password set and write it with a metadata sidecar
    attack    run repeated attacks and write per-guess trace and summary CSVs
    estimate  run the oracle on a fixed guess list and dump the descent trajectory
    baseline  write the optimal guessing curve for the configured password set

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 internal error
(its traceback goes to standard error, before ``internal error: <message>``).
An input file (config, dictionary or password set) that is not UTF-8 text
is a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import traceback
from pathlib import Path
from typing import Sequence

import numpy as np

from .bandit import GuessPolicy, InitPolicy, initialize_weights
from .config import ExperimentConfig, load_config
from .dictionary import Corpus, load_frequency_file
from .errors import ConfigError, FrequencyListError
from .mixture import GuessHistory, MixtureWeights, estimate
from .simulator import (
    AttackTrace,
    PasswordSet,
    average_traces,
    compose_password_set,
    largest_remainder_counts,
    optimal_baseline,
    oracle_count,
    pad_curve,
    run_attack,
)


def _fmt(x: float) -> str:
    """Decimal real with 9 significant digits (stable CSV schema)."""
    return f"{x:.9g}"


def _build_corpus(cfg: ExperimentConfig) -> Corpus:
    dictionaries = []
    for name, path in cfg.dictionaries:
        try:
            dictionaries.append(load_frequency_file(name, path))
        except (FrequencyListError, UnicodeDecodeError) as exc:
            raise ConfigError(str(exc), field=f"dictionaries.{name}") from None
    return Corpus(tuple(dictionaries))


def _load_password_lines(path: str) -> PasswordSet:
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            passwords = [word for word in (line.rstrip("\r\n") for line in handle) if word]
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path!r}: {exc}", field="composition.passwords") from None
    if not passwords:
        raise ConfigError(f"password set {path!r} is empty", field="composition.passwords")
    return PasswordSet(tuple(passwords))


def _password_set(cfg: ExperimentConfig, corpus: Corpus) -> PasswordSet:
    if cfg.password_file is not None:
        return _load_password_lines(cfg.password_file)
    return compose_password_set(corpus, cfg.proportions, cfg.population, cfg.composition_seed)


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _open_csv(path: Path):
    handle = open(path, "w", encoding="utf-8", newline="")
    return handle, csv.writer(handle, lineterminator="\n")


def cmd_compose(cfg: ExperimentConfig) -> None:
    if cfg.proportions is None:
        raise ConfigError("compose needs `proportions` and `users`", field="composition")
    corpus = _build_corpus(cfg)
    ps = compose_password_set(corpus, cfg.proportions, cfg.population, cfg.composition_seed)
    out = _out_dir(cfg)
    set_path = out / "password_set.txt"
    # As in save_frequency_file: a first password that begins with U+FEFF is
    # written after a byte-order mark, which the loader drops instead.
    encoding = "utf-8-sig" if ps.passwords[0].startswith("\ufeff") else "utf-8"
    with open(set_path, "w", encoding=encoding, newline="") as handle:
        handle.writelines(f"{pw}\n" for pw in ps.passwords)
    counts = largest_remainder_counts(cfg.proportions, cfg.population)
    meta_path = out / "password_set.meta"
    with open(meta_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("[password_set]\n")
        handle.write(f"users = {cfg.population}\n")
        handle.write(f"seed = {cfg.composition_seed}\n")
        handle.write("sources = " + ", ".join(name for name, _ in cfg.dictionaries) + "\n")
        handle.write("proportions = " + ", ".join(repr(q) for q in cfg.proportions) + "\n")
        handle.write("counts = " + ", ".join(str(c) for c in counts) + "\n")
    print(f"composed {ps.size} passwords -> {set_path} (+ {meta_path.name})")


def _write_trace_csv(path: Path, traces: Sequence[AttackTrace], n: int) -> None:
    handle, writer = _open_csv(path)
    with handle:
        writer.writerow(["run", "guess_index", "word", "successes", "cumulative"]
                        + [f"qhat_{i + 1}" for i in range(n)])
        for run, trace in enumerate(traces, start=1):
            for j, record in enumerate(trace.records, start=1):
                writer.writerow(
                    [run, j, record.word, record.successes, record.cumulative]
                    + [_fmt(q) for q in record.estimate]
                )


def _write_summary_csv(path: Path, traces: Sequence[AttackTrace],
                       baseline: Sequence[int]) -> None:
    mean_curve = pad_curve(average_traces(traces), len(baseline))
    handle, writer = _open_csv(path)
    with handle:
        writer.writerow(["guess_index", "mean_cumulative", "optimal_baseline"])
        for j, (mean, best) in enumerate(zip(mean_curve, baseline), start=1):
            writer.writerow([j, _fmt(mean), best])


def cmd_attack(cfg: ExperimentConfig) -> None:
    corpus = _build_corpus(cfg)
    ps = _password_set(cfg, corpus)
    traces = [
        run_attack(corpus, ps, cfg.init_policy, cfg.guess_policy,
                   cfg.guess_budget, seed=cfg.attack_seed + run)
        for run in range(cfg.runs)
    ]
    out = _out_dir(cfg)
    baseline = optimal_baseline(ps, cfg.guess_budget)
    _write_trace_csv(out / "trace.csv", traces, len(corpus))
    _write_summary_csv(out / "summary.csv", traces, baseline)
    final = pad_curve(average_traces(traces), cfg.guess_budget)[-1]
    print(f"{cfg.runs} runs of {cfg.guess_policy.value}/{cfg.init_policy.value}: "
          f"mean {final:.1f} of {ps.size} users at guess {cfg.guess_budget} "
          f"(optimal {baseline[-1]}) -> {out / 'trace.csv'}, {out / 'summary.csv'}")


def cmd_estimate(cfg: ExperimentConfig, guesses: Sequence[str]) -> None:
    if not guesses:
        raise ConfigError("estimate needs at least one guess word")
    if len(set(guesses)) != len(guesses):
        raise ConfigError("guess words must be distinct")
    corpus = _build_corpus(cfg)
    ps = _password_set(cfg, corpus)
    history = GuessHistory(ps.size, tuple((word, oracle_count(ps, word)) for word in guesses))
    rng = np.random.default_rng(cfg.attack_seed)
    init = initialize_weights(cfg.init_policy, len(corpus), rng=rng)
    rows: list[tuple[int, MixtureWeights, float]] = []
    estimate(corpus, history, init, on_step=lambda step, w, loglik: rows.append((step, w, loglik)))
    out = _out_dir(cfg)
    path = out / "estimate.csv"
    handle, writer = _open_csv(path)
    with handle:
        writer.writerow(["step"] + [f"qhat_{i + 1}" for i in range(len(corpus))] + ["loglik"])
        for step, weights, loglik in rows:
            writer.writerow([step] + [_fmt(q) for q in weights] + [_fmt(loglik)])
    final = rows[-1][1]
    print(f"estimated weights after {len(guesses)} guesses: "
          + ", ".join(_fmt(q) for q in final) + f" -> {path}")


def cmd_baseline(cfg: ExperimentConfig) -> None:
    corpus = _build_corpus(cfg)
    ps = _password_set(cfg, corpus)
    curve = optimal_baseline(ps, cfg.guess_budget)
    out = _out_dir(cfg)
    path = out / "baseline.csv"
    handle, writer = _open_csv(path)
    with handle:
        writer.writerow(["guess_index", "cumulative"])
        for j, value in enumerate(curve, start=1):
            writer.writerow([j, value])
    print(f"optimal baseline reaches {curve[-1]} of {ps.size} users "
          f"at guess {cfg.guess_budget} -> {path}")


# The override flags each subcommand reads, and the config field each sets.
_OVERRIDES = {
    "compose": {"seed": "composition_seed", "out": "output_dir"},
    "attack": {"seed": "attack_seed", "out": "output_dir", "runs": "runs",
               "guesses": "guess_budget", "init": "init_policy", "guess": "guess_policy"},
    "estimate": {"seed": "attack_seed", "out": "output_dir", "init": "init_policy"},
    "baseline": {"out": "output_dir", "guesses": "guess_budget"},
}


def _policy_flag(policy: type[InitPolicy] | type[GuessPolicy], what: str) -> dict:
    return dict(type=policy, choices=list(policy), help=f"override the {what} policy",
                metavar="{" + ",".join(p.value for p in policy) + "}")


_FLAGS = {
    "seed": dict(type=int, help="override the composition seed (compose) or attack seed"),
    "out": dict(help="override the output directory"),
    "runs": dict(type=int, help="override the run count"),
    "guesses": dict(type=int, help="override the guess budget"),
    "init": _policy_flag(InitPolicy, "initialization"),
    "guess": _policy_flag(GuessPolicy, "guess"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwbandit",
        description="Dictionary-mixture password guessing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "compose": "draw a synthetic password set from the configured mixture",
        "attack": "run repeated guessing attacks and write trace/summary CSVs",
        "estimate": "estimate mixture weights from a fixed list of guesses",
        "baseline": "write the optimal-order guessing curve",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        for flag in _OVERRIDES[name]:
            cmd.add_argument(f"--{flag}", default=None, **_FLAGS[flag])
        if name == "estimate":
            cmd.add_argument("words", nargs="+", help="the fixed guess list, in order")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """The config with the given flags applied, validated again as a whole."""
    changes = {field: getattr(args, flag) for flag, field in _OVERRIDES[args.command].items()
               if getattr(args, flag) is not None}
    return dataclasses.replace(cfg, **changes)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "compose":
            cmd_compose(cfg)
        elif args.command == "attack":
            cmd_attack(cfg)
        elif args.command == "estimate":
            cmd_estimate(cfg, args.words)
        elif args.command == "baseline":
            cmd_baseline(cfg)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is an internal invariant violation
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
