"""Command-line front end: compose password sets, run attacks, emit CSV traces.

Each subcommand, its function and its override flags are declared once, in
``_COMMANDS``; each flag parses its text as the config key it sets does.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 internal error
(its traceback goes to standard error, before ``internal error: <message>``,
or the exception's type name where it has no message).
An input file (config, dictionary or password set) that is not UTF-8 text
is a configuration error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
import traceback
from enum import EnumMeta
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bandit import initialize_weights
from .config import KEYS, ExperimentConfig, load_config
from .dictionary import Corpus, load_frequency_file, save_text_file
from .errors import ConfigError, FrequencyListError
from .mixture import GuessHistory, MixtureWeights, estimate
from .simulator import (
    PasswordSet,
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
        except FrequencyListError as exc:
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


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_compose(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    if cfg.proportions is None:
        raise ConfigError("compose needs `proportions` and `users`", field="composition")
    corpus = _build_corpus(cfg)
    ps = compose_password_set(corpus, cfg.proportions, cfg.population, cfg.composition_seed)
    out = _out_dir(cfg)
    set_path = out / "password_set.txt"
    save_text_file("".join(f"{pw}\n" for pw in ps.passwords), set_path)
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


def cmd_attack(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    """Write each run's trace rows when it ends, holding one trace at a time.

    Every run makes ``min(m, V)`` guesses, so the cumulative curves add
    without padding, in run order from 0.0. The curves hold integers, so
    each sum is exact while it is below 2^53, and the mean is that sum over
    the runs.
    """
    corpus = _build_corpus(cfg)
    ps = _password_set(cfg, corpus)
    out = _out_dir(cfg)
    total = 0.0

    def run_rows(run: int) -> Iterator[list]:
        """The rows of run ``run + 1``; they hold its columns as lists, not the trace."""
        nonlocal total
        trace = run_attack(corpus, ps, cfg.init_policy, cfg.guess_policy,
                           cfg.guess_budget, seed=cfg.attack_seed + run)
        total = total + trace.counts[:, 1]
        return ([run + 1, j, word, successes, cumulative] + [_fmt(q) for q in estimate]
                for j, (word, (successes, cumulative), estimate)
                in enumerate(zip(trace.words, trace.counts.tolist(), trace.estimates.tolist()), 1))

    _write_csv(out / "trace.csv", ["run", "guess_index", "word", "successes", "cumulative"]
               + [f"qhat_{i + 1}" for i in range(len(corpus))],
               chain.from_iterable(map(run_rows, range(cfg.runs))))
    mean_curve = pad_curve((total / cfg.runs).tolist(), cfg.guess_budget)
    baseline = optimal_baseline(ps, cfg.guess_budget)
    _write_csv(out / "summary.csv", ["guess_index", "mean_cumulative", "optimal_baseline"],
               ([j, _fmt(mean), best]
                for j, (mean, best) in enumerate(zip(mean_curve, baseline), start=1)))
    print(f"{cfg.runs} runs of {cfg.guess_policy.value}/{cfg.init_policy.value}: "
          f"mean {mean_curve[-1]:.1f} of {ps.size} users at guess {cfg.guess_budget} "
          f"(optimal {baseline[-1]}) -> {out / 'trace.csv'}, {out / 'summary.csv'}")


def cmd_estimate(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    guesses = args.words
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
    _write_csv(path, ["step"] + [f"qhat_{i + 1}" for i in range(len(corpus))] + ["loglik"],
               ([step] + [_fmt(q) for q in weights] + [_fmt(loglik)]
                for step, weights, loglik in rows))
    print(f"estimated weights after {len(guesses)} guesses: "
          + ", ".join(_fmt(q) for q in rows[-1][1]) + f" -> {path}")


def cmd_baseline(cfg: ExperimentConfig, args: argparse.Namespace) -> None:
    corpus = _build_corpus(cfg)
    ps = _password_set(cfg, corpus)
    curve = optimal_baseline(ps, cfg.guess_budget)
    out = _out_dir(cfg)
    path = out / "baseline.csv"
    _write_csv(path, ["guess_index", "cumulative"], enumerate(curve, start=1))
    print(f"optimal baseline reaches {curve[-1]} of {ps.size} users "
          f"at guess {cfg.guess_budget} -> {path}")


# Each subcommand: its help, its function, and its override flags with the
# config key each sets.
_COMMANDS = {
    "compose": ("draw a synthetic password set from the configured mixture", cmd_compose,
                {"seed": "composition.seed", "out": "output.dir"}),
    "attack": ("run repeated guessing attacks and write trace/summary CSVs", cmd_attack,
               {"seed": "attack.seed", "out": "output.dir", "runs": "attack.runs",
                "guesses": "attack.guesses", "init": "attack.init", "guess": "attack.guess"}),
    "estimate": ("estimate mixture weights from a fixed list of guesses", cmd_estimate,
                 {"seed": "attack.seed", "out": "output.dir", "init": "attack.init"}),
    "baseline": ("write the optimal-order guessing curve", cmd_baseline,
                 {"out": "output.dir", "guesses": "attack.guesses"}),
}


def _flag(key: str) -> dict:
    """A flag that sets ``key``: it parses text as the key does (a policy by choices)."""
    parse = KEYS[key][1]
    spec = dict(type=parse, help=f"override {key}")
    if isinstance(parse, EnumMeta):
        spec.update(choices=list(parse), metavar="{" + ",".join(p.value for p in parse) + "}")
    return spec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwbandit",
        description="Dictionary-mixture password guessing experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        for flag, key in flags.items():
            cmd.add_argument(f"--{flag}", **_flag(key))
        if run is cmd_estimate:
            cmd.add_argument("words", nargs="+", help="the fixed guess list, in order")
    return parser


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    """The config with the given flags applied, validated again as a whole."""
    changes = {KEYS[key][0]: getattr(args, flag)
               for flag, key in _COMMANDS[args.command][2].items()
               if getattr(args, flag) is not None}
    return dataclasses.replace(cfg, **changes)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        _COMMANDS[args.command][1](cfg, args)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # anything else is an internal invariant violation
        traceback.print_exc()
        print(f"internal error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
