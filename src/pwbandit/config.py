"""Declarative experiment configuration: a flat key-value file with sections.

Example::

    [dictionaries]
    alpha = dicts/alpha.tsv
    beta = dicts/beta.tsv

    [composition]
    proportions = 0.6, 0.4
    users = 10000
    seed = 7
    # or instead of the three keys above:
    # passwords = sets/leak.txt

    [attack]
    init = average          ; random | average | best
    guess = by-q            ; random-dict | best-dict | by-q
    guesses = 100
    runs = 50
    seed = 0

    [output]
    dir = out

Relative dictionary and password paths are read from the config file's
directory (``load_config``); the output directory is relative to the working
directory. The solver takes no settings from the file: its constants are
fixed in ``mixture``, and a ``[descent]`` section is an error like any
unknown one.
`parse_config(serialize_config(parse_config(text)))` is a fixed point.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path

from .bandit import GuessPolicy, InitPolicy
from .errors import ConfigError
from .mixture import MixtureWeights

_SECTIONS = {
    "dictionaries": None,  # free-form name = path entries
    "composition": {"proportions", "users", "seed", "passwords"},
    "attack": {"init", "guess", "guesses", "runs", "seed"},
    "output": {"dir"},
}


@dataclass
class ExperimentConfig:
    dictionaries: tuple[tuple[str, str], ...]
    proportions: MixtureWeights | None = None
    population: int | None = None
    composition_seed: int = 0
    password_file: str | None = None
    init_policy: InitPolicy = InitPolicy.AVERAGE
    guess_policy: GuessPolicy = GuessPolicy.BY_Q
    guess_budget: int = 100
    runs: int = 50
    attack_seed: int = 0
    output_dir: str = "out"

    def __post_init__(self):
        if not self.dictionaries:
            raise ConfigError("at least one dictionary is required", field="dictionaries")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1", field="attack.runs")
        if self.guess_budget < 1:
            raise ConfigError("guesses must be >= 1", field="attack.guesses")
        if self.attack_seed < 0:
            raise ConfigError("seed must be >= 0", field="attack.seed")
        if self.composition_seed < 0:
            raise ConfigError("seed must be >= 0", field="composition.seed")
        if self.password_file is None:
            if self.proportions is None or self.population is None:
                raise ConfigError(
                    "composition needs either `passwords` or `proportions` + `users`",
                    field="composition",
                )
            if len(self.proportions) != len(self.dictionaries):
                raise ConfigError(
                    f"{len(self.proportions)} proportions for "
                    f"{len(self.dictionaries)} dictionaries",
                    field="composition.proportions",
                )
            if self.population < 1:
                raise ConfigError("users must be >= 1", field="composition.users")
        elif self.proportions is not None or self.population is not None:
            raise ConfigError(
                "`passwords` excludes `proportions`/`users`", field="composition"
            )


def _to_int(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: {text!r}", field=where) from None


def _to_float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"not a number: {text!r}", field=where) from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; raises ConfigError naming the bad field."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # dictionary names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    for section in parser.sections():
        allowed = _SECTIONS.get(section, ...)
        if allowed is ...:
            raise ConfigError(f"unknown section [{section}]", field=section)
        if allowed is not None:
            for key in parser[section]:
                if key not in allowed:
                    raise ConfigError(f"unknown key {key!r}", field=f"{section}.{key}")

    if not parser.has_section("dictionaries") or not parser.items("dictionaries"):
        raise ConfigError("missing [dictionaries] section", field="dictionaries")
    dictionaries = tuple(parser.items("dictionaries"))

    comp = parser["composition"] if parser.has_section("composition") else {}
    proportions = None
    if "proportions" in comp:
        parts = [p for p in comp["proportions"].split(",")]
        values = [_to_float(p.strip(), "composition.proportions") for p in parts]
        try:
            proportions = MixtureWeights(values)
        except ValueError as exc:
            raise ConfigError(str(exc), field="composition.proportions") from None
    population = _to_int(comp["users"], "composition.users") if "users" in comp else None
    composition_seed = _to_int(comp["seed"], "composition.seed") if "seed" in comp else 0
    password_file = comp.get("passwords")

    attack = parser["attack"] if parser.has_section("attack") else {}
    try:
        init_policy = InitPolicy(attack.get("init", "average"))
    except ValueError:
        raise ConfigError(f"unknown init policy {attack['init']!r}", field="attack.init") from None
    try:
        guess_policy = GuessPolicy(attack.get("guess", "by-q"))
    except ValueError:
        raise ConfigError(f"unknown guess policy {attack['guess']!r}", field="attack.guess") from None
    guess_budget = _to_int(attack.get("guesses", "100"), "attack.guesses")
    runs = _to_int(attack.get("runs", "50"), "attack.runs")
    attack_seed = _to_int(attack.get("seed", "0"), "attack.seed")

    output = parser["output"] if parser.has_section("output") else {}
    output_dir = output.get("dir", "out")

    return ExperimentConfig(
        dictionaries=dictionaries,
        proportions=proportions,
        population=population,
        composition_seed=composition_seed,
        password_file=password_file,
        init_policy=init_policy,
        guess_policy=guess_policy,
        guess_budget=guess_budget,
        runs=runs,
        attack_seed=attack_seed,
        output_dir=output_dir,
    )


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parsing it back reproduces ``cfg`` exactly."""
    lines = ["[dictionaries]"]
    lines += [f"{name} = {path}" for name, path in cfg.dictionaries]
    lines += ["", "[composition]"]
    if cfg.password_file is not None:
        lines.append(f"passwords = {cfg.password_file}")
    else:
        lines.append("proportions = " + ", ".join(repr(q) for q in cfg.proportions))
        lines.append(f"users = {cfg.population}")
    lines.append(f"seed = {cfg.composition_seed}")  # with a password file too, for round trips
    lines += [
        "",
        "[attack]",
        f"init = {cfg.init_policy.value}",
        f"guess = {cfg.guess_policy.value}",
        f"guesses = {cfg.guess_budget}",
        f"runs = {cfg.runs}",
        f"seed = {cfg.attack_seed}",
        "",
        "[output]",
        f"dir = {cfg.output_dir}",
    ]
    return "\n".join(lines) + "\n"


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a config file. Relative dictionary and password paths in it are
    taken from the config file's directory, so it works from any directory."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    cfg = parse_config(text)
    base = os.path.dirname(path)
    return dataclasses.replace(
        cfg,
        dictionaries=tuple((name, os.path.join(base, file)) for name, file in cfg.dictionaries),
        password_file=(None if cfg.password_file is None
                       else os.path.join(base, cfg.password_file)),
    )


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(serialize_config(cfg))
