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
"""

from __future__ import annotations

import configparser
import dataclasses
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .bandit import GuessPolicy, InitPolicy
from .errors import ConfigError
from .mixture import MixtureWeights


def _proportions(text: str) -> MixtureWeights:
    return MixtureWeights([float(part) for part in text.split(",")])


# The schema, in file order: "section.key" -> (field of ExperimentConfig,
# parser of the key's text, least and greatest integer value or None). A
# count of users sizes arrays, so it may not exceed sys.maxsize; the summary
# pads its mean curve to the guess budget, a list of up to MAX_GUESSES
# entries. The free-form [dictionaries] section is not in it.
MAX_GUESSES = 10**7
KEYS = {
    "composition.passwords": ("password_file", str, None, None),
    "composition.proportions": ("proportions", _proportions, None, None),
    "composition.users": ("population", int, 1, sys.maxsize),
    "composition.seed": ("composition_seed", int, 0, None),
    "attack.init": ("init_policy", InitPolicy, None, None),
    "attack.guess": ("guess_policy", GuessPolicy, None, None),
    "attack.guesses": ("guess_budget", int, 1, MAX_GUESSES),
    "attack.runs": ("runs", int, 1, None),
    "attack.seed": ("attack_seed", int, 0, None),
    "output.dir": ("output_dir", str, None, None),
}
_SECTIONS = {key.partition(".")[0] for key in KEYS}
# The operating system cannot open such a path: open() raises ValueError.
_NUL_IN_PATH = "a path may not contain a NUL character"


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
        paths = [(f"dictionaries.{name}", path) for name, path in self.dictionaries]
        paths += [("composition.passwords", self.password_file), ("output.dir", self.output_dir)]
        for key, path in paths:
            if path is not None and "\0" in path:
                raise ConfigError(_NUL_IN_PATH, field=key)
        for key, (field, _, least, greatest) in KEYS.items():
            value = getattr(self, field)
            if value is None:
                continue
            if least is not None and value < least:
                raise ConfigError(f"must be >= {least}", field=key)
            if greatest is not None and value > greatest:
                raise ConfigError(f"must be <= {greatest}", field=key)
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
        elif self.proportions is not None or self.population is not None:
            raise ConfigError(
                "`passwords` excludes `proportions`/`users`", field="composition"
            )


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; raises ConfigError naming the bad field."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    parser.optionxform = str  # dictionary names are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    fields = {}
    for section in parser.sections():
        if section == "dictionaries":
            continue
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]", field=section)
        for key, value in parser[section].items():
            where = f"{section}.{key}"
            if where not in KEYS:
                raise ConfigError(f"unknown key {key!r}", field=where)
            field, parse, *_ = KEYS[where]
            try:
                fields[field] = parse(value)
            except ValueError as exc:
                raise ConfigError(str(exc), field=where) from None
    dictionaries = (tuple(parser.items("dictionaries"))
                    if parser.has_section("dictionaries") else ())
    return ExperimentConfig(dictionaries, **fields)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a config file. Relative dictionary and password paths in it are
    taken from the config file's directory, so it works from any directory."""
    if "\0" in os.fspath(path):
        raise ConfigError(f"{path!r}: {_NUL_IN_PATH}")
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

