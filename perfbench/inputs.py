"""Workload inputs: Zipf frequency lists written as TSV files plus an INI config.

Everything here is derived from the workload name and the seed, so the same
seed always gives byte-identical files; the seed only reaches the attack
seeds. Nothing here imports pwbandit: the inputs are what a user would hand
the program, and the benchmark's own checks read them back with their own
parser.

Run as a script to write one workload's inputs (kept out of the measuring
process so that generating them does not count toward its peak memory):

    python3 perfbench/inputs.py <workload> <seed> <directory>
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's corpus, password set and attacks."""

    n_dicts: int
    n_words: int            # words per dictionary
    n_shared: int           # words every dictionary ranks (in its own order)
    exponent: float         # Zipf exponent: count(rank) ~ scale / rank**exponent
    dict_seed: int          # dictionary i shuffles with seed dict_seed + i
    proportions: tuple[float, ...]
    users: int
    composition_seed: int
    budget: int             # guesses per attack
    attacks: tuple[tuple[str, str], ...]   # (init, guess) per attack of one round


SCALE = 1_000_000

# The acceptance instance: overlap_corpus(3, 1000, 400, 0.4, seed=1000) with
# 10,000 users composed at (0.6, 0.3, 0.1), composition seed 42.
_ACCEPTANCE = dict(n_dicts=3, n_words=1000, n_shared=400, exponent=0.4, dict_seed=1000,
                   proportions=(0.6, 0.3, 0.1), users=10_000, composition_seed=42)
POLICIES = ("random-dict", "best-dict", "by-q")


def spec_for(workload: str) -> Spec:
    """The inputs of ``workload``; KeyError for an unknown name.

    The corpus and password set of each workload are fixed; the run's seed
    picks the attack seeds (``attack_seed``).
    """
    if workload == "mixed-attack":
        # Cold-start descents on short histories: the solver-bound case.
        return Spec(**_ACCEPTANCE, budget=100,
                    attacks=tuple((init, g) for init in ("average", "random") for g in POLICIES))
    if workload == "long-budget":
        # Warm-started descents on histories of a thousand guesses.
        return Spec(**_ACCEPTANCE, budget=1000,
                    attacks=tuple(("best", g) for g in POLICIES))
    if workload == "large-vocab":
        # Whole-vocabulary setup and scoring over four 10^5-word lists. The
        # corpus is fixed, like the acceptance instance, because the solver's
        # work on it differs by a tenth or more from one corpus to another.
        return Spec(n_dicts=4, n_words=100_000, n_shared=40_000, exponent=0.9,
                    dict_seed=2020, proportions=(0.4, 0.3, 0.2, 0.1),
                    users=200_000, composition_seed=42, budget=25,
                    attacks=(("average", "by-q"), ("random", "by-q"),
                             ("best", "best-dict"), ("random", "random-dict")))
    raise KeyError(workload)


WORKLOADS = ("mixed-attack", "long-budget", "large-vocab")


def attack_seed(seed: int, round_no: int, slot: int, spec: Spec) -> int:
    """Seed of one attack; round 0, slot 0 is the seed the config file names."""
    return seed * 1_000_003 + round_no * len(spec.attacks) + slot


def dictionary_entries(spec: Spec, i: int) -> list[tuple[str, int]]:
    """Dictionary i: the shared block plus private words, shuffled, Zipf counts."""
    width = len(str(spec.n_words))
    shared = [f"s{j:0{width}d}" for j in range(spec.n_shared)]
    private = [f"d{i}w{j:0{width}d}" for j in range(spec.n_words - spec.n_shared)]
    vocab = shared + private
    np.random.default_rng(spec.dict_seed + i).shuffle(vocab)
    return [(word, max(1, round(SCALE / (rank ** spec.exponent))))
            for rank, word in enumerate(vocab, start=1)]


def write_inputs(spec: Spec, attack_seed: int, directory: Path) -> Path:
    """Write the dictionaries, config.ini and spec.json; return the config path.

    The config names the first attack slot and ``attack_seed`` for the CLI.
    """
    directory.mkdir(parents=True, exist_ok=True)
    lines = ["[dictionaries]"]
    for i in range(spec.n_dicts):
        path = directory / f"dict{i}.tsv"
        entries = dictionary_entries(spec, i)
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("".join(f"{w}\t{c}\n" for w, c in entries))
        lines.append(f"dict{i} = {path}")
    init, guess = spec.attacks[0]
    lines += [
        "", "[composition]",
        "proportions = " + ", ".join(repr(p) for p in spec.proportions),
        f"users = {spec.users}",
        f"seed = {spec.composition_seed}",
        "", "[attack]",
        f"init = {init}", f"guess = {guess}",
        f"guesses = {spec.budget}", "runs = 1", f"seed = {attack_seed}",
        "", "[output]", f"dir = {directory / 'cli_out'}",
    ]
    config = directory / "config.ini"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    (directory / "spec.json").write_text(json.dumps(asdict(spec)), encoding="utf-8")
    return config


def read_spec(directory: Path) -> Spec:
    raw = json.loads((directory / "spec.json").read_text(encoding="utf-8"))
    raw["proportions"] = tuple(raw["proportions"])
    raw["attacks"] = tuple(tuple(a) for a in raw["attacks"])
    return Spec(**raw)


def read_dictionaries(directory: Path, spec: Spec) -> list[dict[str, int]]:
    """The benchmark's own reader of the TSV files it wrote."""
    out = []
    for i in range(spec.n_dicts):
        counts: dict[str, int] = {}
        with open(directory / f"dict{i}.tsv", encoding="utf-8") as handle:
            for line in handle:
                word, count = line.rstrip("\n").split("\t")
                counts[word] = int(count)
        out.append(counts)
    return out


if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    spec = spec_for(workload)
    write_inputs(spec, attack_seed(seed, 0, 0, spec), Path(sys.argv[3]))
