"""Workload set-up as a user pays for it, from the import of pwbandit on.

``build`` reads the config and the dictionary files, builds the Corpus,
forces its lazy vocabulary matrix through the public ``probability_rows``,
composes the password set and asks the oracle once (which builds the
password multiset). Run as a script it does this in a fresh interpreter and
prints the elapsed seconds as JSON, so that the import is part of the time:

    python3 perfbench/setup_probe.py <config.ini>
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def use_checkout_source() -> None:
    """Import pwbandit from this checkout's ``src``; exit 2 if it is absent."""
    src = ROOT / "src"
    if not (src / "pwbandit" / "__init__.py").is_file():
        print(f"perfbench: no pwbandit sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


@dataclass
class Workload:
    config: object
    corpus: object
    password_set: object
    setup_s: float


def no_span(name: str):
    """A span that records nothing, for untraced runs."""
    return nullcontext()


def build(config_path: Path, span=no_span) -> Workload:
    """Set the workload up; ``span(name)`` (a context manager) times each call."""
    started = time.perf_counter()
    import pwbandit  # noqa: F401  (the import is part of set-up)
    from pwbandit import (Corpus, compose_password_set, load_config,
                          load_frequency_file, oracle_count)

    with span("config.load"):
        cfg = load_config(config_path)
    dictionaries = []
    for name, path in cfg.dictionaries:
        with span("dictionary.load"):
            dictionaries.append(load_frequency_file(name, path))
    with span("dictionary.corpus"):
        corpus = Corpus(tuple(dictionaries))
        corpus.probability_rows(corpus.union_vocabulary[:1])
    with span("simulator.compose"):
        ps = compose_password_set(corpus, cfg.proportions, cfg.population, cfg.composition_seed)
    with span("simulator.oracle"):
        oracle_count(ps, ps.passwords[0])
    return Workload(cfg, corpus, ps, time.perf_counter() - started)


if __name__ == "__main__":
    use_checkout_source()
    print(json.dumps({"setup_s": build(Path(sys.argv[1])).setup_s}))
