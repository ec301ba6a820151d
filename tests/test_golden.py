"""Byte-for-byte CLI outputs on a small three-dictionary experiment.

The corpus shares one word between all three dictionaries, and the guess
budget (12) exceeds the union vocabulary (8 words), so every policy exhausts
the dictionaries: traces are truncated and the summary and baseline curves
are padded. The expected bytes live in ``golden_outputs.json``; to write
them again after a deliberate output change, run

    PYTHONPATH=src python tests/test_golden.py > tests/golden_outputs.json
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from pwbandit import GuessPolicy, InitPolicy
from pwbandit.cli import main

GOLDEN = Path(__file__).with_name("golden_outputs.json")

DICTIONARIES = {
    "d1": "alpha\t8\nbeta\t5\nshared\t3\ndelta\t1\n",
    "d2": "shared\t9\ngamma\t4\nbeta\t2\n",
    "d3": "omega\t7\nshared\t2\nzeta\t2\neta\t1\n",
}

CONFIG = """\
[dictionaries]
d1 = {root}/d1.tsv
d2 = {root}/d2.tsv
d3 = {root}/d3.tsv

[composition]
proportions = 0.5, 0.3, 0.2
users = 60
seed = 3

[attack]
guesses = 12
runs = 3
seed = 11
"""

ESTIMATE_WORDS = ["shared", "alpha", "nobody", "omega"]


def cli_outputs(root: Path) -> dict[str, str]:
    """Run every init x guess attack, one estimate and the baseline under ``root``."""
    for name, text in DICTIONARIES.items():
        (root / f"{name}.tsv").write_text(text, encoding="utf-8")
    config = root / "experiment.ini"
    config.write_text(CONFIG.format(root=root.as_posix()), encoding="utf-8")
    base = ["--config", str(config), "--out"]
    runs = {
        f"{init.value}-{guess.value}": ["attack", *base, str(root / f"{init.value}-{guess.value}"),
                                        "--init", init.value, "--guess", guess.value]
        for init in InitPolicy for guess in GuessPolicy
    }
    runs["estimate"] = ["estimate", *base, str(root / "estimate"), "--init", "random",
                        "--seed", "4", *ESTIMATE_WORDS]
    runs["baseline"] = ["baseline", *base, str(root / "baseline")]
    outputs = {}
    for name, argv in runs.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, name
        for path in sorted((root / name).iterdir()):
            outputs[f"{name}/{path.name}"] = path.read_bytes().decode("utf-8")
    return outputs


def test_cli_outputs_match_golden_bytes(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = cli_outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    assert len(actual) == 2 * 9 + 2
    for name in expected:
        assert actual[name] == expected[name], name


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        json.dump(cli_outputs(Path(scratch)), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
