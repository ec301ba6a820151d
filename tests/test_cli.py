import csv
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pwbandit.cli
from pwbandit import GuessPolicy, InitPolicy, MixtureWeights, PasswordSet
from pwbandit.cli import _OVERRIDES, _apply_overrides, _build_parser, _load_password_lines, main
from pwbandit.config import (
    ExperimentConfig,
    load_config,
    parse_config,
    save_config,
    serialize_config,
)
from pwbandit.errors import ConfigError
from pwbandit.mixture import DescentConfig

from test_dictionary import BOM, file_bytes, words_st

BASE_CONFIG = """\
[dictionaries]
d1 = {d1}
d2 = {d2}

[composition]
proportions = 0.6, 0.4
users = 200
seed = 5

[attack]
init = average
guess = by-q
guesses = 3
runs = 2
seed = 1

[output]
dir = {out}
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "d1.tsv").write_text("alpha\t8\nbeta\t2\n", encoding="utf-8")
    (tmp_path / "d2.tsv").write_text("beta\t9\ngamma\t1\n", encoding="utf-8")
    config = BASE_CONFIG.format(
        d1=tmp_path / "d1.tsv", d2=tmp_path / "d2.tsv", out=tmp_path / "out"
    )
    path = tmp_path / "experiment.ini"
    path.write_text(config, encoding="utf-8")
    return tmp_path


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_parse_config_defaults(workdir):
    cfg = load_config(workdir / "experiment.ini")
    assert [name for name, _ in cfg.dictionaries] == ["d1", "d2"]
    assert cfg.proportions.q == (0.6, 0.4)
    assert cfg.population == 200
    assert cfg.guess_budget == 3
    assert cfg.runs == 2


def test_config_round_trip_is_a_fixed_point(workdir):
    first = load_config(workdir / "experiment.ini")
    text = serialize_config(first)
    second = parse_config(text)
    assert second == first
    assert serialize_config(second) == text
    save_config(second, workdir / "copy.ini")
    assert load_config(workdir / "copy.ini") == first


names_st = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,7}", fullmatch=True)
paths_st = st.from_regex(r"[A-Za-z0-9_./][A-Za-z0-9_./-]{0,15}", fullmatch=True)


@st.composite
def configs_st(draw):
    """A valid config, composed from proportions or read from a password file."""
    names = draw(st.lists(names_st, min_size=1, max_size=4, unique=True))
    dictionaries = tuple((name, draw(paths_st)) for name in names)
    if draw(st.booleans()):
        return ExperimentConfig(dictionaries, password_file=draw(paths_st))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(names), max_size=len(names))
                   .filter(any))
    return ExperimentConfig(
        dictionaries, proportions=MixtureWeights([w / sum(weights) for w in weights]),
        population=draw(st.integers(1, 10**6)), composition_seed=draw(st.integers(0, 10**6)))


@st.composite
def overrides_st(draw, command):
    """Values for some of ``command``'s override flags, in range or not."""
    values = {"seed": st.integers(-3, 10**6), "runs": st.integers(-3, 100),
              "guesses": st.integers(-3, 1000), "out": paths_st,
              "init": st.sampled_from([p.value for p in InitPolicy]),
              "guess": st.sampled_from([p.value for p in GuessPolicy])}
    return {flag: draw(values[flag]) for flag in _OVERRIDES[command] if draw(st.booleans())}


@given(configs_st(), st.sampled_from(list(_OVERRIDES)), st.data())
def test_config_round_trips_after_cli_overrides(cfg, command, data):
    flags = data.draw(overrides_st(command))
    argv = [command, "--config", "unused.ini"]
    for flag, value in flags.items():
        argv += [f"--{flag}", str(value)]
    if command == "estimate":
        argv.append("beta")
    args = _build_parser().parse_args(argv)
    lowest = {"seed": 0, "runs": 1, "guesses": 1}
    if any(value < lowest[flag] for flag, value in flags.items() if flag in lowest):
        with pytest.raises(ConfigError):
            _apply_overrides(cfg, args)
        return
    overridden = _apply_overrides(cfg, args)
    assert parse_config(serialize_config(overridden)) == overridden


@pytest.mark.parametrize("mutation, field", [
    ("[extra]\nkey = 1\n", "extra"),
    ("[attack]\nbudget = 3\n", "attack.budget"),
    ("[attack]\nruns = many\n", "attack.runs"),
    ("[attack]\ninit = fastest\n", "attack.init"),
    ("[composition]\nproportions = 0.6, 0.6\nusers = 10\n", "composition.proportions"),
    ("[descent]\nmax_steps = 20\n", "descent"),
    ("[composition]\nproportions = nan\nusers = 10\n", "composition.proportions"),
    ("[composition]\nproportions = 1.0\nusers = 10\nseed = -1\n", "composition.seed"),
    ("[composition]\nproportions = 1.0\nusers = 10\n[attack]\nseed = -1\n", "attack.seed"),
])
def test_parse_config_rejects_bad_input(tmp_path, mutation, field):
    text = "[dictionaries]\nd1 = x.tsv\n\n" + mutation
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.field == field


def test_config_requires_exactly_one_composition_source(tmp_path):
    with pytest.raises(ConfigError):
        parse_config("[dictionaries]\nd1 = x.tsv\n")
    with pytest.raises(ConfigError):
        parse_config(
            "[dictionaries]\nd1 = x.tsv\n\n[composition]\n"
            "passwords = leak.txt\nusers = 10\n"
        )
    with pytest.raises(ConfigError):
        ExperimentConfig(dictionaries=())


def test_compose_writes_set_and_sidecar(workdir, capsys):
    assert main(["compose", "--config", str(workdir / "experiment.ini")]) == 0
    lines = (workdir / "out" / "password_set.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 200
    assert set(lines) <= {"alpha", "beta", "gamma"}
    meta = (workdir / "out" / "password_set.meta").read_text(encoding="utf-8")
    assert "users = 200" in meta
    assert "counts = 120, 80" in meta
    assert "composed 200 passwords" in capsys.readouterr().out


def test_compose_is_reproducible_and_seed_override_changes_it(workdir):
    config = str(workdir / "experiment.ini")
    main(["compose", "--config", config])
    first = (workdir / "out" / "password_set.txt").read_bytes()
    main(["compose", "--config", config])
    assert (workdir / "out" / "password_set.txt").read_bytes() == first
    main(["compose", "--config", config, "--seed", "99"])
    assert (workdir / "out" / "password_set.txt").read_bytes() != first


def test_attack_writes_trace_and_summary(workdir):
    assert main(["attack", "--config", str(workdir / "experiment.ini")]) == 0
    header, rows = read_csv(workdir / "out" / "trace.csv")
    assert header == ["run", "guess_index", "word", "successes", "cumulative",
                      "qhat_1", "qhat_2"]
    assert {r[0] for r in rows} == {"1", "2"}
    for _, _, word, successes, cumulative, q1, q2 in rows:
        assert word in {"alpha", "beta", "gamma"}
        assert int(successes) >= 0 and int(cumulative) >= int(successes)
        assert float(q1) + float(q2) == pytest.approx(1.0, abs=1e-8)

    header, rows = read_csv(workdir / "out" / "summary.csv")
    assert header == ["guess_index", "mean_cumulative", "optimal_baseline"]
    assert [int(r[0]) for r in rows] == [1, 2, 3]
    for _, mean, best in rows:
        assert float(mean) <= int(best)


def test_attack_single_dictionary_matches_its_baseline(workdir):
    config = workdir / "single.ini"
    config.write_text(
        "[dictionaries]\n"
        f"d1 = {workdir / 'd1.tsv'}\n\n"
        "[composition]\nproportions = 1.0\nusers = 100\nseed = 2\n\n"
        "[attack]\nguesses = 2\nruns = 1\n\n"
        f"[output]\ndir = {workdir / 'single_out'}\n",
        encoding="utf-8",
    )
    assert main(["attack", "--config", str(config)]) == 0
    _, rows = read_csv(workdir / "single_out" / "summary.csv")
    for _, mean, best in rows:
        assert float(mean) == int(best)


def test_attack_is_byte_deterministic(workdir):
    config = str(workdir / "experiment.ini")
    main(["attack", "--config", config, "--init", "random", "--guess", "random-dict"])
    first = (workdir / "out" / "trace.csv").read_bytes()
    main(["attack", "--config", config, "--init", "random", "--guess", "random-dict"])
    assert (workdir / "out" / "trace.csv").read_bytes() == first


def test_attack_accepts_password_file(workdir):
    leak = workdir / "leak.txt"
    leak.write_text("beta\nbeta\nalpha\n", encoding="utf-8")
    config = workdir / "leak.ini"
    config.write_text(
        "[dictionaries]\n"
        f"d1 = {workdir / 'd1.tsv'}\nd2 = {workdir / 'd2.tsv'}\n\n"
        f"[composition]\npasswords = {leak}\n\n"
        "[attack]\nguesses = 2\nruns = 1\n\n"
        f"[output]\ndir = {workdir / 'leak_out'}\n",
        encoding="utf-8",
    )
    assert main(["attack", "--config", str(config)]) == 0
    _, rows = read_csv(workdir / "leak_out" / "summary.csv")
    assert [r[2] for r in rows] == ["2", "3"]


def test_crlf_inputs_give_the_same_outputs_as_lf(workdir):
    outputs = {}
    for tag, ending, bom in (("lf", "\n", ""), ("crlf", "\r\n", ""), ("bom", "\n", "\ufeff")):
        for name, lines in {"d1": ["alpha\t8", "beta\t2"], "d2": ["beta\t9", "gamma\t1"],
                            "leak": ["beta", "beta", "alpha", "gamma"]}.items():
            (workdir / f"{name}_{tag}.txt").write_bytes((bom + "".join(
                line + ending for line in lines)).encode("utf-8"))
        config = workdir / f"{tag}.ini"
        config.write_text(
            f"{bom}[dictionaries]\nd1 = {workdir / f'd1_{tag}.txt'}\n"
            f"d2 = {workdir / f'd2_{tag}.txt'}\n\n"
            f"[composition]\npasswords = {workdir / f'leak_{tag}.txt'}\n\n"
            "[attack]\nguesses = 3\nruns = 1\n\n"
            f"[output]\ndir = {workdir / tag}\n",
            encoding="utf-8",
        )
        assert main(["attack", "--config", str(config)]) == 0
        outputs[tag] = [(workdir / tag / f).read_bytes() for f in ("trace.csv", "summary.csv")]
    assert outputs["crlf"] == outputs["lf"]
    assert outputs["bom"] == outputs["lf"]
    _, rows = read_csv(workdir / "crlf" / "trace.csv")
    assert [r[4] for r in rows] == ["2", "3", "4"]


@given(st.lists(words_st, min_size=1, max_size=20), st.booleans(), st.data())
def test_password_file_ignores_line_endings_and_a_byte_order_mark(passwords, bom, data):
    raw = file_bytes(passwords, data, bom)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "leak.txt"
        path.write_bytes(raw)
        assert _load_password_lines(str(path)) == PasswordSet(tuple(passwords))


def test_composed_first_password_beginning_with_a_bom_survives(tmp_path):
    (tmp_path / "d1.tsv").write_bytes((BOM + BOM + "x\t5\n").encode("utf-8"))
    config = tmp_path / "bom.ini"
    config.write_text(f"[dictionaries]\nd1 = d1.tsv\n\n[composition]\nproportions = 1.0\n"
                      f"users = 3\n\n[output]\ndir = {tmp_path / 'out'}\n", encoding="utf-8")
    assert main(["compose", "--config", str(config)]) == 0
    loaded = _load_password_lines(str(tmp_path / "out" / "password_set.txt"))
    assert loaded.passwords == (BOM + "x",) * 3


def test_estimate_trajectory_csv(workdir):
    assert main([
        "estimate", "--config", str(workdir / "experiment.ini"), "beta", "alpha",
    ]) == 0
    header, rows = read_csv(workdir / "out" / "estimate.csv")
    assert header == ["step", "qhat_1", "qhat_2", "loglik"]
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert len(rows) <= DescentConfig().max_steps + 1  # initial point plus the iterates
    assert rows[0][1] == "0.5" and rows[0][2] == "0.5"
    logliks = [float(r[3]) for r in rows]
    assert logliks == sorted(logliks)


def test_estimate_starts_uniform_for_four_sources(workdir):
    for i in range(3, 5):
        (workdir / f"d{i}.tsv").write_text(f"word{i}\t1\n", encoding="utf-8")
    config = workdir / "four.ini"
    config.write_text(
        "[dictionaries]\n"
        + "".join(f"d{i} = {workdir}/d{i}.tsv\n" for i in range(1, 5))
        + "\n[composition]\nproportions = 0.4, 0.3, 0.2, 0.1\nusers = 50\n\n"
        f"[output]\ndir = {workdir / 'four_out'}\n",
        encoding="utf-8",
    )
    assert main(["estimate", "--config", str(config), "beta"]) == 0
    _, rows = read_csv(workdir / "four_out" / "estimate.csv")
    assert rows[0][1:5] == ["0.25", "0.25", "0.25", "0.25"]


def test_estimate_is_stationary_on_a_word_nobody_ranks(workdir):
    assert main([
        "estimate", "--config", str(workdir / "experiment.ini"), "nosuchword",
    ]) == 0
    _, rows = read_csv(workdir / "out" / "estimate.csv")
    # Zero gradient everywhere: every emitted iterate stays at the start.
    assert {tuple(r[1:3]) for r in rows} == {("0.5", "0.5")}


def test_estimate_rejects_repeated_words(workdir):
    assert main([
        "estimate", "--config", str(workdir / "experiment.ini"), "beta", "beta",
    ]) == 2


def test_baseline_csv(workdir):
    assert main(["baseline", "--config", str(workdir / "experiment.ini")]) == 0
    header, rows = read_csv(workdir / "out" / "baseline.csv")
    assert header == ["guess_index", "cumulative"]
    curve = [int(r[1]) for r in rows]
    assert len(curve) == 3
    assert curve == sorted(curve)
    assert curve[-1] <= 200


def test_exit_codes(workdir, capsys):
    bad = workdir / "bad.ini"
    bad.write_text("[dictionaries]\n", encoding="utf-8")
    assert main(["attack", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err

    missing_dict = workdir / "missing.ini"
    missing_dict.write_text(
        f"[dictionaries]\nd1 = {workdir / 'nope.tsv'}\n\n"
        "[composition]\nproportions = 1.0\nusers = 10\n",
        encoding="utf-8",
    )
    assert main(["attack", "--config", str(missing_dict)]) == 3
    assert "io error" in capsys.readouterr().err

    assert main(["attack", "--config", str(workdir / "nonexistent.ini")]) == 3

    config = str(workdir / "experiment.ini")
    for flag, field in (("--runs", "attack.runs"), ("--guesses", "attack.guesses")):
        assert main(["attack", "--config", config, flag, "0"]) == 2
        assert f"config error: {field}" in capsys.readouterr().err

    for command, field in (("attack", "attack.seed"), ("compose", "composition.seed")):
        assert main([command, "--config", config, "--seed", "-1"]) == 2
        assert f"config error: {field}" in capsys.readouterr().err
    assert main(["estimate", "--config", config, "--seed", "-1", "beta"]) == 2
    assert "config error: attack.seed" in capsys.readouterr().err

    text = (workdir / "experiment.ini").read_text(encoding="utf-8")
    for seed_line, field in (("seed = 5\n", "composition.seed"), ("seed = 1\n", "attack.seed")):
        negative = workdir / "negative.ini"
        negative.write_text(text.replace(seed_line, "seed = -1\n"), encoding="utf-8")
        assert main(["attack", "--config", str(negative)]) == 2
        assert f"config error: {field}" in capsys.readouterr().err


def test_internal_error_prints_its_traceback(workdir, capsys, monkeypatch):
    def fail(cfg):
        raise RuntimeError("invariant broken")

    monkeypatch.setattr(pwbandit.cli, "cmd_baseline", fail)
    assert main(["baseline", "--config", str(workdir / "experiment.ini")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "RuntimeError: invariant broken" in err
    assert err.splitlines()[-1] == "internal error: invariant broken"


@pytest.mark.parametrize("kind", ["config", "dictionary", "passwords"])
def test_non_utf8_input_file_is_a_config_error(workdir, capsys, kind):
    (workdir / "leak.txt").write_text("beta\nalpha\n", encoding="utf-8")
    config = workdir / "leak.ini"
    config.write_text(
        f"[dictionaries]\nd1 = {workdir / 'd1.tsv'}\nd2 = {workdir / 'd2.tsv'}\n\n"
        f"[composition]\npasswords = {workdir / 'leak.txt'}\n\n"
        f"[output]\ndir = {workdir / 'out'}\n",
        encoding="utf-8",
    )
    # The config file has no field, so its error names the file instead.
    target, named = {"config": (config, str(config)),
                     "dictionary": (workdir / "d2.tsv", "dictionaries.d2"),
                     "passwords": (workdir / "leak.txt", "composition.passwords")}[kind]
    target.write_bytes(target.read_bytes() + b"\xff\n")
    assert main(["attack", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {named}: ")


def test_config_paths_are_relative_to_the_config_file(tmp_path, monkeypatch):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "d1.tsv").write_text("alpha\t8\nbeta\t2\n", encoding="utf-8")
    (tmp_path / "a" / "leak.txt").write_text("beta\nalpha\nbeta\n", encoding="utf-8")
    (tmp_path / "a" / "e.ini").write_text(
        "[dictionaries]\nd1 = d1.tsv\n\n[composition]\npasswords = leak.txt\n\n"
        "[attack]\nguesses = 2\nruns = 1\n", encoding="utf-8")
    (tmp_path / "b").mkdir()
    for cwd, config in ((tmp_path, "a/e.ini"), (tmp_path / "b", "../a/e.ini"),
                        (tmp_path / "a", "e.ini")):
        monkeypatch.chdir(cwd)
        assert main(["baseline", "--config", config]) == 0
        # the output directory stays relative to the working directory
        _, rows = read_csv(cwd / "out" / "baseline.csv")
        assert rows == [["1", "2"], ["2", "3"]]
        assert main(["attack", "--config", config]) == 0
        _, rows = read_csv(cwd / "out" / "trace.csv")
        assert [row[2:5] for row in rows] == [["alpha", "1", "1"], ["beta", "2", "3"]]


@pytest.mark.parametrize("command, flag, value", [
    ("compose", "--runs", "1"), ("compose", "--init", "best"), ("estimate", "--guess", "by-q"),
    ("estimate", "--guesses", "1"), ("baseline", "--seed", "5"), ("baseline", "--init", "best"),
])
def test_subcommands_reject_flags_they_do_not_read(workdir, command, flag, value):
    words = ["beta"] if command == "estimate" else []
    with pytest.raises(SystemExit) as exit_:
        main([command, "--config", str(workdir / "experiment.ini"), flag, value, *words])
    assert exit_.value.code == 2


def test_malformed_dictionary_is_a_config_error(workdir, capsys):
    (workdir / "broken.tsv").write_text("word without tab\n", encoding="utf-8")
    config = workdir / "broken.ini"
    config.write_text(
        f"[dictionaries]\nbad = {workdir / 'broken.tsv'}\n\n"
        "[composition]\nproportions = 1.0\nusers = 10\n",
        encoding="utf-8",
    )
    assert main(["attack", "--config", str(config)]) == 2
    assert "line 1" in capsys.readouterr().err


def test_out_and_budget_overrides(workdir):
    override = workdir / "elsewhere"
    assert main([
        "baseline", "--config", str(workdir / "experiment.ini"),
        "--out", str(override), "--guesses", "2",
    ]) == 0
    _, rows = read_csv(override / "baseline.csv")
    assert len(rows) == 2
