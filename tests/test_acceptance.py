"""Acceptance gate: numbered criteria covering numeric correctness,
qualitative attack behavior and output stability. Criterion 2, the
optimality of the simplex projection, went with the projection, which the
Newton solver does not use; the others keep their numbers.

Each test prints one `[ACCEPTANCE n] name: PASS|FAIL` line (visible under
`pytest -s`) and then asserts. Heavy experiment data is computed once in
module-scoped fixtures and shared; every attack trace produced here is
registered and re-checked against the optimal baseline in criterion 7.
"""

import time

import numpy as np
import pytest

from pwbandit import (
    GuessPolicy,
    InitPolicy,
    MixtureWeights,
    compose_password_set,
    gradient,
    log_likelihood,
    optimal_baseline,
    run_attack,
)
from pwbandit import bandit
from pwbandit.cli import main
from pwbandit.dictionary import load_frequency_list, serialize_frequency_list
from pwbandit.mixture import GAP_TOL, DescentConfig, estimate, maximize

from helpers import (
    assert_trace_dominated,
    central_difference_gradient,
    disjoint_corpus,
    grid_loglik_max,
    overlap_corpus,
    random_corpus,
    random_history,
    random_interior_point,
)

TRUTH = MixtureWeights((0.6, 0.3, 0.1))

# every (trace, password_set) produced by the fixtures below, for criterion 7
ALL_TRACES = []
# (steps, final Frank-Wolfe gap) of every descent of criterion 6's attacks
CRITERION_6_DESCENTS = []


def _report(num: int, name: str, ok: bool) -> None:
    print(f"[ACCEPTANCE {num}] {name}: {'PASS' if ok else 'FAIL'}")


def _mean_se(finals) -> tuple[float, float]:
    arr = np.asarray(finals, dtype=float)
    se = arr.std(ddof=1) / np.sqrt(arr.size) if arr.size > 1 else 0.0
    return float(arr.mean()), float(se)


@pytest.fixture(scope="module")
def mixed_instance():
    """Three Zipf-like 1000-word dictionaries with a 400-word shared block
    and a 10,000-user password set composed at (0.6, 0.3, 0.1)."""
    corpus = overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000)
    ps = compose_password_set(corpus, TRUTH, 10_000, seed=42)
    return corpus, ps


@pytest.fixture(scope="module")
def recovery_data(mixed_instance):
    corpus, ps = mixed_instance
    started = time.perf_counter()
    first = run_attack(corpus, ps, InitPolicy.AVERAGE, GuessPolicy.BY_Q, 50, seed=0)
    elapsed = time.perf_counter() - started
    second = run_attack(corpus, ps, InitPolicy.AVERAGE, GuessPolicy.BY_Q, 50, seed=0)
    ALL_TRACES.append((first, ps))
    ALL_TRACES.append((second, ps))
    return first, second, elapsed


@pytest.fixture(scope="module")
def ordering_data(mixed_instance):
    """Criterion 6's attacks; also records each descent's steps and final
    Frank-Wolfe gap, computed here from the model's formula."""
    corpus, ps = mixed_instance

    steps, gaps = [], []

    def recording(arrays, w, *args):
        weights, taken = maximize(arrays, w, *args)
        steps.append(taken)
        return weights, taken

    def record_gaps(trace):
        # The probability rows of the words guessed so far, looked up in the
        # corpus, and the successes and estimate after each guess.
        probs, population = corpus.probability_rows(trace.words), ps.size
        for j, q in enumerate(trace.estimates, start=1):
            rows, counts = probs[:j], trace.counts[:j, 0].astype(float)
            observed = rows @ q
            hits = np.divide(counts, observed, out=np.zeros_like(counts), where=counts > 0)
            g = (rows.T @ hits
                 - (population - counts.sum()) * rows.sum(axis=0) / (1.0 - observed.sum()))
            gaps.append(float(g.max() - g @ q))

    started = time.perf_counter()
    finals = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bandit, "maximize", recording)
        for policy in GuessPolicy:
            traces = [
                run_attack(corpus, ps, InitPolicy.AVERAGE, policy, 100, seed=s)
                for s in range(50)
            ]
            for trace in traces:
                ALL_TRACES.append((trace, ps))
                record_gaps(trace)
            finals[policy] = [t.cumulative_curve[-1] for t in traces]
    elapsed = time.perf_counter() - started
    CRITERION_6_DESCENTS.extend(zip(steps, gaps, strict=True))
    return finals, optimal_baseline(ps, 100), elapsed


@pytest.fixture(scope="module")
def single_source_data():
    runs = {}
    corpus = disjoint_corpus(4, 200, exponent=0.4)
    ps = compose_password_set(corpus, MixtureWeights((0.0, 1.0, 0.0, 0.0)), 1000, seed=7)
    trace = run_attack(corpus, ps, InitPolicy.AVERAGE, GuessPolicy.BY_Q, 20, seed=0)
    ALL_TRACES.append((trace, ps))
    runs["disjoint"] = (trace.records[-1].estimate, 1)

    corpus = overlap_corpus(4, 300, 100, exponent=0.4, seed=2000)
    ps = compose_password_set(corpus, MixtureWeights((0.0, 0.0, 1.0, 0.0)), 1000, seed=7)
    trace = run_attack(corpus, ps, InitPolicy.AVERAGE, GuessPolicy.BY_Q, 20, seed=0)
    ALL_TRACES.append((trace, ps))
    runs["overlapping"] = (trace.records[-1].estimate, 2)
    return runs


def test_criterion_1_gradient_matches_finite_differences():
    started = time.perf_counter()
    worst = 0.0
    for n in (2, 3, 4):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            corpus = random_corpus(rng, n)
            history = random_history(rng, corpus)
            point = np.asarray(random_interior_point(rng, n))
            analytic = gradient(corpus, point, history)
            numeric = central_difference_gradient(
                lambda q: log_likelihood(corpus, q, history), point, step=1e-6
            )
            scale = np.maximum(np.abs(numeric), 1e-3)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-5 and elapsed < 5.0
    _report(1, "gradient vs central differences", ok)
    assert worst <= 1e-5, f"worst relative error {worst:.2e}"
    assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_3_estimates_match_grid_search_maximum():
    started = time.perf_counter()
    worst = -np.inf
    for n in (2, 3):
        rng = np.random.default_rng(200 + n)
        for _ in range(25):
            corpus = random_corpus(rng, n)
            history = random_history(rng, corpus)
            _, loglik, _ = estimate(corpus, history, MixtureWeights.uniform(n))
            grid_max, _ = grid_loglik_max(corpus, history, pitch=0.01)
            worst = max(worst, grid_max - loglik)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-3 and elapsed < 60.0
    _report(3, "MLE vs grid search on 50 histories", ok)
    assert worst <= 1e-3, f"grid beats estimate by {worst:.2e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_4_log_likelihood_is_midpoint_concave():
    floor = 1e-12
    rng = np.random.default_rng(17)
    worst = -np.inf
    checked = 0
    while checked < 1000:
        corpus = random_corpus(rng, 3)
        history = random_history(rng, corpus)
        probs = corpus.probability_rows(history.words)
        for _ in range(4):
            a = np.asarray(random_interior_point(rng, 3))
            b = np.asarray(random_interior_point(rng, 3))
            mid = (a + b) / 2
            # flooring must be inactive at both ends and the midpoint
            active = False
            for q in (a, b, mid):
                observed = probs @ q
                if observed.min() < 10 * floor or 1.0 - observed.sum() < 10 * floor:
                    active = True
            assert not active, "instance builder failed to keep flooring inactive"
            gap = log_likelihood(corpus, mid, history) - (
                log_likelihood(corpus, a, history) + log_likelihood(corpus, b, history)
            ) / 2
            worst = max(worst, -gap)
            checked += 1
    ok = worst <= 1e-9
    _report(4, "midpoint concavity on 1000 pairs", ok)
    assert worst <= 1e-9, f"concavity violated by {worst:.2e}"


def test_criterion_5_mixture_recovery(recovery_data):
    first, second, elapsed = recovery_data
    final = first.records[-1].estimate
    error = max(abs(q - t) for q, t in zip(final, TRUTH))
    deterministic = first == second
    ok = error < 0.1 and deterministic and elapsed < 60.0
    _report(5, "mixture recovery after 50 guesses", ok)
    assert error < 0.1, f"max |qhat - q| = {error:.3f}"
    assert deterministic, "same seed produced different traces"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_6_strategy_ordering(ordering_data):
    finals, baseline, elapsed = ordering_data
    by_q, se_q = _mean_se(finals[GuessPolicy.BY_Q])
    best, se_b = _mean_se(finals[GuessPolicy.BEST_DICTIONARY])
    rand, se_r = _mean_se(finals[GuessPolicy.RANDOM_DICTIONARY])
    top = by_q >= best - 2 * np.hypot(se_q, se_b)
    middle = best >= rand - 2 * np.hypot(se_b, se_r)
    near_optimal = by_q >= 0.85 * baseline[-1]
    ok = top and middle and near_optimal and elapsed < 300.0
    _report(6, "strategy ordering over 50 runs", ok)
    assert top, f"ByQ mean {by_q:.0f} below BestDictionary mean {best:.0f}"
    assert middle, f"BestDictionary mean {best:.0f} below RandomDictionary mean {rand:.0f}"
    assert near_optimal, f"ByQ mean {by_q:.0f} < 0.85 * optimal {baseline[-1]}"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_every_criterion_6_descent_is_certified(ordering_data):
    # The solver stops on the Frank-Wolfe gap, an upper bound on how far the
    # concave log-likelihood is below its maximum; the step cap never binds.
    steps = [s for s, _ in CRITERION_6_DESCENTS]
    gaps = [g for _, g in CRITERION_6_DESCENTS]
    assert len(CRITERION_6_DESCENTS) == 3 * 50 * 100
    assert max(gaps) <= GAP_TOL * 10_000, f"largest gap {max(gaps):.3g}"
    assert max(steps) < DescentConfig().max_steps


def test_criterion_7_no_trace_beats_the_baseline(recovery_data, ordering_data,
                                                 single_source_data, mixed_instance):
    corpus, ps = mixed_instance
    # extra sweep over the remaining policy/init combinations
    for init in (InitPolicy.RANDOM, InitPolicy.BEST):
        for policy in GuessPolicy:
            trace = run_attack(corpus, ps, init, policy, 40, seed=31)
            ALL_TRACES.append((trace, ps))
    for trace, password_set in ALL_TRACES:
        assert_trace_dominated(trace, password_set)
    ok = len(ALL_TRACES) >= 150
    _report(7, f"baseline dominance over {len(ALL_TRACES)} traces", ok)
    assert ok


def test_criterion_8_single_source_recovery(single_source_data):
    disjoint_estimate, true_index = single_source_data["disjoint"]
    disjoint_ok = disjoint_estimate[true_index] >= 0.95
    overlap_estimate, true_index = single_source_data["overlapping"]
    others = [w for i, w in enumerate(overlap_estimate) if i != true_index]
    overlap_ok = overlap_estimate[true_index] >= max(others)
    ok = disjoint_ok and overlap_ok
    _report(8, "single-source recovery after 20 guesses", ok)
    assert disjoint_ok, f"true-source weight {disjoint_estimate[true_index]:.3f} < 0.95"
    assert overlap_ok, (
        f"true-source weight {overlap_estimate[true_index]:.3f} "
        f"below another component {max(others):.3f}"
    )


def test_criterion_9_determinism_and_round_trip(tmp_path):
    (tmp_path / "d1.tsv").write_text("alpha\t80\nbeta\t20\n", encoding="utf-8")
    (tmp_path / "d2.tsv").write_text("beta\t90\ngamma\t10\n", encoding="utf-8")
    config = tmp_path / "experiment.ini"
    config.write_text(
        "[dictionaries]\n"
        f"d1 = {tmp_path / 'd1.tsv'}\nd2 = {tmp_path / 'd2.tsv'}\n\n"
        "[composition]\nproportions = 0.7, 0.3\nusers = 300\nseed = 9\n\n"
        "[attack]\ninit = random\nguess = random-dict\nguesses = 3\nruns = 5\nseed = 3\n\n"
        f"[output]\ndir = {tmp_path / 'out'}\n",
        encoding="utf-8",
    )
    assert main(["attack", "--config", str(config)]) == 0
    first = (tmp_path / "out" / "trace.csv").read_bytes()
    assert main(["attack", "--config", str(config)]) == 0
    identical = (tmp_path / "out" / "trace.csv").read_bytes() == first

    text = "123456\t990\npassword\t544\nqwerty\t544\nzz\t1\n"
    round_trip = serialize_frequency_list(load_frequency_list("leak", text.splitlines()))
    formats_stable = round_trip == text

    ok = identical and formats_stable
    _report(9, "byte determinism and format round-trip", ok)
    assert identical, "same config and seed produced different trace bytes"
    assert formats_stable, f"round-trip changed the file: {round_trip!r}"
