import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pwbandit import (
    Corpus,
    DescentConfig,
    Dictionary,
    GuessHistory,
    GuessPolicy,
    InitPolicy,
    MixtureWeights,
    compose_password_set,
    estimate,
    gradient,
    log_likelihood,
    run_attack,
)
from pwbandit.errors import DimensionMismatch, EmptyInput
from pwbandit import mixture
from pwbandit.mixture import (
    GAP_TOL,
    PROBABILITY_FLOOR,
    HistoryArrays,
    maximize,
)

from helpers import (
    blas_core,
    central_difference_gradient,
    grid_loglik_max,
    random_corpus,
    random_history,
    overlap_corpus,
    random_interior_point,
    solver_slope,
)


@pytest.fixture
def two_dicts():
    return Corpus((
        Dictionary("d1", (("a", 8), ("b", 2))),
        Dictionary("d2", (("a", 2), ("b", 8))),
    ))


def test_mixture_weights_invariants():
    with pytest.raises(ValueError):
        MixtureWeights((0.5, 0.4))
    with pytest.raises(ValueError):
        MixtureWeights((1.5, -0.5))
    with pytest.raises(EmptyInput):
        MixtureWeights(())
    with pytest.raises(ValueError):
        MixtureWeights((math.nan, math.nan))
    with pytest.raises(ValueError):
        MixtureWeights((1.0, math.nan))
    assert MixtureWeights.uniform(4).q == (0.25, 0.25, 0.25, 0.25)


def test_mixture_weights_convert_to_arrays_only_by_copy():
    w = MixtureWeights((0.25, 0.75))
    for array in (np.array(w), np.asarray(w, copy=True), np.asarray(w)):
        assert array.dtype == float and array.tolist() == [0.25, 0.75]
    assert np.array(w, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError):
        np.asarray(w, copy=False)


def test_dot_and_matmul_give_the_same_bits_on_the_solvers_shapes():
    # The solver and by-q call ndarray.dot for speed; the bits they keep
    # are those of the @ operator, which reaches the same BLAS routine.
    rng = np.random.default_rng(20)
    for n in range(1, 9):
        for k in (1, 2, 17, 100, 1000):
            cats, q, ratio = rng.random((k, n)), rng.random(n), rng.random(k)
            scaled = cats.T * ratio
            pairs = [(cats, q), (cats.T, ratio), (scaled, cats), (q, q), (ratio, ratio)]
            for a, b in pairs:
                assert a.dot(b).tobytes() == (a @ b).tobytes(), (n, k, a.shape, b.shape)


def test_guess_history_validation():
    for population in (0, -3, 2.5, 3.0, True, "3", None):
        with pytest.raises(ValueError, match=repr(population)):
            GuessHistory(population)
    assert type(GuessHistory(np.int64(3)).population) is int
    with pytest.raises(ValueError):
        GuessHistory(10, (("a", 5), ("a", 2)))  # repeated word
    with pytest.raises(ValueError):
        GuessHistory(10, (("a", 7), ("b", 4)))  # exceeds population
    with pytest.raises(ValueError):
        GuessHistory(10, (("a", -1),))
    for successes in (2.7, 2.0, np.float64(2.0), True, np.True_, "2", None):
        with pytest.raises(ValueError, match="'b'"):
            GuessHistory(10, (("a", 5), ("b", successes)))
    h = GuessHistory(10, (("a", 5), ("b", np.int64(3)), ("c", 2)))
    assert h.words == ("a", "b", "c")
    assert h.observations == (("a", 5), ("b", 3), ("c", 2))
    assert type(h.observations[1][1]) is int
    assert len(h) == 3


def test_descent_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(max_steps=0)


def test_weights_of_the_wrong_dimension_are_rejected(two_dicts):
    h = GuessHistory(10, (("a", 1),))
    for call in (log_likelihood, gradient):
        with pytest.raises(DimensionMismatch):
            call(two_dicts, [1.0], h)
    with pytest.raises(DimensionMismatch):
        estimate(two_dicts, h, [1.0])


def test_estimate_rejects_a_start_off_the_simplex_before_any_step(monkeypatch):
    # 0.3 moved from one coordinate to another: the start still sums to 1,
    # but one weight is negative. It is rejected as a start, with its own
    # weights in the message, and no descent runs.
    c = overlap_corpus(3, 50, 20, seed=3)
    h = GuessHistory(100, ((c.union_vocabulary[0], 10),))
    descents, steps = [], []
    monkeypatch.setattr(mixture, "maximize", lambda *args: descents.append(args))
    for start in ([0.5, 0.3, 0.2], np.array([0.5, 0.3, 0.2])):
        start[0] += 0.3
        start[2] -= 0.3
        assert sum(start) == pytest.approx(1.0, abs=1e-12) and min(start) < 0
        with pytest.raises(ValueError, match="negative weight") as raised:
            estimate(c, h, start, on_step=lambda i, w, ll: steps.append(i))
        assert repr(tuple(float(x) for x in start)) in str(raised.value)
    with pytest.raises(ValueError, match="not 1"):
        estimate(c, h, [0.5, 0.3, 0.3])
    with pytest.raises(DimensionMismatch):
        estimate(c, h, [0.5, -0.5])
    assert descents == [] and steps == []
    # A valid sequence is a valid start, as is the MixtureWeights of it.
    monkeypatch.undo()
    assert estimate(c, h, [0.5, 0.3, 0.2]) == estimate(c, h, MixtureWeights((0.5, 0.3, 0.2)))


def test_log_likelihood_empty_history(two_dicts):
    h = GuessHistory(10)
    assert log_likelihood(two_dicts, MixtureWeights((0.3, 0.7)), h) == 0.0


def test_log_likelihood_symmetric_value(two_dicts):
    # Q_a = 0.5*0.8 + 0.5*0.2 = 0.5; 5 ln 0.5 + 5 ln 0.5 = 10 ln 0.5
    h = GuessHistory(10, (("a", 5),))
    value = log_likelihood(two_dicts, MixtureWeights((0.5, 0.5)), h)
    assert value == pytest.approx(10 * math.log(0.5), abs=1e-12)
    assert value == pytest.approx(-6.931471805599453, abs=1e-9)


def test_log_likelihood_floor_keeps_value_finite():
    c = Corpus((
        Dictionary("d1", (("a", 1),)),
        Dictionary("d2", (("c", 1),)),
    ))
    h = GuessHistory(10, (("a", 4),))
    starved = log_likelihood(c, MixtureWeights((0.0, 1.0)), h)  # Q_a = 0
    assert math.isfinite(starved)
    # a's term is floored, a constant, so only the rest's 6 users move the
    # gradient: 6 * left / (left . q) with left = (0, 1)
    assert gradient(c, MixtureWeights((0.0, 1.0)), h).tolist() == [0.0, 6.0]
    fed = log_likelihood(c, MixtureWeights((0.5, 0.5)), h)
    assert starved < fed


def test_gradient_empty_history_is_the_population_on_every_weight(two_dicts):
    # The one category is the rest, with probability left . q = sum(q) = 1:
    # its term N left_i / (left . q) is N for every dictionary.
    h = GuessHistory(10)
    assert np.array_equal(gradient(two_dicts, MixtureWeights((0.4, 0.6)), h), np.full(2, 10.0))


def test_gradient_symmetry(two_dicts):
    h = GuessHistory(10, (("a", 5),))
    g = gradient(two_dicts, MixtureWeights((0.5, 0.5)), h)
    assert g[0] == pytest.approx(g[1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gradient_matches_finite_differences(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(5):
        corpus = random_corpus(rng, n)
        history = random_history(rng, corpus)
        point = np.asarray(random_interior_point(rng, n))
        analytic = gradient(corpus, point, history)
        numeric = central_difference_gradient(
            lambda q: log_likelihood(corpus, q, history), point
        )
        assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_estimate_single_dictionary_is_trivial():
    c = Corpus((Dictionary("d1", (("a", 8), ("b", 2))),))
    h = GuessHistory(10, (("a", 5),))
    weights, loglik, steps = estimate(c, h, MixtureWeights((1.0,)))
    assert weights.q == (1.0,)
    assert steps == 0
    assert loglik == pytest.approx(log_likelihood(c, (1.0,), h))


def test_estimate_recovers_single_source_with_disjoint_supports():
    c = Corpus((
        Dictionary("d1", (("x1", 5), ("x2", 3), ("x3", 2))),
        Dictionary("d2", (("y1", 6), ("y2", 4))),
    ))
    h = GuessHistory(100, (("x1", 50), ("x2", 30)))
    weights, loglik, _ = estimate(c, h, MixtureWeights.uniform(2))
    assert weights[0] >= 0.99
    grid_max, _ = grid_loglik_max(c, h, pitch=0.01)
    assert loglik >= grid_max - 1e-3


@pytest.mark.parametrize("n", [2, 3])
def test_estimate_reaches_grid_search_maximum(n):
    rng = np.random.default_rng(90 + n)
    for _ in range(5):
        corpus = random_corpus(rng, n)
        history = random_history(rng, corpus)
        init = random_interior_point(rng, n)
        _, loglik, _ = estimate(corpus, history, init)
        grid_max, _ = grid_loglik_max(corpus, history, pitch=0.01)
        assert loglik >= grid_max - 1e-3


def test_estimate_monotone_ascent_and_improves_on_init(two_dicts):
    h = GuessHistory(50, (("a", 20), ("b", 10)))
    init = MixtureWeights((0.9, 0.1))
    trajectory = []
    weights, loglik, _ = estimate(
        two_dicts, h, init, on_step=lambda i, w, ll: trajectory.append(ll)
    )
    assert trajectory == sorted(trajectory)
    assert loglik >= log_likelihood(two_dicts, init, h)
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert loglik == trajectory[-1]


@pytest.mark.parametrize("k", [1, 5, 10])
def test_maximize_stops_at_max_steps(k):
    # Fourteen dictionaries rank alpha and beta in opposite orders, and beta
    # cracks 150 of 200 users where alpha cracks 10: the maximizer is the
    # vertex of the dictionary that ranks beta highest. From the uniform
    # point each Newton step stops at the boundary where one more dictionary
    # leaves the support, so the descent takes 13 steps.
    n = 14
    c = Corpus(tuple(Dictionary(f"d{i}", (("alpha", i + 1), ("beta", n - i), ("gamma", 3)))
                     for i in range(n)))
    h = GuessHistory(200, (("beta", 150), ("alpha", 10)))
    uncapped = []
    estimate(c, h, MixtureWeights.uniform(n), on_step=lambda i, w, ll: uncapped.append(i))
    assert len(uncapped) > k + 1  # the cap below binds
    capped = []
    _, steps = maximize(HistoryArrays.of(c, h)[0], np.full(n, 1.0 / n),
                        DescentConfig(max_steps=k), lambda i, w, gain: capped.append(i))
    assert capped == list(range(k + 1))
    assert steps == k


def fw_gap(corpus, weights, history) -> float:
    g = gradient(corpus, weights, history)
    return float(g.max() - g @ np.asarray(weights))


@pytest.mark.parametrize("observations", [
    # Q_c = 0 at the start, yet c cracked 30 users
    (("c", 30), ("a", 20), ("b", 0)),
    # d1's words are all guessed, so the rest has probability 0 at the start
    # (1.1e-16 after rounding) while 40 users remain
    (("x", 10), ("a", 20), ("b", 10), ("w", 0)),
])
def test_estimate_leaves_a_face_where_an_observed_category_has_probability_zero(observations):
    c = Corpus((
        Dictionary("d1", (("a", 43), ("b", 32), ("x", 23), ("w", 13))),
        Dictionary("d2", (("b", 5), ("c", 5), ("y", 5))),
        Dictionary("d3", (("a", 1), ("c", 9), ("z", 5))),
    ))
    h = GuessHistory(100, observations)
    start = MixtureWeights((1.0, 0.0, 0.0))
    trajectory = []
    weights, loglik, _ = estimate(c, h, start, on_step=lambda i, w, ll: trajectory.append(ll))
    observed = c.probability_rows(h.words) @ np.asarray(weights)
    assert all(observed[j] > 0 for j, (_, n) in enumerate(h.observations) if n > 0)
    assert 1.0 - observed.sum() > 0
    assert fw_gap(c, weights, h) <= GAP_TOL * h.population
    assert trajectory[0] == -math.inf  # the unfloored likelihood of the start
    assert trajectory[1:] == sorted(trajectory[1:])
    assert loglik > log_likelihood(c, start, h)
    assert loglik == pytest.approx(log_likelihood(c, weights, h), abs=1e-9)


def test_estimate_converges_once_every_word_is_guessed():
    # 50 of the 100 users hold words outside the dictionaries: the rest
    # category has no probability left anywhere, and drops out.
    c = Corpus((
        Dictionary("d1", (("a", 8), ("b", 2))),
        Dictionary("d2", (("b", 5), ("c", 5))),
        Dictionary("d3", (("a", 1), ("c", 9))),
    ))
    h = GuessHistory(100, (("c", 30), ("a", 20), ("b", 0)))
    grid_max, _ = grid_loglik_max(c, h, pitch=0.01)
    for start in (MixtureWeights.uniform(3), MixtureWeights((1.0, 0.0, 0.0))):
        weights, loglik, steps = estimate(c, h, start)
        assert fw_gap(c, weights, h) <= GAP_TOL * h.population
        assert steps < DescentConfig().max_steps
        assert loglik >= grid_max - 1e-3


@pytest.mark.parametrize("observations", [
    (("tiny", 1),),
    (("w", 0), ("tiny", 1), ("unranked", 0)),
    (("unranked", 1),),
])
def test_estimate_returns_the_start_where_no_category_is_left(observations):
    # Every user is cracked by a word no dictionary gives more than the floor
    # (1e-13 here) or that no dictionary ranks, so the floored objective is
    # constant on the simplex: its gradient is 0 and the first gap test stops.
    c = Corpus((
        Dictionary("d1", (("huge", 10**13), ("tiny", 1), ("w", 1))),
        Dictionary("d2", (("w", 1),)),
    ))
    start = MixtureWeights((0.25, 0.75))
    seen = []
    weights, loglik, steps = estimate(c, GuessHistory(1, observations), start,
                                      on_step=lambda index, *_: seen.append(index))
    assert weights == start and steps == 0 and seen == [0]
    assert loglik == log_likelihood(c, start, GuessHistory(1, observations))


def test_estimate_certifies_past_a_guessed_word_below_the_floor():
    # y cracked 30 users, but only dictionary a ranks it, at 1e-13: its term
    # is a constant of the floored objective, so it adds nothing to the
    # gradient, and the gap there certifies the maximizer.
    c = Corpus((
        Dictionary("a", (("x", 10**13), ("y", 1), ("w", 10**12))),
        Dictionary("b", (("z", 5), ("w", 3), ("v", 2))),
        Dictionary("c", (("z", 1), ("v", 4), ("u", 5))),
    ))
    h = GuessHistory(1000, (("y", 30), ("z", 200), ("w", 100), ("v", 50)))
    weights, loglik, _ = estimate(c, h, MixtureWeights.uniform(3))
    assert fw_gap(c, weights, h) <= GAP_TOL * h.population
    assert np.allclose(weights.q, (0.679501, 0.320499, 0.0), atol=1e-6)
    grid_max, _ = grid_loglik_max(c, h, pitch=0.01)
    assert loglik >= grid_max - 1e-3


def test_a_step_that_loses_is_halved_until_it_gains():
    # Two categories, 2 and 100 users, each given by one dictionary: from
    # (0.01, 0.99) the step towards the first has slope 99, but the maximum
    # along it is only 0.0096 away. Its first length, the boundary at 0.99,
    # leaves the second category at probability 0; the next five lose; the
    # sixth halving, 0.99 / 64, is the first that gains.
    cats, weight = np.eye(2), np.array([2.0, 100.0])
    w, direction = np.array([0.01, 0.99]), np.array([1.0, -1.0])
    observed = cats @ w
    slope = float(cats.T @ (weight / observed) @ direction)
    point, new, gain = mixture._step(w, direction, w.tolist(), direction.tolist(), slope, cats,
                                     weight, observed)
    assert point.tolist() == (w + 0.99 / 64 * direction).tolist()
    assert new.tolist() == (cats @ point).tolist()
    assert gain >= mixture.ARMIJO * 0.99 / 64 * slope
    assert float(weight @ np.log((cats @ (w + 0.99 / 32 * direction)) / observed)) < 0
    # d3 is d0 plus a rare word. While near-flat pivots counted as zero,
    # the Newton direction here gained nothing after 8 steps, and the
    # descent certified only through a pairwise step that gained after 27
    # halvings; kept, floored at the threshold, they let 8 Newton steps
    # certify it.
    head = (("x0", 2869257), ("w9", 434415), ("w13", 203235), ("w8", 149955),
            ("w14", 117040), ("w3", 103918))
    c = Corpus((
        Dictionary("d0", head),
        Dictionary("d1", (("x1", 2323908), ("w9", 143765))),
        Dictionary("d2", (("x2", 366505),)),
        Dictionary("d3", head + (("w5", 1),)),
    ))
    h = GuessHistory(35913, (("w9", 2956), ("w14", 373), ("w3", 418), ("w13", 499),
                             ("w15", 0), ("w8", 197)))
    start = MixtureWeights((0.6249752497373776, 0.13162739410826502,
                            0.00397752442136761, 0.23941983173298972))
    weights, _, _ = estimate(c, h, start)
    assert fw_gap(c, weights, h) <= GAP_TOL * h.population


def record_descents(monkeypatch, newton=None):
    """The events of the descents that follow, in order: each Newton
    direction with the gradient and point it was found at, as ("newton", d,
    g, q), and each step's direction, as ("step", d). ``newton`` stands in
    for the Newton direction if given."""
    events, step, newton = [], mixture._step, newton or mixture._newton_direction

    def recorded_newton(c, g, q, lam):
        d = newton(c, g, q, lam)
        events.append(("newton", d, g, q))
        return d

    def recorded_step(w, direction, q, d, *args):
        assert d == direction.tolist() and q == w.tolist()
        events.append(("step", d))
        return step(w, direction, q, d, *args)

    monkeypatch.setattr(mixture, "_newton_direction", recorded_newton)
    monkeypatch.setattr(mixture, "_step", recorded_step)
    return events


def pairwise_steps(events) -> int:
    """The pairwise steps among the recorded ``events``, checking the rule
    that holds on every BLAS kernel: a Newton direction that ascends is the
    next step's, and any other step is the pairwise one from the same point,
    towards the best vertex and away from the worst one in the support."""
    pairwise, g, q = 0, None, None
    for k, (kind, d, *point) in enumerate(events):
        if kind == "newton":
            g, q = point
            if d is not None and solver_slope(g, d) > 0:
                assert events[k + 1][1] is d
        elif events[k - 1][1] is not d:
            expected = [0.0] * len(q)
            expected[g.index(max(g))] = 1.0
            expected[min((i for i, x in enumerate(q) if x > 0), key=g.__getitem__)] = -1.0
            assert d == expected
            pairwise += 1
    return pairwise


def test_a_stalled_newton_direction_falls_back_to_a_pairwise_step(monkeypatch):
    # Sweep history 497 of tests/certification_sweep.py, whose every word is
    # guessed, so each dictionary keeps all its words and the descent is the
    # sweep's, bit for bit. d1 and d2 are d0 plus a rare word each, guessed
    # without success, so the likelihood is nearly linear along e0 - e1 and
    # the maximum is the vertex e0. The first Newton step, cut at the
    # boundary, empties d2, whose gradient is then below g . q.
    words = (("rest0", 44130072), ("w4", 536883), ("w11", 241226), ("w0", 131133),
             ("w13", 127005), ("w6", 124717), ("w15", 107898), ("w5", 107354), ("w10", 106449),
             ("w2", 98717), ("w12", 91755), ("w3", 83224), ("w7", 78363), ("w8", 65839))
    c = Corpus((Dictionary("d0", words), Dictionary("d1", words + (("r1_0", 1),)),
                Dictionary("d2", words + (("r2_0", 1),))))
    h = GuessHistory(18676, (("r1_0", 0), ("rest0", 17912), ("w3", 34), ("w6", 42), ("w0", 60),
                             ("w10", 50), ("w7", 30), ("w12", 35), ("w4", 201), ("w13", 46),
                             ("r2_0", 0), ("w2", 47), ("w5", 39), ("w15", 34), ("w11", 110),
                             ("w8", 36)))
    start = MixtureWeights((0.0773598833349667, 0.6658033476443316, 0.2568367690207018))
    events = record_descents(monkeypatch)
    weights, _, steps = estimate(c, h, start)
    pairwise_steps(events)
    assert fw_gap(c, weights, h) <= GAP_TOL * h.population
    if blas_core() in ("SkylakeX", "Sandybridge"):
        # On the face of d0 and d1 the 1 x 1 reduced Hessian rounds to
        # exactly 0 on these kernel sets (on Haswell's to 111526156.0), so
        # the direction counts as flat and is zero, and the step is the
        # pairwise one, which ends at e0.
        (_, first, *_), (_, long_step), (_, flat, *_), (_, pairwise) = events
        assert long_step is first and first[1] == 0.0 and first[2] < 0
        assert flat == [0.0, 0.0, 0.0] and pairwise == [1.0, -1.0, 0.0]
        assert weights.q == (1.0, 0.0, 0.0) and steps == 2
    # A flat direction on every kernel set: after the first, each Newton
    # direction is zero, whose slope is exactly 0.
    monkeypatch.undo()
    newton, found = mixture._newton_direction, []

    def flat_after_the_first(c, g, q, lam):
        found.append(newton(c, g, q, lam))
        return found[0] if len(found) == 1 else [0.0] * len(q)

    events = record_descents(monkeypatch, flat_after_the_first)
    weights, _, _ = estimate(c, h, start)
    assert len(found) >= 2 and pairwise_steps(events) >= 1
    assert fw_gap(c, weights, h) <= GAP_TOL * h.population
    # Sweep history 2200: here the reduced system is nearly singular along
    # e0 - e1. When such pivots counted as zero, the Newton direction soon
    # gained nothing and only the pairwise step reached the maximum; kept,
    # floored at the threshold, they let the Newton steps reach it alone.
    monkeypatch.undo()
    c = Corpus((
        Dictionary("d0", (("w9", 22996), ("w22", 63373), ("rest0", 2253319))),
        Dictionary("d1", (("w9", 22996), ("w22", 63373), ("r1_0", 1), ("rest1", 2253321))),
        Dictionary("d2", (("w14", 66458), ("rest2", 2242070))),
        Dictionary("d3", (("w22", 7348), ("w14", 28786), ("w9", 187842), ("rest3", 3626626))),
    ))
    h = GuessHistory(29533, (("w9", 493), ("w22", 494), ("w14", 250), ("r1_0", 0)))
    start = MixtureWeights((0.1642670821384264, 0.4239132086346427,
                            0.00031831000180768126, 0.4115013992251232))
    weights, _, steps = estimate(c, h, start)
    assert fw_gap(c, weights, h) <= GAP_TOL * h.population
    assert steps < DescentConfig().max_steps
    assert np.allclose(weights.q, (0.563514, 0.0, 0.217119, 0.219367), atol=1e-6)


def test_the_first_sweep_descents_all_certify():
    # The first 300 histories of tests/certification_sweep.py: corpora with
    # near-duplicate dictionaries, where 36 of these descents ran to the step
    # cap when every pivot below 1e-12 of the largest counted as zero.
    from certification_sweep import sweep

    records = sweep(300)
    assert max(r["gap"] for r in records) <= GAP_TOL
    assert max(r["steps"] for r in records) < DescentConfig().max_steps


@pytest.mark.parametrize("dictionaries,population,observations,start", [
    pytest.param(
        {"d0": (("rest0", 4092224), ("w18", 93216), ("w19", 92945), ("w27", 9785), ("w11", 5857),
                ("w47", 5273), ("w53", 2672), ("w45", 2520), ("w1", 1977), ("w23", 1861),
                ("w13", 1849), ("w34", 1584), ("w44", 1448), ("w41", 1421), ("w22", 1268),
                ("w52", 1256), ("unguessed0", 38158)),
         "d1": (("rest1", 1331044), ("w10", 8510), ("w38", 7573), ("w28", 6193), ("w9", 4903),
                ("w49", 4711), ("w14", 4062), ("w3", 3885), ("w11", 3358), ("w53", 3044),
                ("w44", 2857), ("w55", 2541), ("w21", 2397), ("w19", 2087), ("w18", 2008),
                ("w45", 1997), ("w1", 1640), ("w20", 1560), ("w52", 1285), ("w25", 1246),
                ("w34", 1200), ("w37", 1109), ("w13", 992), ("unguessed1", 74938)),
         "d2": (("rest2", 2601564), ("w22", 78189), ("w18", 8643), ("w1", 7983), ("w20", 7354),
                ("w28", 4955), ("w8", 4912), ("w47", 4210), ("w14", 4013), ("w26", 3766),
                ("w29", 3687), ("w49", 2696), ("w31", 2684), ("w34", 2579), ("w37", 2318),
                ("w41", 1535), ("w55", 1091), ("w21", 993), ("w53", 964), ("unguessed2", 104115)),
         "d3": (("rest2", 2601564), ("w22", 78189), ("w18", 8643), ("w1", 7983), ("w20", 7354),
                ("w28", 4955), ("w8", 4912), ("w47", 4210), ("w14", 4013), ("w26", 3766),
                ("w29", 3687), ("w49", 2696), ("w31", 2684), ("w34", 2579), ("w37", 2318),
                ("w41", 1535), ("w55", 1091), ("w21", 993), ("w53", 964), ("r3_0", 1),
                ("unguessed3", 104116)),
         "d4": (("rest4", 415623), ("w20", 19529), ("w18", 11471), ("w19", 9458), ("w3", 9315),
                ("w53", 3560), ("w55", 3486), ("w44", 3358), ("w9", 2965), ("w16", 2740),
                ("w37", 2590), ("w21", 2473), ("w4", 2426), ("w45", 2244), ("w49", 1943),
                ("w22", 1781), ("w27", 1747), ("w31", 1674), ("w41", 1455), ("w29", 1409),
                ("w10", 1299), ("w52", 1293), ("w38", 1288), ("w8", 1206), ("w1", 1183),
                ("w28", 1148), ("w26", 1101), ("w13", 974), ("w23", 965), ("unguessed4", 72544))},
        738606, (("w53", 1915), ("w23", 437), ("w9", 1684), ("w19", 6459), ("w22", 7440),
            ("w4", 1010), ("r3_0", 0), ("w10", 1325), ("w31", 934), ("w27", 1018), ("w34", 373),
            ("w26", 807), ("w55", 1864), ("w21", 1382), ("w45", 1161), ("w13", 557),
            ("rest2", 221347), ("w11", 460), ("w3", 4308), ("rest1", 124503), ("w16", 1131),
            ("rest4", 173565), ("w8", 957), ("rest0", 107147), ("w29", 914), ("w47", 503),
            ("w52", 679), ("w49", 1494), ("w44", 1692), ("w1", 1310), ("w28", 1441), ("w37", 1433),
            ("w38", 1244), ("w14", 774), ("w18", 8159), ("w41", 770), ("w25", 125), ("w20", 8867)),
        (0.5492104241471463, 0.00986708101669888, 0.31089862576493205, 0.12480909813536853,
         0.00521477093585431),
        id="history-1543"),
    pytest.param(
        {"d0": (("rest0", 25903302), ("w12", 185808), ("w27", 98132), ("w30", 65077),
                ("w9", 53138), ("w21", 43791), ("w14", 39532), ("w16", 38926), ("w17", 38423),
                ("w3", 33440), ("w26", 30081), ("w4", 24372), ("w20", 19858), ("w7", 18745),
                ("w5", 18452), ("w2", 16557), ("w31", 16491), ("w18", 16148),
                ("unguessed0", 289938)),
         "d1": (("w11", 215435), ("w18", 109901), ("w14", 52782), ("w20", 50029), ("w26", 47197),
                ("w9", 27840), ("w1", 23267), ("w17", 19109), ("w4", 17471), ("w30", 15937),
                ("unguessed1", 8090200)),
         "d2": (("w31", 70389), ("w7", 26195), ("w26", 22408), ("w5", 19056), ("w3", 14207),
                ("unguessed2", 2837220)),
         "d3": (("w11", 215435), ("w18", 109901), ("w14", 52782), ("w20", 50029), ("w26", 47197),
                ("w9", 27840), ("w1", 23267), ("w17", 19109), ("w4", 17471), ("w30", 15937),
                ("r3_1", 1), ("unguessed3", 8090201))},
        17574, (("rest0", 1698), ("r3_1", 0), ("w16", 2), ("w4", 16), ("w11", 248), ("w9", 31),
            ("w12", 15), ("w31", 191), ("w5", 54), ("w30", 17), ("w26", 122), ("w20", 36),
            ("w21", 5), ("w17", 15), ("w3", 44), ("w18", 103), ("w2", 1), ("w14", 45), ("w27", 5),
            ("w7", 60), ("w1", 19)),
        (0.3043764455184211, 0.5531141912469538, 0.01979558962150656, 0.12271377361311867),
        id="history-1619"),
    pytest.param(
        {"d0": (("unguessed0", 1194909),),
         "d1": (("w0", 44468), ("w1", 41102), ("w9", 34521), ("unguessed1", 14566437)),
         "d2": (("w0", 44468), ("w1", 41102), ("w9", 34521), ("r2_0", 1), ("unguessed2", 14566437)),
         "d3": (("w2", 70731), ("w0", 47669), ("w1", 37608), ("unguessed3", 39166042))},
        1659, (("w1", 3), ("w2", 0), ("r2_0", 0), ("w9", 0), ("w0", 0)),
        (0.15964803181449808, 0.10967895269829969, 0.4674646130539556, 0.26320840243324667),
        id="history-1675"),
    pytest.param(
        {"d0": (("w54", 840820), ("w23", 388109), ("w30", 182317), ("w42", 86076), ("w29", 69571),
                ("unguessed0", 24919391)),
         "d1": (("w54", 840820), ("w23", 388109), ("w30", 182317), ("w42", 86076), ("w29", 69571),
                ("unguessed1", 24919392)),
         "d2": (("w29", 112596), ("w16", 63818), ("unguessed2", 143637114)),
         "d3": (("w23", 1091776), ("unguessed3", 18853367)),
         "d4": (("w5", 157330), ("w23", 84217), ("unguessed4", 49456529)),
         "d5": (("w5", 157330), ("w23", 84217), ("r5_1", 1), ("unguessed5", 49456531))},
        556815, (("w23", 7143), ("w54", 13406), ("w5", 346), ("w30", 2941), ("w29", 1071),
            ("r5_1", 0), ("w16", 13), ("w42", 1400)),
        (0.2131310309769668, 0.08861184996309038, 0.09044984505619054, 0.3784634396684653,
         0.20472908723422464, 0.02461474710106233),
        id="history-2210"),
])
def test_the_sweep_descents_that_lost_their_certificate_certify(dictionaries, population,
                                                                 observations, start):
    # Four histories of tests/certification_sweep.py, each certified until
    # every descent took one damped step rule, then uncertified at the step
    # cap until pivots near zero were kept. Each dictionary keeps its guessed
    # words, and one word holds the count of the rest, so every guessed
    # word's probabilities are those of the sweep and the descent is the
    # sweep's, bit for bit.
    c = Corpus(tuple(Dictionary(name, entries) for name, entries in dictionaries.items()))
    h = GuessHistory(population, observations)
    weights, _, steps = estimate(c, h, MixtureWeights(start))
    assert fw_gap(c, weights, h) <= GAP_TOL * h.population
    assert steps < DescentConfig().max_steps


@pytest.mark.parametrize("dictionaries,population,observations,start,ascending_on", [
    pytest.param(
        {"d0": (("w0", 191891), ("w17", 155664), ("w13", 82133), ("unguessed0", 79341335)),
         "d1": (("w0", 191891), ("w17", 155664), ("w13", 82133), ("unguessed1", 79341337)),
         "d2": (("w0", 191891), ("w17", 155664), ("w13", 82133), ("r2_0", 1),
                ("unguessed2", 79341338))},
        80767, (("w13", 97), ("r2_0", 0), ("w17", 182), ("w0", 215)),
        (0.102868472735299, 0.31513372705423287, 0.5819978002104681),
        ("SkylakeX", "Haswell"), id="history-890"),
    pytest.param(
        {"d0": (("rest0", 369214), ("w24", 117065), ("w33", 6157)),
         "d1": (("rest0", 369214), ("w24", 117065), ("w33", 6157), ("r1_0", 1)),
         "d2": (("rest0", 369214), ("w24", 117065), ("w33", 6157), ("r2_0", 1), ("r2_1", 1),
                ("r2_2", 1))},
        198662, (("r2_2", 0), ("r2_1", 0), ("w33", 2481), ("r2_0", 0), ("w24", 47165),
                 ("rest0", 149016), ("r1_0", 0)),
        (0.06982774297035628, 0.46123812785621426, 0.46893412917342947),
        ("SkylakeX", "Haswell", "Sandybridge"), id="history-2196"),
])
def test_the_newton_directions_on_the_sweeps_near_duplicates_ascend(
        monkeypatch, dictionaries, population, observations, start, ascending_on):
    # Two histories of tests/certification_sweep.py over three near-duplicate
    # dictionaries, reduced as above to the sweep's descent bit for bit.
    # With the Hessian formed from the category rows, the Newton direction
    # after a floored pivot did not ascend (in 890 the first had slope about
    # -1.0e14, in 2196 the second about -5.0e5) and the descent fell back to
    # a pairwise step. On every kernel set, a step is the pairwise one only
    # where the Newton direction does not ascend or gains nothing, and the
    # descent certifies. Formed from the pair rows, on the kernel sets of
    # ``ascending_on`` every Newton direction ascends and every step is a
    # Newton step; on Sandybridge's, 890's first direction is flat.
    events = record_descents(monkeypatch)
    c = Corpus(tuple(Dictionary(name, entries) for name, entries in dictionaries.items()))
    h = GuessHistory(population, observations)
    weights, _, steps = estimate(c, h, MixtureWeights(start))
    assert fw_gap(c, weights, h) <= GAP_TOL * h.population
    assert steps < DescentConfig().max_steps
    pairwise = pairwise_steps(events)
    if blas_core() in ascending_on:
        assert events and pairwise == 0


def test_a_near_duplicate_instance_certifies_from_every_start():
    # d4 is d3 plus one unguessed word, and d2 is part of d1, so the MLE
    # puts d4's weight on d3. When near-flat pivots counted as zero, 11 of
    # these 20 starts ran to the step cap uncertified.
    c = Corpus((
        Dictionary("d0", (("w3", 96), ("w5", 75), ("w6", 67), ("w0", 59), ("w1", 39),
                          ("w4", 34), ("w2", 28))),
        Dictionary("d1", (("w4", 97258), ("w0", 56660), ("w5", 54570), ("w3", 1376))),
        Dictionary("d2", (("w0", 56660), ("w5", 54570))),
        Dictionary("d3", (("w3", 864027),)),
        Dictionary("d4", (("w3", 864027), ("w0", 1))),
    ))
    h = GuessHistory(883_572, (("w3", 413773), ("w5", 139964), ("w2", 23301), ("w4", 90460),
                               ("w1", 32262), ("w6", 54976)))
    rng = np.random.default_rng(0)
    for _ in range(20):
        start = rng.standard_exponential(5)
        weights, _, steps = estimate(c, h, MixtureWeights(start / start.sum()))
        assert fw_gap(c, weights, h) <= GAP_TOL * h.population
        assert steps < DescentConfig().max_steps
        assert weights[3] == pytest.approx(0.37763, abs=1e-5) and weights[4] == 0.0


def test_newton_direction_keeps_the_sum_and_solves_the_reduced_system():
    # Random positive semidefinite c = B B^T, some of rank below n, with
    # positive gradients like the objective's and points with empty
    # coordinates.
    rng = np.random.default_rng(5)
    for _ in range(600):
        n = int(rng.integers(2, 8))
        rank = int(rng.integers(1, n)) if rng.random() < 0.3 else n
        b = rng.standard_normal((n, rank)) * 10.0 ** rng.uniform(-3, 6)
        c = b @ b.T
        g = rng.standard_exponential(n) * 10.0 ** rng.uniform(-3, 6)
        q = rng.dirichlet(np.ones(n))
        q[rng.permutation(n)[:int(rng.integers(0, n - 1))]] = 0.0
        q /= q.sum()
        lam = float(g @ q)
        d = np.array(mixture._newton_direction(c.tolist(), g.tolist(), q.tolist(), lam))
        assert abs(d.sum()) <= 1e-12 * np.abs(d).max(initial=1.0)
        assert not d[(q == 0) & (g <= lam)].any()
        assert (d[q == 0] >= 0).all()
        # The free coordinates, the last of which balances the others: d on
        # them is Z u, and where Z^T c Z is nonsingular, u solves it.
        free = np.flatnonzero((q > 0) | (d != 0))
        z = np.vstack([np.eye(free.size - 1), -np.ones(free.size - 1)])
        a, rhs, u = z.T @ c[np.ix_(free, free)] @ z, z.T @ g[free], d[free][:-1]
        eigenvalues = np.linalg.eigvalsh(a)
        if eigenvalues.min() > 1e-8 * eigenvalues.max():
            assert np.linalg.norm(a @ u - rhs) <= 1e-9 * (
                np.linalg.norm(a) * np.linalg.norm(u) + np.linalg.norm(rhs))


def bits(values) -> list[int]:
    """The IEEE bits of each float: -0.0 and 0.0 differ, a NaN equals itself."""
    return np.array(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("a, b, expected", [
    pytest.param([[0.0, 0.0], [0.0, 0.0]], [1.0, 2.0], [0.0, 0.0, -0.0], id="zero-diagonal"),
    pytest.param([[-1e-20, 0.0], [0.0, -2e-20]], [1.0, 2.0], [0.0, 0.0, -0.0],
                 id="negative-diagonal"),
    pytest.param([[8.0, 5.0], [5.0, 8.0]], [0.8, 0.6],
                 [0.08717948717948719, 0.02051282051282051, -0.1076923076923077],
                 id="equal-diagonal-pivots-first"),
    pytest.param([[3.0, 2.0], [2.0, 8.0]], [0.8, 0.6], [0.26, 0.009999999999999995, -0.27],
                 id="larger-second-diagonal-pivots-first"),
    pytest.param([[4.0, 2.0], [2.0, 1.0]], [2.0, 1.0], [0.5, 0.0, -0.5], id="flat-pivot-drops"),
    pytest.param([[4.0, 2.0], [2.0, 1.0]], [2.0, 3.0],
                 [-249999999999.5, 500000000000.0, -250000000000.5], id="sloped-pivot-floors"),
    pytest.param([[1.0, 0.5], [0.5, -1e-30]], [1.0, 2.0],
                 [-749999999999.0, 1500000000000.0, -750000000001.0], id="negative-pivot-floors"),
    pytest.param([[2.0, 1.0], [-1.0, 1.0]], [-0.0, -0.0], [-0.0, -0.0, -0.0], id="signed-zeros"),
    pytest.param([[1.0, 0.5], [0.5, math.nan]], [1.0, 2.0], None, id="nan-pivot"),
    pytest.param([[math.nan, 0.5], [0.5, 1.0]], [1.0, 2.0], None, id="nan-first-diagonal"),
])
def test_a_2x2_reduced_system_takes_each_branch_of_the_elimination(a, b, expected):
    # With the last coordinate's row and column 0, the reduced system is a u
    # = b exactly. A zero or negative diagonal drops both pivots (threshold
    # <= 0). The pivot is the larger diagonal entry, the first of equal ones:
    # the other order rounds to other bits. A rank-one a leaves a second
    # pivot of 0, dropped where b is in a's range and floored at the
    # threshold where not. Back-substitution's total and the last entry's
    # sum start at 0, which turns a -0.0 into 0.0.
    c = [[a[0][0], a[0][1], 0.0], [a[1][0], a[1][1], 0.0], [0.0, 0.0, 0.0]]
    g = [b[0], b[1], 0.0]
    pair = mixture._reduced_pair(c, g, 3, [0, 1, 2])
    assert bits(pair) == bits(mixture._reduced_direction(c, g, 3, [0, 1, 2]))
    if expected is not None:
        assert bits(pair) == bits(expected)


def test_a_2x2_reduced_system_solves_to_the_eliminations_bits():
    # Seeded random systems on three free coordinates out of 3 to 5: minus
    # Hessians c = B B^T of full and lower rank at scales 1e-3 to 1e6, with
    # equal diagonal entries of the reduced system forced in a quarter of
    # them, and gradients c x + s, in c's range but for a constant that b
    # cancels, in a quarter; positive ones like the objective's otherwise.
    rng = np.random.default_rng(21)
    for k in range(4000):
        n = int(rng.integers(3, 6))
        rank = int(rng.integers(1, 3)) if rng.random() < 0.4 else n
        scale = 10.0 ** rng.uniform(-3, 6)
        m = rng.standard_normal((n, rank)) * scale
        c = m @ m.T
        index = sorted(rng.choice(n, 3, replace=False).tolist())
        i, j, last = index
        if k % 4 == 0:  # a_jj repeats a_ii's operations on the same values
            c[j, j], c[j, last], c[last, j] = c[i, i], c[i, last], c[last, i]
        if k % 4 == 1:
            g = c @ rng.standard_normal(n) + scale
        else:
            g = rng.standard_exponential(n) * scale
        c, g = c.tolist(), g.tolist()
        assert (bits(mixture._reduced_pair(c, g, n, index))
                == bits(mixture._reduced_direction(c, g, n, index)))


RANK_ONE = [[4.0, 2.0, 2.0], [2.0, 1.0, 1.0], [2.0, 1.0, 1.0]]
RANK_TWO = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]


@pytest.mark.parametrize("a, b, expected", [
    pytest.param([[0.0] * 3] * 3, [1.0, 2.0, 3.0], [0.0, 0.0, 0.0, -0.0], id="zero-diagonal"),
    pytest.param([[-1e-20, 0.0, 0.0], [0.0, -2e-20, 0.0], [0.0, 0.0, -3e-20]], [1.0, 2.0, 3.0],
                 [0.0, 0.0, 0.0, -0.0], id="negative-diagonal"),
    pytest.param([[8.0, 2.0, 1.0], [2.0, 3.0, 0.5], [1.0, 0.5, 2.0]], [0.8, 0.6, 0.3],
                 [0.05135135135135137, 0.15135135135135133, 0.08648648648648646,
                  -0.2891891891891891], id="first-pivot-first"),
    pytest.param([[3.0, 2.0, 0.5], [2.0, 8.0, 1.0], [0.5, 1.0, 2.0]], [0.8, 0.6, 0.3],
                 [0.25135135135135134, 0.0013513513513513514, 0.08648648648648646,
                  -0.33918918918918917], id="first-pivot-second"),
    pytest.param([[3.0, 0.5, 1.0], [0.5, 2.0, 2.0], [1.0, 2.0, 8.0]], [0.8, 0.6, 0.3],
                 [0.2382352941176471, 0.31029411764705883, -0.06985294117647059,
                  -0.47867647058823537], id="first-pivot-third"),
    pytest.param([[2.0, 0.5, 1.0], [0.5, 3.0, 1.0], [1.0, 1.0, 8.0]], [0.8, 0.6, 0.3],
                 [0.37738095238095243, 0.14642857142857144, -0.02797619047619048,
                  -0.49583333333333335], id="first-pivot-third-larger-last-pivots-second"),
    pytest.param([[8.0, 5.0, 3.0], [5.0, 8.0, 4.0], [3.0, 4.0, 8.0]], [0.8, 0.6, 0.3],
                 [0.08793103448275863, 0.023706896551724133, -0.0073275862068965586,
                  -0.10431034482758621], id="equal-diagonals-pivot-first"),
    pytest.param([[2.0, 1.0, 0.5], [1.0, 8.0, 5.0], [0.5, 5.0, 8.0]], [0.8, 0.6, 0.3],
                 [0.3863013698630137, 0.030136986301369857, -0.005479452054794522,
                  -0.4109589041095891], id="equal-later-diagonals-pivot-first"),
    pytest.param([[8.0, 1.0, 2.0], [1.0, 2.0, 0.5], [2.0, 0.5, 5.0]], [0.8, 0.6, 0.3],
                 [0.06492537313432836, 0.2656716417910448, 0.007462686567164173,
                  -0.3380597014925374], id="larger-last-diagonal-pivots-second"),
    pytest.param([[1.0, 0.5, 0.0], [math.inf, math.inf, 0.0], [0.0, 0.0, 0.5]], [1.0, 2.0, 3.0],
                 None, id="infinite-first-pivot-floors"),
    pytest.param([[1.0, math.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 0.0, 2.0],
                 [1.0, 0.0, 2.0, -3.0], id="dropped-second-pivot-adds-no-term"),
    pytest.param([[1.0, 0.0, math.inf], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 2.0, 0.0],
                 [1.0, 2.0, 0.0, -3.0], id="dropped-third-pivot-adds-no-term"),
    pytest.param(RANK_ONE, [2.0, 1.0, 1.0], [0.5, 0.0, 0.0, -0.5],
                 id="flat-second-and-third-pivots-drop"),
    pytest.param(RANK_ONE, [2.0, 3.0, 1.0],
                 [-249999999999.5, 500000000000.0, 0.0, -250000000000.5],
                 id="sloped-second-pivot-floors-flat-third-drops"),
    pytest.param(RANK_ONE, [2.0, 1.0, 3.0],
                 [-249999999999.5, 0.0, 500000000000.0, -250000000000.5],
                 id="flat-second-pivot-drops-sloped-third-floors"),
    pytest.param(RANK_ONE, [2.0, 3.0, 4.0],
                 [-624999999999.5, 500000000000.0, 750000000000.0, -625000000000.5],
                 id="second-and-third-pivots-floor"),
    pytest.param(RANK_TWO, [1.0, 2.0, 3.0], [-1.0, 0.0, 2.0, -1.0], id="flat-third-pivot-drops"),
    pytest.param(RANK_TWO, [1.0, 2.0, 4.0],
                 [-500000000002.0, -500000000000.0, 500000000003.0, 499999999999.0],
                 id="sloped-third-pivot-floors"),
    pytest.param([[1.0, 0.5, 0.0], [0.5, -1e-30, 0.0], [0.0, 0.0, 0.5]], [1.0, 2.0, 3.0],
                 [-749999999999.0, 1500000000000.0, 6.0, -750000000007.0],
                 id="negative-third-pivot-floors"),
    pytest.param([[1.0, 0.5, 0.5], [0.5, -1e-30, 0.0], [0.5, 0.0, -1e-30]], [1.0, 2.0, 3.0],
                 None, id="negative-second-and-third-pivots-floor"),
    pytest.param([[2.0, 1.0, 0.0], [-1.0, 1.0, 0.5], [0.0, -0.5, 1.0]], [-0.0, -0.0, -0.0],
                 [-0.0, -0.0, 0.0, -0.0], id="signed-zeros"),
    pytest.param([[1.0, -1.0, -1.0], [3.0, 4.0, -1.0], [-0.5, -1.0, 4.0]], [-0.0, -0.0, -0.0],
                 [-0.0, -0.0, -0.0, -0.0], id="signed-zeros-kept"),
    pytest.param([[1.0, 0.5, 0.2], [0.5, 2.0, 0.1], [0.2, 0.1, math.nan]], [1.0, 2.0, 3.0],
                 None, id="nan-pivot"),
    pytest.param([[math.nan, 0.5, 0.2], [0.5, 1.0, 0.1], [0.2, 0.1, 2.0]], [1.0, 2.0, 3.0],
                 None, id="nan-first-diagonal"),
])
def test_a_3x3_reduced_system_takes_each_branch_of_the_elimination(a, b, expected):
    # As for the 2 x 2 system, the reduced system is a u = b exactly. The
    # first pivot is the first of the largest diagonal entries, so it is
    # kept wherever the threshold, 1e-12 of it, is positive and finite: a
    # zero, negative or NaN largest diagonal drops all three pivots, an
    # infinite one floors each at infinity. The second pivot is the larger
    # of the other two after the first eliminates them, the first of them on
    # a tie. A rank-one a leaves second and third pivots of 0, a rank-two a
    # a third one, each dropped where its eliminated b is 0 and floored at
    # the threshold where not; a dropped pivot eliminates nothing and adds
    # no term to back-substitution (with an infinite entry, its term times
    # its u of 0 would be NaN). Where every u is -0.0, back-substitution's
    # total and the last entry's sum, both started at 0, keep the signs the
    # reference gives.
    c = [[*a[0], 0.0], [*a[1], 0.0], [*a[2], 0.0], [0.0] * 4]
    g = [*b, 0.0]
    triple = mixture._reduced_triple(c, g, 4, [0, 1, 2, 3])
    assert bits(triple) == bits(mixture._reduced_direction(c, g, 4, [0, 1, 2, 3]))
    if expected is not None:
        assert bits(triple) == bits(expected)


def test_a_3x3_reduced_system_solves_to_the_eliminations_bits():
    # As for the 2 x 2 system: seeded random systems on four free
    # coordinates out of 4 to 6, c = B B^T of full and lower rank at scales
    # 1e-3 to 1e6, equal diagonal entries of the reduced system forced in a
    # quarter of them (two or all three), gradients in c's range in a
    # quarter and positive otherwise.
    rng = np.random.default_rng(22)
    for k in range(4000):
        n = int(rng.integers(4, 7))
        rank = int(rng.integers(1, 4)) if rng.random() < 0.4 else n
        scale = 10.0 ** rng.uniform(-3, 6)
        m = rng.standard_normal((n, rank)) * scale
        c = m @ m.T
        index = sorted(rng.choice(n, 4, replace=False).tolist())
        i, *others, last = index
        if k % 4 == 0:  # a_jj, and a_kk in every other one, repeat a_ii's operations
            for j in others[:1 + k % 8 // 4]:
                c[j, j], c[j, last], c[last, j] = c[i, i], c[i, last], c[last, i]
        if k % 4 == 1:
            g = c @ rng.standard_normal(n) + scale
        else:
            g = rng.standard_exponential(n) * scale
        c, g = c.tolist(), g.tolist()
        assert (bits(mixture._reduced_triple(c, g, n, index))
                == bits(mixture._reduced_direction(c, g, n, index)))


def test_the_newton_direction_through_the_closed_form_is_the_eliminations(monkeypatch):
    # Points with empty coordinates, some of them free because their
    # gradient beats g . q: where the step would push one negative, it is
    # fixed at 0 and the step solved again, from 5 free coordinates to 4
    # (the elimination, then the 3 x 3 closed form), from 4 to 3 (the 3 x 3,
    # then the 2 x 2 closed form) and from 3 to 2 (the 2 x 2, then the
    # elimination).
    rng = np.random.default_rng(8)
    cases = []
    for _ in range(1500):
        n = int(rng.integers(3, 7))
        m = rng.standard_normal((n, int(rng.integers(1, n + 1)))) * 10.0 ** rng.uniform(-3, 6)
        g = rng.standard_exponential(n) * 10.0 ** rng.uniform(-3, 6)
        q = rng.dirichlet(np.ones(n))
        q[rng.permutation(n)[:int(rng.integers(0, n - 1))]] = 0.0
        q /= q.sum()
        cases.append(((m @ m.T).tolist(), g.tolist(), q.tolist(), float(g @ q)))
    got = [mixture._newton_direction(*case) for case in cases]
    sizes, reference = [], mixture._reduced_direction

    def solve(c, g, n, index):
        sizes[-1].append(len(index))
        return reference(c, g, n, index)

    monkeypatch.setattr(mixture, "_reduced_pair", solve)
    monkeypatch.setattr(mixture, "_reduced_triple", solve)
    monkeypatch.setattr(mixture, "_reduced_direction", solve)
    want = []
    for case in cases:
        sizes.append([])
        want.append(mixture._newton_direction(*case))
    assert [None if d is None else bits(d) for d in got] == [
        None if d is None else bits(d) for d in want]
    assert [4, 3] in sizes and [3, 2] in sizes
    resolves = {pair for solves in sizes for pair in zip(solves, solves[1:])}
    assert {(5, 4), (4, 3), (3, 2)} <= resolves


@pytest.mark.parametrize("c, g, q, lam, expected", [
    pytest.param(
        [[80767.00118205948, 80767.00118057356, 80767.00016734519],
         [80767.00118057357, 80767.00117908765, 80767.00016585928],
         [80767.00016734519, 80767.00016585928, 80766.99915263092]],
        [80767.00059102975, 80767.00058954384, 80766.99957631546],
        [0.102868472735299, 0.31513372705423287, 0.5819978002104681], 80767.0,
        [69730635.0, -1.02111e+17, 1.0211099993026936e+17], id="history-890"),
    pytest.param(
        [[198663.5072346971, 198663.10380541126, 198662.29695175504],
         [198663.10380541126, 198662.70037694465, 198661.89352492694],
         [198662.29695175504, 198661.8935249269, 198661.08667618615]],
        [198662.75361591915, 198662.35018816366, 198661.5433375682],
        [0.37732016890004305, 0.0, 0.622679831099957], 198662.0,
        [-283799351248.0442, 425699273090.6856, -141899921842.64142], id="history-2196"),
])
def test_the_sweeps_non_ascending_newton_directions_are_pinned(c, g, q, lam, expected):
    # The Newton systems that sweep histories 890 and 2196 (see
    # test_the_newton_directions_on_the_sweeps_near_duplicates_ascend) met
    # while minus the Hessian was formed from the category rows, which left
    # it asymmetric: three free coordinates (in 2196 one of them empty, with
    # a gradient above lam), a near-singular reduced system whose second
    # pivot is floored, and a direction along which the objective does not
    # ascend. The solve of these floats stays pinned.
    d = mixture._newton_direction(c, g, q, lam)
    assert bits(d) == bits(expected)
    assert bits(mixture._reduced_direction(c, g, len(q), [0, 1, 2])) == bits(expected)
    assert float(np.dot(g, d)) <= 0


def test_no_step_takes_a_coordinate_below_zero():
    # So _step clips nothing at 0: a float step below a coordinate's rounded
    # ratio w_i / -d_i is below the exact ratio, and at the limit the hits
    # are set to 0. Each point is checked against its clip at the limit, one
    # ulp below it, the unit step with limits from 2 ulps below to 32 ulps
    # above 1.0, and half the first step; then the points _step returns.
    rng = np.random.default_rng(4)
    near, cases = 0, []
    for k in range(3000):
        n = int(rng.integers(2, 6))
        w = rng.dirichlet(np.ones(n))
        w[rng.permutation(n)[:int(rng.integers(0, n - 1))]] = 0.0
        w /= w.sum()
        d = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
        d -= d.mean()
        if k % 2:  # the largest coordinate binds, near 1.0
            i = int(np.argmax(w))
            d[i] = -w[i] * (1.0 - int(rng.integers(-4, 65)) * 2.0 ** -53)
            below = d < 0
            d[below] = np.maximum(d[below], d[i] * w[below] / w[i])
        ratios = [(x / -di, i) for i, (x, di) in enumerate(zip(w.tolist(), d.tolist())) if di < 0]
        limit = min(ratios)[0]
        hits = [i for r, i in ratios if r == limit]
        steps = [limit, np.nextafter(limit, 0.0), 0.5 * min(1.0, limit)]
        if limit >= 1.0:
            steps.append(1.0)
            near += limit < 1.0 + 2.0 ** -47
        for step in steps:
            point = w + d if step == 1.0 else w + step * d
            if step == limit:
                point[hits] = 0.0
            assert (point >= 0).all()
            assert bits(point) == bits(np.maximum(point, 0.0))
        cats = rng.standard_exponential((int(rng.integers(1, 6)), n))
        cases.append((w, d, cats, rng.integers(1, 100, len(cats)).astype(float)))
    assert near > 100
    for w, d, cats, weight in cases:
        observed = cats @ w
        slope = abs(float(cats.T.dot(weight / observed).dot(d)))
        moved = mixture._step(w, d, w.tolist(), d.tolist(), slope, cats, weight, observed)
        if moved is not None:
            assert bits(moved[0]) == bits(np.maximum(moved[0], 0.0))


def test_estimate_is_deterministic(two_dicts):
    h = GuessHistory(50, (("a", 20), ("b", 10)))
    init = MixtureWeights((0.25, 0.75))
    first = estimate(two_dicts, h, init)
    second = estimate(two_dicts, h, init)
    assert first[0].q == second[0].q
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_midpoint_concavity_sample():
    rng = np.random.default_rng(11)
    for _ in range(20):
        corpus = random_corpus(rng, 3)
        history = random_history(rng, corpus)
        w1 = np.asarray(random_interior_point(rng, 3))
        w2 = np.asarray(random_interior_point(rng, 3))
        mid = log_likelihood(corpus, (w1 + w2) / 2, history)
        ends = (log_likelihood(corpus, w1, history) + log_likelihood(corpus, w2, history)) / 2
        assert mid >= ends - 1e-9


def column_totals(probs):
    """The m rows added in turn, as the running totals add them: numpy's
    sum(axis=0) does too for n >= 2, but sums a single column pairwise."""
    return np.cumsum(probs, axis=0)[-1] if len(probs) else np.zeros(probs.shape[1])


def reference_categories(probs, counts, population):
    """The categories as each descent once rebuilt them from the m rows,
    with the guesses that only one dictionary ranks merged: their rows, their
    counts, and the constant of the public value: ln(floor) for each user
    outside them and, exactly rounded, sum N ln p over the merged
    categories' guesses."""
    live = [(row, count) for row, count in zip(probs.tolist(), counts.tolist())
            if count > 0 and max(row) > PROBABILITY_FLOOR]
    cats, weight, merged = [], [], {}
    for row, count in live:
        ranked = np.flatnonzero(row)
        if len(ranked) == 1:
            i = int(ranked[0])
            if i not in merged:
                merged[i] = (len(cats), [])
                cats.append(None)
                weight.append(None)
            merged[i][1].append((row[i], count))
        else:
            cats.append(row)
            weight.append(count)
    terms = []
    for i, (k, words) in merged.items():
        p_min = min(p for p, _ in words)
        cats[k] = [p_min if j == i else 0.0 for j in range(probs.shape[1])]
        weight[k] = sum(count for _, count in words)
        terms += [count * math.log(p) for p, count in words]
    cats, weight = np.array(cats).reshape(-1, probs.shape[1]), np.array(weight, dtype=float)
    left, rest = 1.0 - column_totals(probs), population - counts.sum()
    if rest > 0 and left.max() > PROBABILITY_FLOOR:
        cats, weight = np.vstack([cats, left]), np.append(weight, rest)
    floored = (population - weight.sum()) * mixture._LOG_FLOOR
    return cats, weight, floored + math.fsum(terms)


@st.composite
def growing_attacks(draw, sizes=st.integers(1, 3)):
    """A corpus of ``sizes`` dictionaries, a population and guesses with
    successes. The guesses mix zero-success guesses, unranked words with
    successes and a word that no dictionary gives more than the floor; they
    may crack the last users and may cover every word, and can give more
    than 16 categories."""
    words = [f"w{i:02d}" for i in range(draw(st.integers(1, 40)))]
    dictionaries = []
    for i in range(draw(sizes)):
        ranked = draw(st.permutations(words)) if i == 0 else draw(
            st.lists(st.sampled_from(words), min_size=1, unique=True))
        counts = draw(st.lists(st.integers(1, 1000), min_size=len(ranked), max_size=len(ranked)))
        entries = tuple(zip(ranked, counts))
        if i == 0:  # "tiny" has probability below 1e-13
            entries += (("huge", 10**13), ("tiny", 1))
        dictionaries.append(Dictionary(f"d{i}", entries))
    corpus = Corpus(tuple(dictionaries))
    pool = draw(st.permutations(corpus.union_vocabulary + ("unranked-a", "unranked-b")))
    guesses = pool if draw(st.booleans()) else pool[:draw(st.integers(0, len(pool)))]
    population = draw(st.integers(1, 10**6))
    crack_the_rest = draw(st.booleans())
    observations, left = [], population
    for j, word in enumerate(guesses):
        last = j == len(guesses) - 1
        successes = left if last and crack_the_rest else draw(st.integers(0, min(left, 50)))
        observations.append((word, successes))
        left -= successes
    return corpus, population, observations


# Merged categories. Only d0 ranks x and y, and only d1 ranks z: y comes
# after x with a smaller probability, so d0's merged row is rescaled to it.
RESCALED_MERGE = (
    Corpus((Dictionary("d0", (("x", 3), ("s", 2), ("y", 1))),
            Dictionary("d1", (("s", 1), ("z", 1))))),
    100, [("x", 5), ("z", 2), ("s", 3), ("y", 4), ("z0", 1)])
# One dictionary: every live row merges into one category.
ONE_DICTIONARY_MERGE = (
    Corpus((Dictionary("d", (("a", 5), ("b", 3), ("c", 1), ("e", 1))),)),
    50, [("b", 4), ("a", 7), ("c", 0), ("e", 2)])


@settings(max_examples=200, deadline=None)
@given(growing_attacks())
# From the uniform start, the first step's limit is where d0's weight reaches
# 0, which is also where huge, the one category only d0 gives, has its pole:
# rounding leaves 1 + limit * change just above 0 there, while the point
# reached, with d0's weight set to 0, gives huge probability 0.
@example((Corpus((Dictionary("d0", (("huge", 10**13), ("tiny", 1))
                             + tuple((f"w0{i}", 1) for i in range(6))),
                  Dictionary("d1", (("w00", 1),)),
                  Dictionary("d2", (("w00", 1),)))),
          173, [("huge", 1)]))
@example(RESCALED_MERGE)
@example(ONE_DICTIONARY_MERGE)
def test_grown_arrays_equal_the_rebuilt_categories(attack):
    corpus, population, observations = attack
    n = len(corpus)
    grown = HistoryArrays(n, population)
    for j, (word, successes) in enumerate(observations, start=1):
        v = corpus.row(word)
        grown.append(None if v is None else corpus.vocab_probs[v], successes)
        history = GuessHistory(population, tuple(observations[:j]))
        built, merged = HistoryArrays.of(corpus, history)
        probs = corpus.probability_rows(history.words)
        counts = np.array([s for _, s in history.observations], dtype=float)
        want = reference_categories(probs, counts, population)
        for arrays in (grown, built):
            cats, weight, outside = arrays.categories()
            assert cats.shape == want[0].shape and np.array_equal(cats, want[0])
            assert weight.shape == want[1].shape and np.array_equal(weight, want[1])
            # Each pair row holds its row's products a_i a_j, i <= j, the
            # rest's too, each rounded once.
            pairs = [[row[i] * row[j] for i in range(n) for j in range(i, n)]
                     for row in cats.tolist()]
            assert arrays.pair_rows(len(weight)).tolist() == pairs
            assert outside == population - int(weight.sum())
            # The running totals are the sums over the history, in the same
            # rounding: numpy's sum(axis=0) adds the rows in turn too, but
            # sums a single column pairwise.
            totals = arrays.prob_totals
            assert totals.tobytes() == column_totals(probs).tobytes()
            if n >= 2:
                assert totals.tobytes() == probs.sum(axis=0).tobytes()
            assert arrays.successes == int(counts.sum())
            assert arrays.live_successes == int(weight[:arrays.live].sum())
        start = np.full(n, 1.0 / n)
        assert maximize(grown, start.copy()) == maximize(built, start.copy())
        # The arrays keep no constant: of sums the merged categories' terms
        # in one exactly rounded sum, as the reference does, and the public
        # value adds it to the floored users' ln(floor).
        assert outside * mixture._LOG_FLOOR + merged == want[2]


def appended(corpus, history):
    """The arrays built one ``append`` per guess: the reference for ``of``."""
    arrays = HistoryArrays(len(corpus), history.population)
    for word, successes in history.observations:
        v = corpus.row(word)
        arrays.append(None if v is None else corpus.vocab_probs[v], successes)
    return arrays


def assert_same_buffers(built, reference):
    assert vars(built).keys() == vars(reference).keys()
    for name, value in vars(reference).items():
        if isinstance(value, np.ndarray):
            got = getattr(built, name)
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
        else:
            assert getattr(built, name) == value, name


@settings(max_examples=200, deadline=None)
@given(growing_attacks())
# Successes above 2^53 round as floats: the total stays an exact int.
@example((Corpus((Dictionary("a", (("x", 3), ("y", 1))), Dictionary("b", (("x", 1), ("z", 3))))),
          2**53 + 1, [("x", 2**53 + 1)]))
@example(RESCALED_MERGE)
@example(ONE_DICTIONARY_MERGE)
def test_arrays_built_at_once_are_the_appended_arrays_byte_for_byte(attack):
    corpus, population, observations = attack
    for history in (GuessHistory(population), GuessHistory(population, tuple(observations))):
        assert_same_buffers(HistoryArrays.of(corpus, history)[0], appended(corpus, history))


@pytest.mark.parametrize("corpus, population, observations", [
    # Only d0 ranks x and y, only d1 z: y's lower probability rescales x's
    # count, a total above 2^53 that rounds as a float, as does each weight.
    (Corpus((Dictionary("d0", (("x", 3), ("y", 1), ("s", 1))),
             Dictionary("d1", (("s", 2), ("z", 1))))),
     2**60, [("x", 2**55 + 1), ("z", 2**54 + 3), ("y", 2**53 + 5), ("s", 7), ("x0", 1)]),
    # Every dictionary has a merged category, and its later words come
    # above and below the least before them.
    (Corpus((Dictionary("d0", (("a", 5), ("b", 3), ("c", 4), ("s", 1))),
             Dictionary("d1", (("d", 1), ("e", 2), ("f", 3), ("s", 2))),
             Dictionary("d2", (("g", 7), ("h", 1), ("s", 2))))),
     1000, [("b", 3), ("d", 4), ("g", 1), ("a", 2), ("s", 9), ("e", 6), ("h", 5), ("c", 8),
            ("f", 1)]),
])
def test_arrays_built_at_once_merge_as_append_does(corpus, population, observations):
    # of runs the merge rule over each dictionary's rows at once; append
    # runs it a guess at a time, with Python ints and math.log.
    history = GuessHistory(population, tuple(observations))
    built, _ = HistoryArrays.of(corpus, history)
    assert len(built._merged) == len(corpus)
    assert_same_buffers(built, appended(corpus, history))


def per_word(corpus, q, history):
    """The floored log-likelihood and its gradient with one category per
    guessed word, and whether a floor binds at ``q`` on a word that some
    dictionary gives more than the floor, or on the rest."""
    probs = corpus.probability_rows(history.words)
    counts = np.array([s for _, s in history.observations], dtype=float)
    observed, left = probs @ q, 1.0 - column_totals(probs)
    rest, rest_observed = history.population - counts.sum(), left @ q
    live = (counts > 0) & (probs.max(axis=1, initial=0.0) > PROBABILITY_FLOOR)
    binds = bool(np.any(observed[live] <= PROBABILITY_FLOOR)) or (
        rest > 0 and left.max() > PROBABILITY_FLOOR and rest_observed <= PROBABILITY_FLOOR)
    value = (counts @ np.log(np.maximum(observed, PROBABILITY_FLOOR))
             + rest * np.log(max(rest_observed, PROBABILITY_FLOOR)))
    above = observed > PROBABILITY_FLOOR
    grad = probs.T @ np.where(above, counts / np.where(above, observed, 1.0), 0.0)
    if rest > 0 and rest_observed > PROBABILITY_FLOOR:
        grad = grad + rest / rest_observed * left
    return value, grad, binds


def assert_merged_is_per_word(corpus, q, history):
    value, grad, binds = per_word(corpus, q, history)
    if binds:
        return False
    assert log_likelihood(corpus, q, history) == pytest.approx(value, rel=1e-12, abs=0)
    np.testing.assert_allclose(gradient(corpus, q, history), grad, rtol=1e-12, atol=0)
    return True


@settings(max_examples=200, deadline=None)
@given(growing_attacks(), st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
@example(RESCALED_MERGE, [0.2, 0.7, 1.0])
@example(ONE_DICTIONARY_MERGE, [0.3, 1.0, 1.0])
# The merged category's p_min is 10^10 below huge's p. Valued as W ln(p_min)
# plus sum N ln(p / p_min), two terms near 2e5 that cancel to -23.6, the
# value was 2.4e-11 from the exact one; the per-word value is 2.7e-13 from it.
@example((Corpus((Dictionary("d0", (("huge", 10**13), ("w00", 554), ("tiny", 1), ("w01", 1),
                                   ("w02", 1), ("w03", 1))),)),
          8562, [("w00", 1), ("tiny", 0), ("huge", 8561)]), [1.0, 1.0, 1.0])
def test_the_merged_objective_is_the_per_word_objective_where_no_floor_binds(attack, raw):
    corpus, population, observations = attack
    q = np.array(raw[:len(corpus)]) / sum(raw[:len(corpus)])
    history = GuessHistory(population, tuple(observations))
    assume(assert_merged_is_per_word(corpus, q, history))


def test_the_merged_objective_is_the_per_word_objective_on_the_first_sweep_histories():
    from certification_sweep import instance

    rng, compared = np.random.default_rng(0), 0
    for _ in range(300):
        corpus, history, start = instance(rng)
        compared += assert_merged_is_per_word(corpus, start / start.sum(), history)
    assert compared == 300


@settings(max_examples=200, deadline=None)
@given(growing_attacks(sizes=st.just(1)))
def test_one_dictionary_estimate_is_the_vertex_with_the_public_value(attack):
    corpus, population, observations = attack
    history = GuessHistory(population, tuple(observations))
    # The one point of the simplex is the start, and the descent's value
    # there is log_likelihood's: both read the same categories.
    public = log_likelihood(corpus, (1.0,), history)
    weights, loglik, steps = estimate(corpus, history, MixtureWeights((1.0,)))
    assert weights.q == (1.0,) and steps == 0
    assert loglik == public


def test_a_rest_that_cancels_has_one_value():
    # Little of the dictionary is left unguessed, so 1 less the guessed
    # words' probabilities cancels (the exact log-likelihood is
    # ln(12 / (10**13 + 19)) = -27.4486996); the public value and the
    # descent's are computed from the same sum and agree to the bit.
    c = Corpus((Dictionary("d", (("huge", 10**13),) + tuple((f"w{i}", 1) for i in range(19))),))
    h = GuessHistory(1, (("huge", 0),) + tuple((f"w{i}", 0) for i in range(7)))
    public = log_likelihood(c, (1.0,), h)
    _, loglik, steps = estimate(c, h, MixtureWeights((1.0,)))
    assert steps == 0
    assert public == loglik == -27.448851218373935


@st.composite
def category_instances(draw):
    """A small corpus, a history and a point inside the simplex. Dictionary
    d0 ranks only "huge" and "tiny" (probability 1e-13, below the floor),
    and d1's words are all guessed; the guesses also take in an unranked
    word and zero-success guesses."""
    words = [f"w{i}" for i in range(8)]
    small = draw(st.lists(st.sampled_from(words), min_size=1, max_size=2, unique=True))
    dictionaries = [Dictionary("d0", (("huge", 10**13), ("tiny", 1))),
                    Dictionary("d1", tuple((w, draw(st.integers(1, 50))) for w in small))]
    for i in range(2, draw(st.integers(2, 4))):
        ranked = draw(st.lists(st.sampled_from(words), min_size=1, unique=True))
        dictionaries.append(Dictionary(f"d{i}", tuple(
            (w, draw(st.integers(1, 50))) for w in ranked)))
    extra = draw(st.lists(st.sampled_from([w for w in words if w not in small]
                                          + ["tiny", "unranked"]), unique=True))
    guesses = draw(st.permutations(small + extra))
    population = draw(st.integers(100, 10**6))
    observations, left = [], population
    for word in guesses:
        successes = draw(st.integers(0, min(left, 50)))
        observations.append((word, successes))
        left -= successes
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(dictionaries),
                        max_size=len(dictionaries)))
    point = np.array(raw) / sum(raw)
    return Corpus(tuple(dictionaries)), GuessHistory(population, tuple(observations)), point


@settings(max_examples=300, deadline=None)
@given(category_instances())
@example((Corpus((Dictionary("d0", (("huge", 10**13), ("tiny", 1))),
                  Dictionary("d1", (("w0", 1),)))),
          GuessHistory(9855, (("w0", 0),)), np.array([3 / 7, 4 / 7])))
def test_category_gap_is_the_public_gap(instance):
    corpus, history, q = instance
    cats, weight, _ = HistoryArrays.of(corpus, history)[0].categories()
    observed = cats @ q
    assume(observed.min(initial=1.0) > PROBABILITY_FLOOR)  # where a descent can be
    g = cats.T @ (weight / observed)
    public = gradient(corpus, q, history)
    assert g.max() - g @ q == public.max() - public @ q
    weights, loglik, _ = estimate(corpus, history, MixtureWeights(q))
    # The returned value is the start's plus the gains, so its rounding error
    # grows with the start's value: in the example, it is -8,350 nats and the
    # maximum is 0.
    slack = 1e-9 * abs(log_likelihood(corpus, q, history))
    assert loglik == pytest.approx(log_likelihood(corpus, weights, history), rel=1e-9, abs=slack)


def test_warm_started_steps_keep_the_unit_step(monkeypatch):
    # A 1,000-guess best-init by-q attack on the acceptance instance: at least
    # 95% of its warm-started steps are trusted unit steps, taken unvalued
    # (gain None), and the attack's estimates are, bit for bit, those of the
    # same attack with every step valued and tested.
    corpus = overlap_corpus(3, 1000, 400, exponent=0.4, seed=1000)
    ps = compose_password_set(corpus, MixtureWeights((0.6, 0.3, 0.1)), 10_000, seed=42)
    step, unit = mixture._step, []

    def recorded(*args):
        moved = step(*args)
        unit.append(moved is not None and moved[2] is None)
        return moved

    monkeypatch.setattr(mixture, "_step", recorded)
    trusted = run_attack(corpus, ps, InitPolicy.BEST, GuessPolicy.BY_Q, 1000, seed=0)
    assert len(unit) > 1000 and sum(unit) >= 0.95 * len(unit)
    monkeypatch.setattr(mixture, "_step", lambda *args: step(*args[:8]))
    valued = run_attack(corpus, ps, InitPolicy.BEST, GuessPolicy.BY_Q, 1000, seed=0)
    assert trusted.words == valued.words
    assert trusted.estimates.tobytes() == valued.estimates.tobytes()


@st.composite
def near_duplicate_instances(draw):
    """A small corpus in which each dictionary after the first is, half the
    time, an earlier one plus one to three words of count 1 (d1 always is),
    a history over a prefix of the vocabulary in a random order with
    successes of any size, and a start inside the simplex."""
    words = [f"w{i}" for i in range(draw(st.integers(2, 12)))]
    dictionaries = []
    for i in range(draw(st.integers(2, 5))):
        if i == 1 or (i and draw(st.booleans())):
            source = dictionaries[draw(st.integers(0, i - 1))]
            base = tuple(zip(source.words, source.counts))
            rare = tuple((f"r{i}_{k}", 1) for k in range(draw(st.integers(1, 3))))
            dictionaries.append(Dictionary(f"d{i}", base + rare))
            continue
        ranked = draw(st.lists(st.sampled_from(words), min_size=1, unique=True))
        counts = draw(st.lists(st.integers(1, 10**5), min_size=len(ranked), max_size=len(ranked)))
        rest = (f"rest{i}", draw(st.integers(1, 10**6)))
        dictionaries.append(Dictionary(f"d{i}", tuple(zip(ranked, counts)) + (rest,)))
    corpus = Corpus(tuple(dictionaries))
    order = draw(st.permutations(corpus.union_vocabulary))
    population = draw(st.integers(10**3, 10**6))
    observations, left = [], population
    for word in order[:draw(st.integers(1, len(order)))]:
        successes = draw(st.integers(0, left))
        observations.append((word, successes))
        left -= successes
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(corpus), max_size=len(corpus)))
    start = MixtureWeights(np.array(raw) / sum(raw))
    return corpus, GuessHistory(population, tuple(observations)), start


@settings(max_examples=300, deadline=None)
@given(near_duplicate_instances())
def test_near_duplicate_descents_certify_with_the_solvers_gap(instance):
    corpus, history, start = instance
    weights, _, steps = estimate(corpus, history, start)
    assert steps < DescentConfig().max_steps
    q = np.asarray(weights)
    public = gradient(corpus, weights, history)
    gap = public.max() - public @ q
    assert gap <= GAP_TOL * history.population
    # The gap the descent stopped on, from its own categories at its estimate.
    cats, weight, _ = HistoryArrays.of(corpus, history)[0].categories()
    observed = cats @ q
    assert observed.min(initial=1.0) > PROBABILITY_FLOOR
    g = cats.T @ (weight / observed)
    assert g.max() - g @ q == gap


def assert_trusted_steps_gain(corpus: Corpus, history: GuessHistory, start) -> int:
    """Check that maximize without on_step, which takes the unit Newton step
    unvalued where its slope is at most UNIT_STEP_SLOPE, returns estimate's
    weights and steps bit for bit, and that each step it so trusted, valued
    here, is a unit step that gains at least ARMIJO times its slope; return
    how many steps it trusted."""
    weights, _, steps = estimate(corpus, history, start)
    step, trusted = mixture._step, []

    def valued(w, direction, q, d, slope, cats, weight, observed, trust=False):
        moved = step(w, direction, q, d, slope, cats, weight, observed, trust)
        if moved is not None and moved[2] is None:
            assert trust and 0 < slope <= mixture.UNIT_STEP_SLOPE
            point = moved[0]
            # At a ratio-test limit of exactly 1 the coordinates it hits are 0.
            assert bits(point) == bits(np.where(point == 0.0, point, w + direction))
            gain = float(weight.dot(np.log1p(cats.dot(direction) / observed)))
            assert gain >= mixture.ARMIJO * slope
            trusted.append(gain)
        return moved

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mixture, "_step", valued)
        attack, attack_steps = maximize(HistoryArrays.of(corpus, history)[0], np.asarray(start))
    assert attack_steps == steps and bits(attack.q) == bits(weights.q)
    return len(trusted)


@settings(max_examples=300, deadline=None)
@given(near_duplicate_instances())
def test_trusted_unit_steps_gain_and_keep_estimates_steps(instance):
    assert_trusted_steps_gain(*instance)


def test_trusted_unit_steps_gain_on_the_first_sweep_histories():
    from certification_sweep import instance

    rng, trusted = np.random.default_rng(0), 0
    for _ in range(300):
        corpus, history, start = instance(rng)
        trusted += assert_trusted_steps_gain(corpus, history, MixtureWeights(start / start.sum()))
    assert trusted > 300


@pytest.mark.parametrize("n, live", [(3, 0), (1, 5), (3, 15), (3, 16), (4, 32)])
def test_maximize_forms_a_symmetric_hessian_from_the_pair_rows(monkeypatch, n, live):
    # maximize forms minus the Hessian as one product of s = weight /
    # observed^2 with the categories' pair rows. Every Hessian it hands to
    # _newton_direction must be exactly symmetric and, at the point of that
    # step, within 1e-13 of its largest entry of the product formed from the
    # rows, (cats.T * s).dot(cats). Shapes: only the rest category (k = 1),
    # one dictionary, whose live rows all merge into one (k = 2), and k =
    # 16, 17 and 33, about the sizes where the buffers double.
    rng = np.random.default_rng(live)
    arrays = HistoryArrays(n, 10 ** 6)
    for _ in range(live):
        arrays.append(rng.random(n) / (4 * live), int(rng.integers(1, 100)))
    arrays.append(rng.random(n) / 4, 0)  # no category, but an uneven rest
    cats, weight, _ = arrays.categories()
    assert cats.shape == ((live if n > 1 else 1) + 1, n)
    start = rng.dirichlet(np.ones(n))
    current, checked = [cats.dot(start)], []
    newton, step = mixture._newton_direction, mixture._step

    def stepped(*args):
        moved = step(*args)
        if moved is not None:
            current[0] = moved[1]
        return moved

    def checked_direction(c, g, q, lam):
        observed = current[0]
        want = (cats.T * (weight / observed / observed)).dot(cats)
        got = np.array(c)
        assert got.shape == (n, n) and np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        checked.append(len(c))
        return newton(c, g, q, lam)

    monkeypatch.setattr(mixture, "_step", stepped)
    monkeypatch.setattr(mixture, "_newton_direction", checked_direction)
    maximize(arrays, start)
    # One dictionary: the start is the only point, so the descent stops there.
    assert (checked == []) if n == 1 else (checked and set(checked) == {n})
