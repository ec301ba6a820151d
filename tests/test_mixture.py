import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pwbandit import (
    Corpus,
    DescentConfig,
    Dictionary,
    GuessHistory,
    MixtureWeights,
    estimate,
    gradient,
    log_likelihood,
    mixture_probability,
    project_to_simplex,
)
from pwbandit.errors import DimensionMismatch, EmptyInput

from helpers import (
    central_difference_gradient,
    grid_loglik_max,
    random_corpus,
    random_history,
    random_interior_point,
    simplex_grid,
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


def test_guess_history_validation():
    with pytest.raises(ValueError):
        GuessHistory(10, (("a", 5), ("a", 2)))  # repeated word
    with pytest.raises(ValueError):
        GuessHistory(10, (("a", 7), ("b", 4)))  # exceeds population
    with pytest.raises(ValueError):
        GuessHistory(10, (("a", -1),))
    h = GuessHistory(10, (("a", 5),)).extended("b", 3)
    assert h.words == ("a", "b")
    assert h.total_successes == 8
    assert h == GuessHistory(10, (("a", 5), ("b", 3)))
    with pytest.raises(ValueError):
        h.extended("a", 1)  # repeated word
    with pytest.raises(ValueError):
        h.extended("c", -1)
    with pytest.raises(ValueError):
        h.extended("c", 3)  # 11 of 10 users
    assert h.extended("c", 2).total_successes == 10
    assert h.observations == (("a", 5), ("b", 3))  # extending leaves h as it was


def test_descent_config_validation():
    with pytest.raises(ValueError):
        DescentConfig(max_steps=0)


def test_mixture_probability_single_dictionary():
    c = Corpus((Dictionary("d1", (("a", 8), ("b", 2))),))
    assert mixture_probability(c, MixtureWeights((1.0,)), "a") == pytest.approx(0.8)


def test_mixture_probability_symmetric(two_dicts):
    w = MixtureWeights((0.5, 0.5))
    assert mixture_probability(two_dicts, w, "a") == pytest.approx(0.5)


def test_mixture_probability_absent_word_contributes_zero():
    c = Corpus((
        Dictionary("d1", (("a", 8), ("b", 2))),
        Dictionary("d2", (("c", 1),)),
    ))
    # 0.25 * 0 + 0.75 * 1, evaluated by hand
    assert mixture_probability(c, MixtureWeights((0.25, 0.75)), "c") == pytest.approx(0.75)


def test_mixture_probability_dimension_mismatch(two_dicts):
    with pytest.raises(DimensionMismatch):
        mixture_probability(two_dicts, [1.0], "a")


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
    fed = log_likelihood(c, MixtureWeights((0.5, 0.5)), h)
    assert starved < fed


def test_gradient_empty_history_is_zero(two_dicts):
    h = GuessHistory(10)
    assert np.array_equal(gradient(two_dicts, MixtureWeights((0.4, 0.6)), h), np.zeros(2))


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


def test_project_symmetric_shift():
    assert project_to_simplex([0.2, 0.2]).q == pytest.approx((0.5, 0.5))


def test_project_clips_to_vertex():
    # Frozen from the grid oracle: nearest simplex point to (1.5, -0.3)
    assert project_to_simplex([1.5, -0.3]).q == pytest.approx((1.0, 0.0))


def test_project_empty():
    with pytest.raises(EmptyInput):
        project_to_simplex([])


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=6))
def test_project_lands_on_simplex_and_is_idempotent(values):
    projected = project_to_simplex(values)
    assert sum(projected) == pytest.approx(1.0, abs=1e-9)
    assert min(projected) >= 0.0
    again = project_to_simplex(list(projected))
    assert np.allclose(list(again), list(projected), atol=1e-12)


@pytest.mark.parametrize("n", [2, 3])
def test_project_beats_grid_search(n):
    # No grid point may be meaningfully closer to the input than the projection.
    rng = np.random.default_rng(n)
    grid = simplex_grid(n, 1e-3)
    for _ in range(25):
        v = rng.uniform(-2, 2, size=n)
        projected = np.asarray(project_to_simplex(v))
        grid_best = np.min(np.linalg.norm(grid - v, axis=1))
        assert grid_best >= np.linalg.norm(projected - v) - 1e-3


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
def test_estimate_stops_at_max_steps(k):
    c = Corpus((
        Dictionary("d1", (("alpha", 8), ("beta", 2))),
        Dictionary("d2", (("beta", 9), ("gamma", 1))),
    ))
    h = GuessHistory(200, (("beta", 95), ("alpha", 96)))
    uncapped = []
    estimate(c, h, MixtureWeights.uniform(2), on_step=lambda i, w, ll: uncapped.append(i))
    assert len(uncapped) > k + 1  # the cap below binds
    capped = []
    _, _, steps = estimate(c, h, MixtureWeights.uniform(2), DescentConfig(max_steps=k),
                           on_step=lambda i, w, ll: capped.append(i))
    assert capped == list(range(k + 1))
    assert steps == k


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
