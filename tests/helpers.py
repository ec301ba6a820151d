"""Shared builders and independent oracles for the test suite.

Oracles here deliberately avoid the code paths they check: grid searches,
single-pass tallies and finite differences only.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

from pwbandit import (
    AttackTrace,
    Corpus,
    Dictionary,
    GuessHistory,
    MixtureWeights,
    PasswordSet,
    log_likelihood,
    optimal_baseline,
)


@functools.cache
def blas_core() -> str | None:
    """The kernel set that the OpenBLAS bundled with numpy's wheel chose for
    this CPU (``OPENBLAS_CORETYPE`` overrides the choice), such as
    ``SkylakeX``; None where numpy bundles no OpenBLAS that reports one.
    The bytes of the products that ``ndarray.dot`` hands to it depend on
    that choice."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        corename = getattr(ctypes.CDLL(path), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            return corename().decode("ascii")
    return None


def zipf_dictionary(name: str, words: list[str], exponent: float = 1.0,
                    scale: int = 1_000_000) -> Dictionary:
    """Dictionary whose r-th word has count ~ scale / r**exponent."""
    entries = tuple(
        (word, max(1, round(scale / (rank ** exponent))))
        for rank, word in enumerate(words, start=1)
    )
    return Dictionary(name, entries)


def overlap_corpus(n_dicts: int = 3, n_words: int = 1000, n_shared: int = 400,
                   exponent: float = 1.0, seed: int = 1000) -> Corpus:
    """Zipf-like dictionaries with a shared vocabulary block.

    Each dictionary ranks its own private words plus the shared block in an
    independent random order, so the same shared word can be popular in one
    dictionary and rare in another.
    """
    shared = [f"s{j:04d}" for j in range(n_shared)]
    dictionaries = []
    for i in range(n_dicts):
        private = [f"d{i}w{j:04d}" for j in range(n_words - n_shared)]
        vocab = shared + private
        rng = np.random.default_rng(seed + i)
        rng.shuffle(vocab)
        dictionaries.append(zipf_dictionary(f"dict{i}", vocab, exponent))
    return Corpus(tuple(dictionaries))


def disjoint_corpus(n_dicts: int = 4, n_words: int = 200,
                    exponent: float = 1.0) -> Corpus:
    """Zipf-like dictionaries with pairwise disjoint vocabularies."""
    dictionaries = []
    for i in range(n_dicts):
        words = [f"d{i}w{j:04d}" for j in range(n_words)]
        dictionaries.append(zipf_dictionary(f"dict{i}", words, exponent))
    return Corpus(tuple(dictionaries))


def random_corpus(rng: np.random.Generator, n_dicts: int,
                  vocab_size: int = 8) -> Corpus:
    """Small corpus with random counts; every dictionary covers most of the
    vocabulary so mixture probabilities stay well away from zero."""
    vocab = [f"w{j}" for j in range(vocab_size)]
    dictionaries = []
    for i in range(n_dicts):
        size = rng.integers(vocab_size - 2, vocab_size + 1)
        words = list(rng.choice(vocab, size=size, replace=False))
        counts = rng.integers(1, 50, size=len(words))
        dictionaries.append(
            Dictionary(f"dict{i}", tuple(zip(words, (int(c) for c in counts))))
        )
    return Corpus(tuple(dictionaries))


def random_history(rng: np.random.Generator, corpus: Corpus, population: int = 100,
                   max_words: int = 4) -> GuessHistory:
    """History over words drawn from the union vocabulary, with success
    counts small enough to keep the censored remainder large."""
    vocab = corpus.union_vocabulary
    n_words = int(rng.integers(1, min(max_words, len(vocab)) + 1))
    words = rng.choice(len(vocab), size=n_words, replace=False)
    budget = population // 2
    return GuessHistory(population, tuple(
        (vocab[int(v)], int(rng.integers(0, budget // n_words + 1))) for v in words))


def random_interior_point(rng: np.random.Generator, n: int,
                          floor: float = 0.05) -> MixtureWeights:
    """Simplex point with every component at least ``floor``."""
    draws = rng.standard_exponential(n)
    q = draws / draws.sum()
    q = (1.0 - n * floor) * q + floor
    return MixtureWeights(q)


def simplex_grid(n: int, pitch: float) -> np.ndarray:
    """All points of the n-simplex whose coordinates are multiples of pitch."""
    steps = round(1.0 / pitch)
    if n == 1:
        return np.array([[1.0]])
    if n == 2:
        i = np.arange(steps + 1)
        return np.column_stack([i, steps - i]) / steps
    if n == 3:
        points = [
            (i, j, steps - i - j)
            for i in range(steps + 1)
            for j in range(steps + 1 - i)
        ]
        return np.asarray(points, dtype=float) / steps
    raise NotImplementedError(f"no grid for n={n}")


def grid_loglik_max(corpus: Corpus, history: GuessHistory,
                    pitch: float = 0.01) -> tuple[float, np.ndarray]:
    """Brute-force maximum of the log-likelihood over the simplex grid."""
    grid = simplex_grid(len(corpus), pitch)
    values = np.array([log_likelihood(corpus, point, history) for point in grid])
    best = int(np.argmax(values))
    return float(values[best]), grid[best]


def central_difference_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x)
    for i in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[i] += step
        backward[i] -= step
        grad[i] = (f(forward) - f(backward)) / (2 * step)
    return grad


def assert_trace_dominated(trace: AttackTrace, ps: PasswordSet) -> None:
    """Every strategy is bounded by guessing the set's own words in order."""
    curve = trace.cumulative_curve
    baseline = optimal_baseline(ps, max(len(curve), 1))
    for j, value in enumerate(curve):
        assert value <= baseline[j], (
            f"guess {j + 1}: cumulative {value} exceeds optimal {baseline[j]}"
        )
