"""Word-frequency dictionaries: loading, validation, ranks and probabilities.

A dictionary is a named, rank-ordered word-frequency distribution. Rank 1 is
the most frequent word; ties in frequency break by ascending lexicographic
order of the word so that every load of the same data yields the same ranks.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import (
    DuplicateWord,
    EmptyDictionary,
    EmptyInput,
    MalformedLine,
    NonPositiveCount,
)

# Words are byte-exact: no case folding, no Unicode normalization. Tabs and
# newlines are excluded because they delimit the file format.
_FORBIDDEN_CHARS = ("\t", "\n", "\r")


def _check_word(word: str) -> None:
    if not word:
        raise ValueError("empty word")
    for ch in _FORBIDDEN_CHARS:
        if ch in word:
            raise ValueError(f"word contains forbidden character {ch!r}: {word!r}")


@dataclass(frozen=True)
class Dictionary:
    """A named word-frequency distribution with 1-based popularity ranks.

    ``entries`` is normalized on construction: sorted by count descending,
    ties by ascending word order. Duplicate words are rejected.
    """

    name: str
    entries: tuple[tuple[str, int], ...]
    total_count: int = field(init=False, compare=False, repr=False)
    rank_index: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        entries = tuple(sorted(self.entries, key=lambda e: (-e[1], e[0])))
        if not entries:
            raise EmptyDictionary("dictionary has no entries")
        rank_index: dict[str, int] = {}
        total = 0
        for word, count in entries:
            _check_word(word)
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"count for {word!r} is not an integer: {count!r}")
            if count <= 0:
                raise NonPositiveCount(f"count for {word!r} must be positive, got {count}")
            if word in rank_index:
                raise DuplicateWord(f"duplicate word {word!r}")
            rank_index[word] = len(rank_index) + 1
            total += count
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total_count", total)
        object.__setattr__(self, "rank_index", rank_index)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.rank_index

    def probability_of(self, word: str) -> float:
        """Empirical probability of ``word``: count/total_count, 0 if absent."""
        rank = self.rank_index.get(word)
        if rank is None:
            return 0.0
        return self.entries[rank - 1][1] / self.total_count


def from_password_multiset(name: str, passwords: Iterable[str]) -> Dictionary:
    """Build a dictionary from raw passwords; counts are multiset multiplicities."""
    counts = Counter(passwords)
    if not counts:
        raise EmptyInput("no passwords given")
    return Dictionary(name, tuple(counts.items()))


def load_frequency_list(name: str, source: Iterable[str]) -> Dictionary:
    """Parse a `word<TAB>count` line stream into a validated Dictionary.

    ``source`` is any iterable of text lines (an open file works). Blank
    lines are ignored. Entries are re-sorted per the rank order regardless
    of input order. Lines may end in LF or CRLF. A count is ASCII digits
    with at most one leading ``-`` (no ``+``, spaces, underscores or
    non-ASCII digits). Raises MalformedLine,
    NonPositiveCount, DuplicateWord or EmptyDictionary; each carries the
    offending 1-based line number.
    """
    entries: list[tuple[str, int]] = []
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise MalformedLine("expected `word<TAB>count`", line=line_no)
        word, count_text = parts
        try:
            if not (count_text.isascii() and count_text.removeprefix("-").isdigit()):
                raise ValueError
            count = int(count_text)  # also raises past Python's integer-string digit limit
        except ValueError:
            raise MalformedLine(f"count is not an integer: {count_text!r}", line=line_no) from None
        if count <= 0:
            raise NonPositiveCount(f"count must be positive, got {count}", line=line_no)
        if not word or any(ch in word for ch in _FORBIDDEN_CHARS):
            raise MalformedLine(f"invalid word {word!r}", line=line_no)
        if word in seen:
            raise DuplicateWord(f"word {word!r} already seen at line {seen[word]}", line=line_no)
        seen[word] = line_no
        entries.append((word, count))
    if not entries:
        raise EmptyDictionary("stream contains no entries")
    return Dictionary(name, tuple(entries))


def serialize_frequency_list(d: Dictionary) -> str:
    """Render a dictionary in the file format, entries in rank order."""
    return "".join(f"{word}\t{count}\n" for word, count in d.entries)


def load_frequency_file(name: str, path: str | Path) -> Dictionary:
    with open(path, encoding="utf-8", newline="") as handle:
        return load_frequency_list(name, handle)


def save_frequency_file(d: Dictionary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(serialize_frequency_list(d))


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of dictionaries sharing one union vocabulary."""

    dictionaries: tuple[Dictionary, ...]

    def __post_init__(self):
        object.__setattr__(self, "dictionaries", tuple(self.dictionaries))
        if not self.dictionaries:
            raise EmptyInput("corpus needs at least one dictionary")
        names = [d.name for d in self.dictionaries]
        if len(set(names)) != len(names):
            raise ValueError(f"dictionary names are not unique: {names}")

    def __len__(self) -> int:
        return len(self.dictionaries)

    @cached_property
    def union_vocabulary(self) -> tuple[str, ...]:
        """Every word appearing in any dictionary, deduplicated, sorted."""
        vocab: set[str] = set()
        for d in self.dictionaries:
            vocab.update(d.rank_index)
        return tuple(sorted(vocab))

    @cached_property
    def vocab_index(self) -> dict[str, int]:
        """Row of each ``union_vocabulary`` word in ``vocab_probs``."""
        return {word: i for i, word in enumerate(self.union_vocabulary)}

    @cached_property
    def vocab_probs(self) -> np.ndarray:
        """Row v, column i: dictionary i's probability of vocabulary word v."""
        matrix = np.zeros((len(self.union_vocabulary), len(self.dictionaries)))
        for i, d in enumerate(self.dictionaries):
            for word, count in d.entries:
                matrix[self.vocab_index[word], i] = count / d.total_count
        return matrix

    def probability_rows(self, words: Iterable[str]) -> np.ndarray:
        """Matrix of per-dictionary probabilities, one row per word (zeros if unranked)."""
        words = list(words)
        rows = np.zeros((len(words), len(self.dictionaries)))
        for j, word in enumerate(words):
            v = self.vocab_index.get(word)
            if v is not None:
                rows[j] = self.vocab_probs[v]
        return rows
