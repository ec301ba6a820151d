"""Word-frequency dictionaries and the corpus that indexes their words.

A dictionary is a named word-frequency distribution kept in rank order: a
word's rank is its position in ``Dictionary.entries``, most frequent first,
ties in frequency broken by ascending lexicographic order of the word so
that every load of the same data yields the same ranks. Per-word
probabilities live in ``Corpus``, the one index from words to rows.
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
    """A named word-frequency distribution in popularity order.

    ``entries`` is normalized on construction: sorted by count descending,
    ties by ascending word order, so a word's rank is its position in
    ``entries`` (0-based). Duplicate words are rejected. Per-word
    probabilities live in :class:`Corpus`.
    """

    name: str
    entries: tuple[tuple[str, int], ...]
    total_count: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        entries = tuple(sorted(self.entries, key=lambda e: (-e[1], e[0])))
        if not entries:
            raise EmptyDictionary("dictionary has no entries")
        seen: set[str] = set()
        total = 0
        for word, count in entries:
            _check_word(word)
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"count for {word!r} is not an integer: {count!r}")
            if count <= 0:
                raise NonPositiveCount(f"count for {word!r} must be positive, got {count}")
            if word in seen:
                raise DuplicateWord(f"duplicate word {word!r}")
            seen.add(word)
            total += count
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "total_count", total)

    def __len__(self) -> int:
        return len(self.entries)


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
    with open(path, encoding="utf-8-sig", newline="") as handle:
        return load_frequency_list(name, handle)


def save_frequency_file(d: Dictionary, path: str | Path) -> None:
    text = serialize_frequency_list(d)
    # Loaders drop a leading U+FEFF as a byte-order mark, so a first word that
    # begins with one is written after a real byte-order mark.
    encoding = "utf-8-sig" if text.startswith("\ufeff") else "utf-8"
    with open(path, "w", encoding=encoding, newline="") as handle:
        handle.write(text)


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
        return tuple(sorted({word for d in self.dictionaries for word, _ in d.entries}))

    @cached_property
    def vocab_index(self) -> dict[str, int]:
        """Row of each ``union_vocabulary`` word in ``vocab_probs``."""
        return {word: i for i, word in enumerate(self.union_vocabulary)}

    @cached_property
    def vocab_probs(self) -> np.ndarray:
        """Row v, column i: dictionary i's probability of vocabulary word v."""
        matrix = np.zeros((len(self.union_vocabulary), len(self.dictionaries)))
        for i, (d, rows) in enumerate(zip(self.dictionaries, self.ranked_rows)):
            matrix[rows, i] = [count / d.total_count for _, count in d.entries]
        return matrix

    @cached_property
    def ranked_rows(self) -> tuple[np.ndarray, ...]:
        """Array i: the ``vocab_probs`` row of each word of dictionary i, in rank order."""
        index = self.vocab_index
        return tuple(np.array([index[word] for word, _ in d.entries], dtype=np.intp)
                     for d in self.dictionaries)

    def probability_rows(self, words: Iterable[str]) -> np.ndarray:
        """Matrix of per-dictionary probabilities, one row per word (zeros if unranked)."""
        words = list(words)
        rows = np.zeros((len(words), len(self.dictionaries)))
        for j, word in enumerate(words):
            v = self.vocab_index.get(word)
            if v is not None:
                rows[j] = self.vocab_probs[v]
        return rows
