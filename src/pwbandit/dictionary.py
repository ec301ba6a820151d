"""Word-frequency dictionaries and the corpus that indexes their words.

A dictionary is a named word-frequency distribution kept in rank order: a
word's rank is its position in ``Dictionary.words``, most frequent first,
ties in frequency broken by ascending lexicographic order of the word so
that every load of the same data yields the same ranks. Per-word
probabilities live in ``Corpus``, whose sorted union vocabulary numbers
their rows: a word's row is found by bisecting it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateWord,
    EmptyDictionary,
    EmptyInput,
    FrequencyListError,
    MalformedLine,
    NonPositiveCount,
)

# Words are byte-exact: no case folding, no Unicode normalization. Tabs and
# newlines are excluded because they delimit the file format.
_FORBIDDEN_CHARS = ("\t", "\n", "\r")


def _fill(d: Dictionary, name: str, words: Sequence[str], counts: Sequence[int]) -> Dictionary:
    """Set the fields of ``d``: its name, its two columns in rank order
    (count descending, ties by ascending word: two stable sorts of the
    positions) and their total count."""
    order = sorted(range(len(words)), key=words.__getitem__)
    order.sort(key=counts.__getitem__, reverse=True)
    d.__dict__.update(name=name, words=tuple(map(words.__getitem__, order)),
                      counts=tuple(map(counts.__getitem__, order)), total_count=sum(counts))
    return d


@dataclass(frozen=True, init=False)
class Dictionary:
    """A named word-frequency distribution in popularity order.

    ``Dictionary(name, entries)`` takes ``(word, count)`` pairs in any order
    and keeps them as two columns in rank order, ``words`` and ``counts``:
    sorted by count descending, ties by ascending word order, so a word's
    rank is its position in ``words`` (0-based). Duplicate words are
    rejected. Per-word probabilities live in :class:`Corpus`.
    """

    name: str
    words: tuple[str, ...]
    counts: tuple[int, ...]
    total_count: int = field(compare=False, repr=False)

    def __init__(self, name: str, entries: Iterable[tuple[str, int]]):
        pairs = tuple(entries)
        if not pairs:
            raise EmptyDictionary("dictionary has no entries")
        # Each entry is checked before the sort, which could not compare a
        # word that is not a str or a count that is not an int.
        seen: set[str] = set()
        for word, count in pairs:
            if not isinstance(word, str) or not word or any(ch in word for ch in _FORBIDDEN_CHARS):
                raise ValueError(f"invalid word {word!r}")
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(f"count for {word!r} is not an integer: {count!r}")
            if count <= 0:
                raise NonPositiveCount(f"count for {word!r} must be positive, got {count}")
            if word in seen:
                raise DuplicateWord(f"duplicate word {word!r}")
            seen.add(word)
        _fill(self, name, [word for word, _ in pairs], [count for _, count in pairs])

    def __len__(self) -> int:
        return len(self.words)


def from_password_multiset(name: str, passwords: Iterable[str]) -> Dictionary:
    """Build a dictionary from raw passwords; counts are multiset multiplicities."""
    counts = Counter(passwords)
    if not counts:
        raise EmptyInput("no passwords given")
    return Dictionary(name, tuple(counts.items()))


def load_frequency_list(name: str, source: Iterable[str]) -> Dictionary:
    """Parse a `word<TAB>count` line stream into a validated Dictionary.

    ``source`` is any iterable of text lines (an open file works). Blank
    lines are ignored and entries are put in rank order. Lines may end in
    LF or CRLF. A count is ASCII digits with at most one leading ``-`` (no
    ``+``, spaces, underscores or non-ASCII digits). Raises MalformedLine,
    NonPositiveCount, DuplicateWord or EmptyDictionary; each carries the
    offending 1-based line number.
    """
    words: list[str] = []
    counts: list[int] = []
    seen: dict[str, int] = {}
    for line_no, raw in enumerate(source, start=1):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        word, tab, count_text = line.partition("\t")
        if not tab or "\t" in count_text:
            raise MalformedLine("expected `word<TAB>count`", line=line_no)
        try:
            if not (count_text.isascii() and count_text.removeprefix("-").isdigit()):
                raise ValueError
            count = int(count_text)  # also raises past Python's integer-string digit limit
        except ValueError:
            raise MalformedLine(f"count is not an integer: {count_text!r}", line=line_no) from None
        if count <= 0:
            raise NonPositiveCount(f"count must be positive, got {count}", line=line_no)
        if not word or "\n" in word or "\r" in word:  # the split left no tab in it
            raise MalformedLine(f"invalid word {word!r}", line=line_no)
        first = seen.setdefault(word, line_no)
        if first != line_no:
            raise DuplicateWord(f"word {word!r} already seen at line {first}", line=line_no)
        words.append(word)
        counts.append(count)
    if not words:
        raise EmptyDictionary("stream contains no entries")
    del seen  # frees its line numbers, an int object each, before the sort
    # object.__new__ skips __init__: each line passed the checks above
    return _fill(object.__new__(Dictionary), name, words, counts)


def serialize_frequency_list(d: Dictionary) -> str:
    """Render a dictionary in the file format, entries in rank order."""
    return "".join(f"{word}\t{count}\n" for word, count in zip(d.words, d.counts))


def load_frequency_file(name: str, path: str | Path) -> Dictionary:
    """:func:`load_frequency_list` of a file; one not in UTF-8 is a FrequencyListError."""
    with open(path, encoding="utf-8-sig", newline="") as handle:
        try:
            return load_frequency_list(name, handle)
        except UnicodeDecodeError as exc:
            raise FrequencyListError(str(exc)) from None


def save_text_file(text: str, path: str | Path) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends as they are. Loaders
    drop a leading U+FEFF as a byte-order mark, so a text that begins with
    one is written after a real byte-order mark."""
    encoding = "utf-8-sig" if text.startswith("\ufeff") else "utf-8"
    with open(path, "w", encoding=encoding, newline="") as handle:
        handle.write(text)


def save_frequency_file(d: Dictionary, path: str | Path) -> None:
    save_text_file(serialize_frequency_list(d), path)


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
    def _vocabulary(self) -> tuple[tuple[str, ...], tuple[np.ndarray, ...]]:
        """``union_vocabulary`` and ``ranked_rows`` from one stable sort of
        every dictionary's words. An object array sorts and compares with
        Python's own ``str`` order, so words that differ only by trailing
        NULs stay apart. Each temporary is freed before the next is made."""
        sizes = [len(d) for d in self.dictionaries]
        words = np.fromiter(chain.from_iterable(d.words for d in self.dictionaries),
                            dtype=object, count=sum(sizes))
        order = words.argsort(kind="stable")
        words = words[order]
        first = np.empty(len(words), dtype=bool)  # where a new word begins
        first[0] = True
        np.not_equal(words[1:], words[:-1], out=first[1:])
        vocabulary = tuple(words[first])
        del words
        sorted_rows = np.cumsum(first, dtype=np.intp)
        del first
        sorted_rows -= 1
        rows = np.empty_like(sorted_rows)
        rows[order] = sorted_rows
        del order, sorted_rows
        return vocabulary, tuple(np.split(rows, np.cumsum(sizes[:-1])))

    @cached_property
    def union_vocabulary(self) -> tuple[str, ...]:
        """Every word appearing in any dictionary, deduplicated, sorted."""
        return self._vocabulary[0]

    @cached_property
    def ranked_rows(self) -> tuple[np.ndarray, ...]:
        """Array i: the ``vocab_probs`` row of each word of dictionary i, in rank order."""
        return self._vocabulary[1]

    @cached_property
    def vocab_probs(self) -> np.ndarray:
        """Row v, column i: dictionary i's probability of vocabulary word v."""
        matrix = np.zeros((len(self.union_vocabulary), len(self.dictionaries)))
        for i, (d, rows) in enumerate(zip(self.dictionaries, self.ranked_rows)):
            matrix[rows, i] = [count / d.total_count for count in d.counts]
        return matrix

    def row(self, word: str) -> int | None:
        """The ``vocab_probs`` row of ``word``, None if no dictionary ranks
        it: a bisection of the sorted ``union_vocabulary``."""
        vocabulary = self.union_vocabulary
        v = bisect_left(vocabulary, word)
        return v if v < len(vocabulary) and vocabulary[v] == word else None

    def probability_rows(self, words: Iterable[str]) -> np.ndarray:
        """Matrix of per-dictionary probabilities, one row per word (zeros if
        unranked), taken from ``vocab_probs`` with one ``take``, which copies
        rows faster than an index array does. Each word's row is
        :meth:`row`'s bisection, written out: a method call per word costs
        as much as the search."""
        vocabulary = self.union_vocabulary
        size = len(vocabulary)
        rows = np.array([v if (v := bisect_left(vocabulary, word)) < size and vocabulary[v] == word
                         else -1 for word in words], dtype=np.intp)
        probs = self.vocab_probs.take(rows, axis=0)
        probs[rows < 0] = 0.0  # an unranked word
        return probs
