import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pwbandit import (
    Corpus,
    Dictionary,
    from_password_multiset,
    load_frequency_file,
    load_frequency_list,
    save_frequency_file,
    serialize_frequency_list,
)
from pwbandit.errors import (
    DuplicateWord,
    EmptyDictionary,
    EmptyInput,
    FrequencyListError,
    MalformedLine,
    NonPositiveCount,
)

BOM = "\ufeff"

words_st = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)
entries_st = st.dictionaries(words_st, st.integers(1, 1000), min_size=1, max_size=30)


def test_load_basic():
    d = load_frequency_list("t", ["a\t8", "b\t2"])
    assert d.entries == (("a", 8), ("b", 2))
    assert d.total_count == 10


def test_load_resorts_input_order():
    assert load_frequency_list("t", ["b\t2", "a\t8"]) == load_frequency_list("t", ["a\t8", "b\t2"])


def test_load_duplicate_word_reports_line():
    with pytest.raises(DuplicateWord) as exc:
        load_frequency_list("t", ["a\t8", "a\t1"])
    assert exc.value.line == 2


@pytest.mark.parametrize("line,error", [
    ("a 8", MalformedLine),          # no tab
    ("a\teight", MalformedLine),     # non-integer count
    ("a\t8\t9", MalformedLine),      # two tabs
    ("\t8", MalformedLine),          # empty word
    ("a\t0", NonPositiveCount),
    ("a\t-3", NonPositiveCount),
    ("a\t+5", MalformedLine),        # int() reads these four as integers
    ("a\t 5", MalformedLine),
    ("a\t\u0665", MalformedLine),    # ARABIC-INDIC DIGIT FIVE
    ("a\t5_000", MalformedLine),
    pytest.param("a\t" + "9" * 5000, MalformedLine, id="count-past-int-digit-limit"),
])
def test_load_bad_lines(line, error):
    with pytest.raises(error) as exc:
        load_frequency_list("t", ["ok\t5", line])
    assert exc.value.line == 2


def reference_load(name, source):
    """The loader as it was when each line was checked twice: this loop, then
    ``Dictionary`` validating the entries again. Returns the entries sorted by
    the ``(-count, word)`` key, and their total."""
    entries = []
    seen = {}
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
            count = int(count_text)
        except ValueError:
            raise MalformedLine(f"count is not an integer: {count_text!r}", line=line_no) from None
        if count <= 0:
            raise NonPositiveCount(f"count must be positive, got {count}", line=line_no)
        if not word or any(ch in word for ch in "\t\n\r"):
            raise MalformedLine(f"invalid word {word!r}", line=line_no)
        if word in seen:
            raise DuplicateWord(f"word {word!r} already seen at line {seen[word]}", line=line_no)
        seen[word] = line_no
        entries.append((word, count))
    if not entries:
        raise EmptyDictionary("stream contains no entries")
    Dictionary(name, tuple(entries))
    return tuple(sorted(entries, key=lambda e: (-e[1], e[0]))), sum(c for _, c in entries)


pool_st = st.sampled_from(["a", "b", "pass word", "\u00e9t\u00e9", "1"])
count_st = (st.integers(1, 3) | st.integers(1, 10**6)).map(str)  # ties are common
valid_line_st = st.builds("{}\t{}".format, pool_st | words_st, count_st)
FAULTS = ("no tab", "two tabs", "count format", "count sign", "empty word", "newline", "return")


@st.composite
def faulty_line(draw):
    """A line that breaks one or two of the format's rules at once, so that
    the order of the checks shows."""
    faults = draw(st.sets(st.sampled_from(FAULTS), min_size=1, max_size=2))
    word = "" if "empty word" in faults else draw(pool_st)
    if "newline" in faults:
        word += "\n" + draw(pool_st)
    if "return" in faults:
        word = "\r" + word
    count = draw(count_st)
    if "count format" in faults:
        count = draw(st.sampled_from(["", "+5", " 5", "5_0", "\u0665", "x"]))
    if "count sign" in faults:
        count = draw(st.sampled_from(["0", "00", "-0", "-3"]))
    line = word + ("" if "no tab" in faults else "\t") + count
    return line + "\t1" if "two tabs" in faults else line


@st.composite
def line_lists(draw):
    """Valid and blank lines with up to two faulty ones among them, each
    ending in LF, CRLF or nothing."""
    lines = draw(st.lists(valid_line_st | st.just(""), max_size=12))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(faulty_line()))
    return [line + draw(st.sampled_from(["", "\n", "\r\n"])) for line in lines]


def outcome(load, lines):
    try:
        return load("t", lines)
    except FrequencyListError as exc:
        return type(exc), str(exc), exc.line


@settings(max_examples=300)
@given(line_lists())
def test_load_matches_the_twice_checked_reference(lines):
    loaded = outcome(load_frequency_list, lines)
    if isinstance(loaded, Dictionary):
        loaded = loaded.entries, loaded.total_count
    assert loaded == outcome(reference_load, lines)


@given(st.dictionaries(pool_st | words_st, count_st, min_size=1))
def test_loaded_dictionary_equals_a_validated_one(counts):
    d = load_frequency_list("t", [f"{word}\t{count}" for word, count in counts.items()])
    again = Dictionary(d.name, d.entries)
    assert again == d
    assert (again.entries, again.total_count) == (d.entries, d.total_count)


def test_load_empty_stream():
    with pytest.raises(EmptyDictionary):
        load_frequency_list("t", [])
    with pytest.raises(EmptyDictionary):
        load_frequency_list("t", ["", "", ""])  # blank lines ignored


def test_load_accepts_file_object_and_spaces_in_words():
    stream = io.StringIO("pass word\t3\nx\t1\n")
    d = load_frequency_list("t", stream)
    assert d.entries == (("pass word", 3), ("x", 1))


def test_from_password_multiset_counts():
    d = from_password_multiset("t", ["a", "a", "b"])
    assert d.entries == (("a", 2), ("b", 1))
    assert d.total_count == 3


def test_from_password_multiset_tie_breaks_lexicographically():
    d = from_password_multiset("t", ["b", "a"])
    assert d.entries == (("a", 1), ("b", 1))


def test_from_password_multiset_empty():
    with pytest.raises(EmptyInput):
        from_password_multiset("t", [])


def test_from_password_multiset_matches_independent_tally():
    # Oracle: a single-pass tally of the same draws, kept separate from the
    # construction path.
    rng = np.random.default_rng(7)
    vocab = [f"w{j}" for j in range(20)]
    pmf = 1.0 / np.arange(1, 21)
    pmf /= pmf.sum()
    draws = [vocab[i] for i in rng.choice(20, size=1000, p=pmf)]

    tally = {}
    for pw in draws:
        tally[pw] = tally.get(pw, 0) + 1

    d = from_password_multiset("zipfish", draws)
    assert d.total_count == 1000
    assert dict(d.entries) == tally


def test_probability_of():
    d = Dictionary("t", (("a", 8), ("b", 2)))
    rows = Corpus((d,)).probability_rows(["a", "z"])
    assert rows[0, 0] == pytest.approx(0.8)
    assert rows[1].tolist() == [0.0]


def test_constructor_rejects_bad_entries():
    with pytest.raises(DuplicateWord):
        Dictionary("t", (("a", 1), ("a", 2)))
    with pytest.raises(NonPositiveCount):
        Dictionary("t", (("a", 0),))
    with pytest.raises(EmptyDictionary):
        Dictionary("t", ())
    with pytest.raises(ValueError):
        Dictionary("t", (("a\tb", 1),))


@given(entries_st)
def test_sorting_totality(counts):
    d = Dictionary("t", tuple(counts.items()))
    for (w1, c1), (w2, c2) in zip(d.entries, d.entries[1:]):
        assert c1 > c2 or (c1 == c2 and w1 < w2)


@given(entries_st)
def test_probability_is_pmf(counts):
    d = Dictionary("t", tuple(counts.items()))
    c = Corpus((d,))
    probs = c.probability_rows(w for w, _ in d.entries)[:, 0]
    assert all(p > 0 for p in probs)
    assert c.vocab_probs.sum(axis=0) == pytest.approx([1.0], abs=1e-12)


@given(entries_st)
def test_serialize_load_round_trip(counts):
    d = Dictionary("t", tuple(counts.items()))
    text = serialize_frequency_list(d)
    again = load_frequency_list("t", io.StringIO(text))
    assert again == d
    assert serialize_frequency_list(again) == text


def test_file_round_trip(tmp_path):
    d = Dictionary("mine", (("hunter2", 41), ("123456", 99), ("qwerty", 41)))
    path = tmp_path / "mine.tsv"
    save_frequency_file(d, path)
    assert path.read_bytes() == b"123456\t99\nhunter2\t41\nqwerty\t41\n"
    assert load_frequency_file("mine", path) == d


def file_bytes(lines, data, bom):
    """``lines`` ending in LF throughout, CRLF throughout or a random mix,
    the last one perhaps in nothing, after a UTF-8 byte-order mark if ``bom``."""
    style = data.draw(st.sampled_from(["lf", "crlf", "mixed"]))
    ends = {"lf": ["\n"], "crlf": ["\r\n"], "mixed": ["\n", "\r\n"]}[style]
    endings = [data.draw(st.sampled_from(ends)) for _ in lines]
    endings[-1] = data.draw(st.sampled_from(ends + [""]))
    text = "".join(line + end for line, end in zip(lines, endings))
    # Without a byte-order mark, a first line that begins with U+FEFF is read
    # as having one: the format's rule, which the writers follow (see
    # test_first_word_beginning_with_a_bom_survives_a_file_round_trip).
    assume(bom or not text.startswith(BOM))
    return ((BOM if bom else "") + text).encode("utf-8")


@given(entries_st, st.booleans(), st.data())
def test_loaders_ignore_line_endings_and_a_byte_order_mark(counts, bom, data):
    expected = Dictionary("t", tuple(counts.items()))
    raw = file_bytes([f"{w}\t{c}" for w, c in counts.items()], data, bom)
    stream = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")
    assert load_frequency_list("t", stream) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_bytes(raw)
        assert load_frequency_file("t", path) == expected


def test_first_word_beginning_with_a_bom_survives_a_file_round_trip(tmp_path):
    d = Dictionary("mine", ((BOM + "x", 9), ("y", 1)))
    path = tmp_path / "mine.tsv"
    save_frequency_file(d, path)
    assert path.read_bytes() == (BOM + BOM + "x\t9\ny\t1\n").encode("utf-8")
    assert load_frequency_file("mine", path) == d


def test_corpus_union_vocabulary():
    c = Corpus((
        Dictionary("d1", (("a", 8), ("b", 2))),
        Dictionary("d2", (("b", 9), ("c", 1))),
    ))
    assert c.union_vocabulary == ("a", "b", "c")
    assert [r.tolist() for r in c.ranked_rows] == [[0, 1], [1, 2]]
    assert len(c) == 2


def test_corpus_rejects_duplicate_names_and_empty():
    d = Dictionary("d", (("a", 1),))
    with pytest.raises(ValueError):
        Corpus((d, d))
    with pytest.raises(EmptyInput):
        Corpus(())
