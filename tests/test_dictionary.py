import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    MalformedLine,
    NonPositiveCount,
)

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
