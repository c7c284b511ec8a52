from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from classlm.errors import TableError
from classlm.ngrams import NGramTable, extract, load_table, window_types
from classlm.vocab import SENT_END, SENT_START

import oracle


def test_extract_bigrams_by_hand():
    table = extract([("a", "b")], 2)
    assert table.count((SENT_START, "a")) == 1
    assert table.count(("a", "b")) == 1
    assert table.count(("b", SENT_END)) == 1
    assert {g: c for g, c in table if len(g) == 1} == {
        (SENT_START,): 1, ("a",): 1, ("b",): 1, (SENT_END,): 1,
    }


def test_extract_padding_rule():
    table = extract([("a",)], 3)
    assert table.count((SENT_START, SENT_START, "a")) == 1
    assert table.count((SENT_START, "a", SENT_END)) == 1
    assert table.count((SENT_START,)) == 2


def test_extract_rejects_zero_order():
    with pytest.raises(TableError):
        extract([("a",)], 0)


def test_extract_total_matches_naive_recount(splits):
    corpus = splits["nus"]["train"][:200]
    table = extract(corpus, 3)
    # independent recount: enumerate padded windows quadratically
    expected = 0
    for nu in corpus:
        padded = (SENT_START, SENT_START) + tuple(nu) + (SENT_END,)
        for i in range(len(padded)):
            if i + 3 <= len(padded):
                expected += 1
    assert table.total(3) == expected
    assert expected == sum(len(nu) + 1 for nu in corpus)
    table.validate()


def assert_matches_oracle(corpus, n):
    table = extract(corpus, n)
    assert dict(table) == oracle.naive_extract(corpus, n)
    table.validate()


@pytest.mark.parametrize("split", ["train", "tune", "test"])
def test_extract_matches_naive_oracle(splits, split):
    assert_matches_oracle(splits["nus"][split], 3)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abc"), max_size=5).map(tuple), max_size=6),
    st.integers(min_value=1, max_value=4),
)
def test_extract_matches_naive_oracle_random(corpus, n):
    assert_matches_oracle(corpus, n)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from("abc"), max_size=4), min_size=1, max_size=4),
    st.data(),
    st.integers(min_value=1, max_value=4),
)
def test_extract_with_heavy_repeats_matches_naive_oracle(pool, data, n):
    # a few distinct NUs, each repeated many times in a random order; a list
    # and a tuple of the same tokens are the same NU
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=40))
    assert_matches_oracle([pool[i] if i % 2 else tuple(pool[i]) for i in picks], n)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", SENT_START, SENT_END]), max_size=6)
             .map(tuple), max_size=60),
    st.booleans(),
    st.integers(min_value=1, max_value=5),
)
def test_extract_on_overlapping_corpora_matches_naive_oracle(nus, distinct, n):
    # over two letters most NUs share their windows with NUs before them;
    # sorted distinct NUs are the shape of a generated-sentence corpus, and
    # empty NUs, NUs spelling the boundary tags and the empty corpus all occur
    corpus = sorted(set(nus)) if distinct else nus
    assert_matches_oracle(corpus, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_extract_empty_corpus(n):
    assert extract([], n).order == n
    assert_matches_oracle([], n)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["a", "b", SENT_START, SENT_END]), max_size=5)
             .map(lambda nu: tuple(nu) if len(nu) % 2 else nu), max_size=12),
    st.integers(min_value=1, max_value=4),
)
def test_window_types_holds_each_top_order_window_once(corpus, n):
    # NUs come as lists and tuples, as extract takes them
    table = window_types(corpus, n)
    top = table.gram_set(n)
    assert top == extract(corpus, n).gram_set(n)
    assert top == {gram for gram in oracle.naive_extract(corpus, n) if len(gram) == n}
    assert all(table.count(gram) == 1 for gram in top)
    # every shorter gram is a context the closure added, counting the
    # windows that extend it
    for gram, count in table:
        if len(gram) < n:
            assert count == sum(1 for window in top if window[:len(gram)] == gram) > 0
    table.validate()


def test_extract_order_independent(splits):
    corpus = splits["nus"]["train"][:50]
    assert extract(corpus, 3) == extract(list(reversed(corpus)), 3)


def test_inject_creates_missing_contexts():
    table = NGramTable(3)
    table.inject(("x", "y", "z"), 1)
    assert table.count(("x", "y", "z")) == 1
    assert table.count(("x", "y")) == 1
    assert table.count(("x",)) == 1
    table.validate()


def test_inject_leaves_satisfied_prefix_alone():
    table = NGramTable(3)
    table.inject(("x", "y"), 5)
    table.inject(("x", "y", "z"), 1)
    assert table.count(("x", "y")) == 5
    table.validate()


def test_inject_raises_prefix_minimally():
    table = NGramTable(3)
    table.inject(("x", "y"), 1)
    table.inject(("x", "y", "z"), 3)
    assert table.count(("x", "y")) == 3  # raised exactly to the extension sum
    table.validate()


def test_inject_zero_is_identity():
    table = extract([("a", "b")], 2)
    before = {g: c for g, c in table}
    table.inject(("a", "q"), 0)
    assert {g: c for g, c in table} == before


def test_inject_validation():
    table = NGramTable(2)
    with pytest.raises(TableError):
        table.inject(("a", "b", "c"), 1)
    with pytest.raises(TableError):
        table.inject(("a",), -1)


@pytest.mark.parametrize("counts", [
    {("a", "b", "c"): 1}, {(): 1}, {("a",): -2}, {("a", "b", "c"): 0},
])
def test_constructor_rejects_bad_lengths_and_negative_counts(counts):
    with pytest.raises(TableError):
        NGramTable(2, counts)


def test_scale_all():
    table = NGramTable(2)
    table.inject(("a", "b"), 5)
    table.scale(2)
    assert table.count(("a", "b")) == 10
    assert table.count(("a",)) == 10


def test_scale_identity():
    table = extract([("a", "b", "c")], 3)
    before = {g: c for g, c in table}
    table.scale(1)
    assert {g: c for g, c in table} == before


def test_scale_selector_then_closure_holds():
    table = extract([("a", "b"), ("a", "c")], 2)
    table.scale(4, selector={("a", "b")})
    assert table.count(("a", "b")) == 4
    table.validate()
    # scaling down a context forces a repair back up to its extension sum
    table2 = extract([("a", "b")], 2)
    table2.scale(Fraction(1, 2), selector={("a",)})
    table2.validate()


def test_scale_rejects_nonpositive():
    table = NGramTable(1)
    table.inject(("a",), 1)
    for factor in (0, -1, Fraction(-1, 2)):
        with pytest.raises(TableError):
            table.scale(factor)


def test_fraction_counts_stay_exact():
    table = NGramTable(2)
    table.inject(("a", "b"), 1)
    table.scale(Fraction(1, 3))
    assert table.count(("a", "b")) == Fraction(1, 3)
    table.scale(3)
    assert table.count(("a", "b")) == 1
    assert isinstance(table.count(("a", "b")), int)  # canonical exact form


def test_save_load_round_trip(tmp_path, splits):
    table = extract(splits["nus"]["train"][:40], 3)
    table.scale(Fraction(5, 2), selector=lambda g: len(g) == 3)
    path = tmp_path / "table.tsv"
    table.save(path)
    loaded = load_table(path)
    assert loaded == table
    again = tmp_path / "again.tsv"
    loaded.save(again)
    assert path.read_bytes() == again.read_bytes()


def test_load_errors(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("not-a-count\ta b\n", encoding="utf-8")
    with pytest.raises(TableError):
        load_table(bad)
    bad.write_text("3 a b\n", encoding="utf-8")  # missing tab
    with pytest.raises(TableError):
        load_table(bad)
    bad.write_text("1\ta\n3/2\ta b\n1/2\ta c\n2\tb\n1\tc\n", encoding="utf-8")
    with pytest.raises(TableError, match=r"closure violated at \('a',\): count 1 < "
                       r"extension sum 2 \(1 violations\)") as caught:
        load_table(bad)
    assert str(caught.value).startswith(f"{bad}: context closure violated")
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(TableError):
        load_table(empty)
    assert load_table(empty, order=2).order == 2


@pytest.mark.parametrize("count", ["1e400", "1e2000000", "-1", "1" + "0" * 400, "1/0"])
def test_load_rejects_counts_outside_the_syntax_or_float_range(tmp_path, count):
    path = tmp_path / "huge.tsv"
    path.write_text(f"1\ta\n{count}\ta\n", encoding="utf-8")
    with pytest.raises(TableError, match=f"{path}:2: bad count"):
        load_table(path)


def test_load_sums_duplicate_lines(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("3/2\ta\n1\ta b\n2\tb\n3/2\ta\n1\tb\n", encoding="utf-8")
    table = load_table(path)
    assert dict(table) == {("a",): 3, ("a", "b"): 1, ("b",): 3}
    assert isinstance(table.count(("a",)), int)


# -- randomized closure property ------------------------------------------------

_tokens = st.sampled_from("abcd")
_grams = st.lists(_tokens, min_size=1, max_size=3).map(tuple)

_raw_counts = st.one_of(
    st.integers(min_value=0, max_value=9),
    st.fractions(min_value=0, max_value=9, max_denominator=4),
)

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("inject"), _grams, st.integers(min_value=0, max_value=9)),
        # a table built from raw counts: zeros, Fractions (integral ones
        # too) and grams whose prefixes are missing or fall short
        st.tuples(st.just("rebuild"), st.dictionaries(_grams, _raw_counts, max_size=8)),
        st.tuples(
            st.just("scale"),
            st.sampled_from([Fraction(1, 2), 1, 2, Fraction(7, 3)]),
            st.integers(min_value=1, max_value=3),
        ),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_tokens, max_size=4).map(tuple), max_size=5), _operations)
def test_closure_invariant_under_random_operations(corpus, operations):
    table = extract(corpus, 3)
    table.validate()
    for op in operations:
        # counts after the edit itself, before any context is repaired
        edited = dict(table)
        if op[0] == "inject":
            _, gram, count = op
            edited[gram] = edited.get(gram, 0) + count
            table.inject(gram, count)
        elif op[0] == "rebuild":
            edited = op[1]
            table = NGramTable(3, edited)
        else:
            _, factor, length = op
            edited = {g: c * factor if len(g) == length else c for g, c in edited.items()}
            table.scale(factor, selector=lambda g, k=length: len(g) == k)
        table.validate()
        # counts are stored non-zero and in canonical exact form
        assert all(count > 0 and (isinstance(count, int) or count.denominator > 1)
                   for _, count in table)
        # the repair raises a context to its extension sum and never higher
        sums = oracle.naive_extension_sums(dict(table))
        for gram in set(edited) | set(g for g, _ in table):
            expected = max(edited.get(gram, 0), sums.get(gram, 0))
            assert table.count(gram) == expected, gram
