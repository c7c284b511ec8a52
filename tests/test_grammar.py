import pytest
from hypothesis import given, settings, strategies as st

from classlm.errors import GrammarError
from classlm.grammar import (
    Grammar,
    Terminal,
    generate,
    nu_coverage,
    parse_grammar_text,
    write_sentences,
)

import oracle

GOLDEN_COVERAGE = 0.9507462686567164  # bundled grammar vs bundled corpus, frozen


def test_parse_structured_time_grammar():
    grammar = parse_grammar_text(
        """
        start Time;
        Time -> PartOfDay Specifier Identifier;
        PartOfDay -> "in the morning" | "in the afternoon" | "in the evening"
                   | "at night";
        Specifier -> "before" | "not earlier than";
        Identifier -> "a quarter to seven" | "twenty minutes past seven";
        """
    )
    assert grammar.start == "Time"
    assert len(grammar.productions["PartOfDay"]) == 4
    assert grammar.productions["PartOfDay"][0] == (Terminal(("in", "the", "morning")),)
    assert grammar.recursive == frozenset()


def test_undefined_nonterminal_is_named():
    with pytest.raises(GrammarError, match="Foo"):
        parse_grammar_text('start S; S -> Foo "a";')


def test_missing_start_declaration():
    with pytest.raises(GrammarError, match="start"):
        parse_grammar_text('S -> "a";')


def test_duplicate_start_declaration():
    with pytest.raises(GrammarError, match="duplicate"):
        parse_grammar_text('start S; start S; S -> "a";')


def test_statement_missing_semicolon():
    with pytest.raises(GrammarError, match="';'"):
        parse_grammar_text('start S; S -> "a"')


def test_comments_and_merged_productions():
    grammar = parse_grammar_text(
        '# two lines, one nonterminal\nstart S;\nS -> "a";\nS -> "b";\n'
    )
    assert len(grammar.productions["S"]) == 2


def test_single_production_single_sentence():
    grammar = parse_grammar_text('start S; S -> "a";')
    result = generate(grammar, 5, 100)
    assert result.sentences == (("a",),)
    assert not result.truncated


def test_two_alternatives():
    grammar = parse_grammar_text('start S; S -> "a" | "b";')
    result = generate(grammar, 5, 100)
    assert result.sentences == (("a",), ("b",))
    assert not result.truncated


def test_product_of_alternatives_counts():
    grammar = parse_grammar_text(
        """
        start S;
        S -> A B C;
        A -> "a1" | "a2" | "a3" | "a4";
        B -> "b1" | "b2";
        C -> "c1" | "c2" | "c3";
        """
    )
    result = generate(grammar, 5, 1000)
    # oracle for non-recursive alternative chains: the product of counts
    expected = 1
    for nt in ("A", "B", "C"):
        expected *= len(grammar.productions[nt])
    assert len(result.sentences) == expected == 24
    assert not result.truncated


def test_bounded_recursion():
    grammar = parse_grammar_text('start S; S -> "a" S | "a";')
    assert grammar.recursive == frozenset({"S"})
    result = generate(grammar, 3, 1000)
    assert result.sentences == (("a",), ("a", "a"), ("a", "a", "a"))
    assert result.truncated


def test_epsilon_alternative_marks_optional():
    grammar = parse_grammar_text('start S; S -> Opt "x"; Opt -> "pre" | ;')
    result = generate(grammar, 5, 100)
    assert result.sentences == (("pre", "x"), ("x",))
    empty_terminal = parse_grammar_text('start S; S -> "" "x";')
    assert generate(empty_terminal, 5, 100).sentences == (("x",),)


def test_max_sentences_truncates():
    grammar = parse_grammar_text('start S; S -> "a" | "b" | "c";')
    result = generate(grammar, 5, 2)
    assert len(result.sentences) == 2
    assert result.truncated


def test_bounds_must_be_positive():
    grammar = parse_grammar_text('start S; S -> "a";')
    for depth, count in ((0, 10), (10, 0)):
        with pytest.raises(GrammarError):
            generate(grammar, depth, count)


def test_generation_deterministic(tmp_path, grammar_obj):
    first = generate(grammar_obj, 12, 100000)
    second = generate(grammar_obj, 12, 100000)
    assert first.sentences == second.sentences
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_sentences(a, first)
    write_sentences(b, second)
    assert a.read_bytes() == b.read_bytes()


@st.composite
def _small_grammars(draw):
    """Up to 3 nonterminals, each with 1-3 alternatives of at most 2 items."""
    names = ["S", "A", "B"][: draw(st.integers(min_value=1, max_value=3))]
    item = st.one_of(
        st.sampled_from(["a", "b", ""]).map(lambda t: Terminal(tuple(t.split()))),
        st.sampled_from(names),
    )
    alternative = st.lists(item, max_size=2).map(tuple)
    productions = {
        name: tuple(draw(st.lists(alternative, min_size=1, max_size=3)))
        for name in names
    }
    return Grammar(start="S", productions=productions)


@settings(max_examples=300, deadline=None)
@given(
    _small_grammars(),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, 2, 3, 10, 1000]),
)
def test_generate_matches_naive_enumeration(grammar, max_depth, max_sentences):
    expected = oracle.naive_generate(grammar, max_depth, max_sentences)
    result = generate(grammar, max_depth, max_sentences)
    assert result.sentences == expected.sentences
    assert result.truncated == expected.truncated


def test_ambiguous_grammar_stops_at_max_sentences():
    # exponentially many derivations; every list stops at 11 distinct strings,
    # and derivation order takes "A -> A A" first, so the longest come first
    grammar = parse_grammar_text('start S; S -> A A A A A A A A; A -> A A | "x" | ;')
    result = generate(grammar, 12, 10)
    assert result.sentences == tuple(("x",) * k for k in range(8183, 8193))
    assert result == oracle.naive_generate(grammar, 12, 10)


def test_dedup_is_a_set_property():
    grammar = parse_grammar_text('start S; S -> "a" | "a" | A; A -> "a";')
    assert generate(grammar, 5, 100).sentences == (("a",),)


def test_coverage_edge_cases():
    sentences = [("a",), ("b",)]
    assert nu_coverage(sentences, {("a",), ("b",)}) == 1.0
    assert nu_coverage(sentences, {("c",)}) == 0.0
    assert nu_coverage(sentences, set()) == 1.0
    assert nu_coverage(sentences, {("a",), ("c",)}) == 0.5


def test_bundled_grammar_covers_most_distinct_nus(sentence_nus, splits):
    distinct = set(splits["nus"]["train"])
    coverage = nu_coverage(sentence_nus, distinct)
    assert coverage >= 0.80
    assert coverage == pytest.approx(GOLDEN_COVERAGE, abs=1e-12)
