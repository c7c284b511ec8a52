import contextlib
import io
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from classlm.cli import main
from classlm.errors import GrammarError
from classlm.grammar import Grammar, SentenceSet, generate, parse_grammar_text
from classlm.normalize import write_sentences

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
    assert grammar.productions["PartOfDay"][0] == (("in", "the", "morning"),)


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


@pytest.mark.parametrize("terminal,tag", [
    ("hello <s>", "<s>"), ("from CITY-NAME </s> to", "</s>"), ("</S>.", "</s>"),
    ("a,<S>", "<s>"), ("</s> <s>", "<s>"),
])
def test_terminal_spelling_a_boundary_tag_is_rejected(terminal, tag):
    # the corpus readers reject the same tokens; <unk> stays allowed
    with pytest.raises(GrammarError) as err:
        parse_grammar_text(f'start S;\nS -> "a" |\n  "{terminal}" "<unk>";', "g.bnf")
    assert str(err.value) == f"g.bnf:3: reserved tag {tag} in a terminal"


def test_terminals_are_tokenized_like_corpus_text():
    grammar = parse_grammar_text('start S; S -> "Hello, Rome!" ". ;" "<unk>";')
    assert grammar.productions["S"] == (
        (("Hello", "Rome"), (), ("<unk>",)),)


def test_comments_and_merged_productions():
    grammar = parse_grammar_text(
        '# two lines, one nonterminal\nstart S;\nS -> "a";\nS -> "b";\n'
    )
    assert len(grammar.productions["S"]) == 2


def test_hash_inside_a_terminal_is_text():
    # the corpus line "track # 5" is three tokens; a # outside quotes still
    # starts a comment, also right after a terminal
    grammar = parse_grammar_text('start S; S -> "track # 5" # or "x"\n | "#";# end\n')
    assert grammar.productions["S"] == ((("track", "#", "5"),), (("#",),))
    assert generate(grammar, 5, 100).sentences == (("#",), ("track", "#", "5"))


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


def test_sentence_sets_differing_only_in_truncation_are_unequal():
    # the recursive alternative adds no sentence within the depth bound, but
    # cuts one past it
    cut = generate(parse_grammar_text('start S; S -> "a" | S;'), 3, 10)
    whole = generate(parse_grammar_text('start S; S -> "a";'), 3, 10)
    assert cut.sentences == whole.sentences == (("a",),)
    assert (cut.truncated, whole.truncated) == (True, False)
    assert cut != whole
    assert whole == SentenceSet((("a",),), False)


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
        st.sampled_from(["a", "b", ""]).map(lambda t: tuple(t.split())),
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


@settings(max_examples=300, deadline=None)
@given(
    _small_grammars(),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1, 2, 3, 10, 1000]),
)
def test_depth_cut_is_every_cut_the_sentence_cap_does_not_explain(grammar, max_depth,
                                                                  max_sentences):
    result = generate(grammar, max_depth, max_sentences)
    assert result.truncated or not result.depth_cut
    assert result.depth_cut or not result.truncated or len(result) == max_sentences
    # where the cap cannot bind, the depth bound is the only cut
    whole = generate(grammar, max_depth, 10**6)
    expected = oracle.naive_generate(grammar, max_depth, 10**6)
    assert whole.depth_cut == whole.truncated == expected.truncated


def _chain(size):
    """Ni -> N(i+1) "a" | "b", for i below size, the last rule "b" alone."""
    return "start N0;\n" + "".join(
        f'N{i} -> N{i + 1} "a" | "b";\n' for i in range(size - 1)) + f'N{size - 1} -> "b";\n'


def test_grammar_set_up_is_linear_in_the_nonterminals():
    # one search per nonterminal, or a parent scan per nonterminal, takes
    # seconds on this chain; each bound is a tenth of that
    text = _chain(8000)
    started = time.perf_counter()
    grammar = parse_grammar_text(text)
    parsed = time.perf_counter()
    result = generate(grammar, 12, 100)
    generated = time.perf_counter()
    assert result.sentences == tuple(sorted(("b",) + ("a",) * k for k in range(12)))
    assert parsed - started < 1.5
    assert generated - parsed < 0.3
    # a cycle through the whole chain parses as fast
    started = time.perf_counter()
    parse_grammar_text(text.replace('N7999 -> "b";', 'N7999 -> N0 | "b";'))
    assert time.perf_counter() - started < 1.5


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


def test_bundled_grammar_covers_most_distinct_nus(sentence_nus, splits):
    distinct = set(splits["nus"]["train"])
    # the fraction of distinct training NUs that a generated sentence matches
    coverage = len(distinct & set(sentence_nus)) / len(distinct)
    assert coverage >= 0.80
    assert coverage == pytest.approx(GOLDEN_COVERAGE, abs=1e-12)


_FUZZ_TERMINALS = ('""', '"..."', '"new york"', '"new" "york"', '"CITY-NAME"', '"<unk>"',
                   '"<s>"', '"#"', '"to"', '"rome"')
_FUZZ_STRAYS = ("# a comment", "->", "|", ";", "start", "start S;", "S ->", '"', "@", "")
_FUZZ_LINES = ("i want to go to rome", "from naples to new york", "hello", "to",
               "CITY-NAME", "<unk> rome", "...")


@st.composite
def _grammar_files(draw):
    """The text of a grammar file over 1-3 nonterminals, with alternatives
    of 0-3 items, undefined names, odd terminals, and stray tokens."""
    names = ["S", "A", "B"][: draw(st.integers(1, 3))]
    item = st.sampled_from(names + ["U"] + list(_FUZZ_TERMINALS))
    alternative = st.lists(item, max_size=3).map(" ".join)
    pieces = ["start S;"] + [
        f"{name} -> {' | '.join(draw(st.lists(alternative, min_size=1, max_size=3)))};"
        for name in names]
    for stray in draw(st.lists(st.sampled_from(_FUZZ_STRAYS), max_size=2)):
        pieces.insert(draw(st.integers(0, len(pieces))), stray)
    text = pieces[0]
    for piece in pieces[1:]:
        text += draw(st.sampled_from((" ", "\n"))) + piece
    return text + "\n"


@settings(max_examples=150, deadline=None)
@given(
    text=_grammar_files(),
    corpora=st.lists(st.lists(st.sampled_from(_FUZZ_LINES), min_size=3, max_size=3),
                     min_size=3, max_size=3),
    order=st.integers(1, 3),
    mode=st.sampled_from(("ngram-injection", "naive-sentences")),
    emission=st.booleans(),
    max_depth=st.integers(1, 5),
    max_sentences=st.integers(1, 50),
)
def test_grammar_commands_on_random_grammar_files_exit_cleanly(
        tmp_path_factory, text, corpora, order, mode, emission, max_depth, max_sentences):
    # generate and generalize, in-process on random grammar files: each exits
    # 0, 1 or 2 and writes no nan or inf; generate prints the count of the
    # lines it writes, or names the grammar file in its error
    root = tmp_path_factory.mktemp("grammars")
    grammar, lexicon = root / "g.bnf", root / "city.lex"
    grammar.write_text(text, encoding="utf-8")
    lexicon.write_text("CITY-NAME: rome naples new_york\n", encoding="utf-8")
    train, tune, test = (root / f"{role}.txt" for role in ("train", "tune", "test"))
    for path, lines in zip((train, tune, test), corpora):
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    bounds = ["--max-depth", str(max_depth), "--max-sentences", str(max_sentences)]
    sentences = root / "sentences.txt"
    runs = [
        ["generate", "--grammar", str(grammar), *bounds, "--out", str(sentences)],
        ["generalize", "--lexicon", str(lexicon), "--corpus", str(train),
         "--grammar", str(grammar), "--tune-corpus", str(tune), "--test-corpus", str(test),
         "--order", str(order), "--mode", mode, *["--emission"] * emission, *bounds,
         "--out-dir", str(root / "gen")],
    ]
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv, err.getvalue())
        written = [out.getvalue()] + [path.read_text(encoding="utf-8")
                                      for path in sorted(root.glob("gen/*.csv"))]
        assert not any(re.search(r"\b(nan|inf)\b", page, re.I) for page in written), argv
        if argv[0] != "generate":
            continue
        if code == 0:
            count = int(re.search(r"^generated (\d+) sentences", out.getvalue(), re.M)[1])
            assert count == len(sentences.read_text(encoding="utf-8").splitlines())
        elif code == 1:
            assert str(grammar) in err.getvalue()
