from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from classlm.analysis import label_nus
from classlm.errors import CorpusError
from classlm.normalize import (
    normalize, normalize_sentences, nu_histogram, read_corpus, read_nus, tokenize,
)
from classlm.synth import SynthConfig, generate_world
from classlm.vocab import ClassLexicon

import oracle


def test_flagship_normalization(tiny_lexicon):
    nu = normalize(
        tiny_lexicon, "i want to leave from naples to rome monday at five"
    )
    assert nu == (
        "i", "want", "to", "leave", "from", "CITY-NAME", "to", "CITY-NAME",
        "WEEK-DAY", "at", "HOUR-NUMBER",
    )


def test_empty_utterance(tiny_lexicon):
    assert normalize(tiny_lexicon, "") == ()
    assert normalize(tiny_lexicon, []) == ()


def test_tags_pass_through(tiny_lexicon):
    assert normalize(tiny_lexicon, "from CITY-NAME") == ("from", "CITY-NAME")


def test_unknown_words_pass_through_lowercased(tiny_lexicon):
    assert normalize(tiny_lexicon, "Zzz-Unseen WORD") == ("zzz-unseen", "word")


def test_punctuation_stripped(tiny_lexicon):
    assert normalize(tiny_lexicon, "to rome, please!") == ("to", "CITY-NAME", "please")
    assert tokenize("a,b;c.d") == ["a", "b", "c", "d"]


def test_multiword_longest_match(tiny_lexicon):
    assert normalize(tiny_lexicon, "from new york to rome") == (
        "from", "CITY-NAME", "to", "CITY-NAME",
    )
    # partial multi-word sequences stay plain
    assert normalize(tiny_lexicon, "the new timetable") == ("the", "new", "timetable")


def test_longest_match_wins():
    lex = ClassLexicon({"A": {"new_york"}, "B": {"york"}})
    assert normalize(lex, "new york") == ("A",)
    assert normalize(lex, "old york") == ("old", "B")


def test_token_count_preserved_without_multiword(tiny_lexicon):
    utterance = "from naples at five on monday"
    assert len(normalize(tiny_lexicon, utterance)) == len(utterance.split())


@given(st.lists(st.sampled_from(
    ["naples", "rome", "new", "york", "monday", "five", "from", "to", "at", "x"]
), max_size=12))
def test_idempotence(tokens):
    lex = ClassLexicon(
        {"CITY-NAME": {"naples", "rome", "new_york"}, "WEEK-DAY": {"monday"},
         "HOUR-NUMBER": {"five"}}
    )
    once = normalize(lex, tokens)
    assert normalize(lex, once) == once


def test_idempotence_on_synthetic_corpus(world, lexicon):
    for _, text in world.labeled_rows[:300]:
        once = normalize(lexicon, text)
        assert normalize(lexicon, once) == once


def test_histogram_counts():
    a, b = ("x", "y"), ("z",)
    assert nu_histogram([a, b, a]) == Counter({a: 2, b: 1})
    assert nu_histogram([]) == Counter()


@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("abc")), max_size=30))
def test_histogram_total_is_corpus_size(corpus):
    assert sum(nu_histogram(corpus).values()) == len(corpus)


def test_histogram_matches_independent_recount(lexicon):
    # one-pass recount with a plain dict, no Counter machinery
    world = generate_world(SynthConfig(size=1000, seed=23))
    nus = [normalize(lexicon, text) for _, text in world.labeled_rows]
    recount = {}
    for nu in nus:
        recount[nu] = recount.get(nu, 0) + 1
    hist = nu_histogram(nus)
    assert dict(hist) == recount
    top = max(recount.items(), key=lambda kv: (kv[1], kv[0]))
    assert hist.most_common(1)[0][1] == top[1]


# non-ASCII parts lowercase with context: "ΟΔΟΣ" -> "οδος" (final sigma),
# "İstanbul" -> "i̇stanbul" (two code points), "STRASSE" is not "straße"
_PARTS = ["new", "york", "san", "jose", "rome", "x", "town", "οδος", "i̇stanbul", "straße"]
# "town" is also a part: a token spelling a lowercase tag stays the tag
_TAGS = ["CITY", "DAY", "X", "town", "ΣΑΣ"]


@st.composite
def lexicons(draw):
    """Valid lexicons whose members join one to three parts with ``_``."""
    members = draw(st.lists(
        st.lists(st.sampled_from(_PARTS), min_size=1, max_size=3).map("_".join),
        min_size=1, max_size=8, unique=True))
    tags = draw(st.lists(st.sampled_from(_TAGS), min_size=len(members),
                         max_size=len(members)))
    classes: dict[str, list[str]] = {}
    for member, tag in zip(members, tags):
        if member not in tags:  # a member may not spell a tag
            classes.setdefault(tag, []).append(member)
    assume(classes)
    return ClassLexicon(classes)


# one-word members that also begin multi-word members, built directly with
# lowercase tags too
_OVERLAPPING_LEXICONS = [
    ClassLexicon({"A": ["new"], "B": ["new_york", "new_york_town"], "C": ["york"]}),
    ClassLexicon({"town": ["new", "york_new"], "city": ["new_york", "york"]}),
    ClassLexicon({"X": ["x", "x_x"], "town": ["x_x_x", "οδος", "οδος_x"]}),
    # a tag that begins a multi-word member still stays the tag
    ClassLexicon({"town": ["rome", "town_x"], "X": ["x", "x_town"]}),
]

# member parts, tags and reserved tags in any case, and a joined member as one token
_WORDS = st.tuples(
    st.sampled_from(_PARTS + _TAGS + ["<s>", "</s>", "<unk>", "new_york", "from",
                                      "İstanbul", "ΟΔΟΣ", "ΣΑΣ", "STRASSE"]),
    st.sampled_from([str, str.upper, str.title, str.lower]),
).map(lambda pair: pair[1](pair[0]))
# in text, punctuation glued to either side of a word and the separator after it
_SPELLINGS = st.tuples(
    st.sampled_from(["", ",", "!?"]),
    _WORDS,
    st.sampled_from(["", ".", ";", ":"]),
    st.sampled_from([" ", "\t", "  ", " \t\n", "\u00a0"]),
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(lexicons(), st.sampled_from(_OVERLAPPING_LEXICONS)),
       st.lists(_SPELLINGS, max_size=10))
def test_normalize_matches_naive_oracle(lex, spellings):
    tokens = [word for _, word, _, _ in spellings]
    assert normalize(lex, tokens) == oracle.naive_normalize(lex, tokens)
    text = "".join("".join(spelling) for spelling in spellings)
    assert normalize(lex, text) == oracle.naive_normalize(lex, text)


def test_normalize_keeps_lowercase_tags():
    lex = _OVERLAPPING_LEXICONS[1]
    assert normalize(lex, "Town NEW york, new") == ("town", "city", "town")
    assert normalize(lex, ["town", "York", "new"]) == ("town", "town")
    lex = _OVERLAPPING_LEXICONS[3]
    assert normalize(lex, "Town x, x town") == ("town", "X", "X")


def test_normalize_matches_naive_oracle_on_synthetic_corpus(world, lexicon):
    for _, text in world.labeled_rows:
        assert normalize(lexicon, text) == oracle.naive_normalize(lexicon, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(lexicons(), st.sampled_from(_OVERLAPPING_LEXICONS)),
       st.lists(st.lists(_WORDS, max_size=6).map(tuple), max_size=6), st.data())
def test_normalize_sentences_matches_normalize(lex, pool, data):
    # repeats: sentences of the pool drawn again, in any order
    sentences = pool + (data.draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else [])
    expected = sorted({normalize(lex, s) for s in sentences if s})
    assert normalize_sentences(lex, sentences) == expected


def test_normalize_sentences_on_the_bundle_grammar(lexicon, sentences, sentence_nus):
    assert normalize_sentences(lexicon, sentences) == sentence_nus


_READER_LEXICON = ClassLexicon({"CITY-NAME": {"naples", "rome", "new_york"},
                                "HOUR-NUMBER": {"five"}})
# (line without its end, bad in a labeled file, bad in a plain file)
_READER_LINES = [
    ("City\tfrom naples to new york", False, False),
    ("City\tfrom Naples, to  ROME!", False, False),
    ("Time\tat five", False, False),
    ("Time\tat  five ", False, False),
    ("Other\tCITY-NAME at <unk>", False, False),
    ("Other\tfrom a<s>b", False, False),
    ("Date\t", False, False),
    ("Other\t   ", False, False),
    ("", False, False),
    ("   ", False, False),
    ("\t", False, False),
    ("City from naples", True, False),
    ("Weather\tsunny", True, False),
    ("City\thello <s> rome", True, True),
    ("at </S>.", True, True),
]


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(st.tuples(st.sampled_from(_READER_LINES), st.sampled_from(["\n", "\r\n"])),
                   max_size=25),
    last_end=st.booleans(),
    bom=st.booleans(),
    labeled=st.booleans(),
)
# a bad line that repeats is reported at its first occurrence
@example(lines=[(_READER_LINES[0], "\n"), (_READER_LINES[12], "\n")] * 2, last_end=True,
         bom=False, labeled=True)
def test_read_nus_matches_read_corpus_then_label_nus(tmp_path_factory, lines, last_end,
                                                      bom, labeled):
    text = "".join(line + end for (line, _, _), end in lines)
    if lines and not last_end:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("reader") / "corpus.tsv"
    path.write_bytes((("\ufeff" if bom else "") + text).encode("utf-8"))
    bad = [i for i, ((_, bad_labeled, bad_plain), _) in enumerate(lines, start=1)
           if (bad_labeled if labeled else bad_plain)]
    if bad:
        with pytest.raises(CorpusError) as want:
            read_corpus(path, labeled)
        assert str(want.value).startswith(f"{path}:{bad[0]}: ")
        for lexicon in (_READER_LEXICON, None):
            with pytest.raises(CorpusError) as got:
                read_nus(path, labeled, lexicon)
            assert str(got.value) == str(want.value)
        return
    rows = read_corpus(path, labeled)
    corpus = read_nus(path, labeled, _READER_LEXICON)
    assert corpus.rows == label_nus(_READER_LEXICON, rows)
    assert read_nus(path, labeled).rows == [(group, tuple(text.split())) for group, text in rows]
    # the counted views against plain recounts of the rows
    nus = [nu for _, nu in corpus.rows]
    assert len(corpus) == len(rows) and corpus.nus == nus
    first = {}
    assert all(first.setdefault(nu, nu) is nu for nu in nus)
    assert corpus.histogram == Counter(nus)
    assert corpus.groups == {group: [nu for g, nu in corpus.rows if g == group]
                             for group, _ in corpus.rows}
    assert corpus.group_histograms == {
        group: Counter(group_nus) for group, group_nus in corpus.groups.items()}
    assert corpus.pairs == list(dict.fromkeys(corpus.rows))
    assert corpus.firsts == [corpus.rows.index(pair) for pair in corpus.pairs]
    assert corpus.counts == [corpus.rows.count(pair) for pair in corpus.pairs]

