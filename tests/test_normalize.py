import re
import time
import types
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import classlm
from classlm.analysis import label_nus
from classlm.errors import CorpusError, LexiconError
from classlm.grammar import generate, parse_grammar_text
from classlm.normalize import (
    Corpus, normalize, normalize_sentences, nu_histogram, read_corpus, read_nus, tokenize,
    write_labeled_corpus,
)
from classlm.synth import generate_world
from classlm.vocab import RESERVED, ClassLexicon

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


def test_greedy_matching_tries_only_member_lengths():
    # each position tries only the lengths of the members its token begins,
    # so a line of L tokens under a member of L words costs O(L), not O(L^3)
    size = 4000
    lex = ClassLexicon({"C": {"a_b", "_".join(["a"] * (size - 1) + ["b"])}})
    assert lex.member_lengths == {"a": [size, 2]}
    started = time.perf_counter()
    assert normalize(lex, " ".join(["a"] * size)) == ("a",) * size
    assert normalize(lex, ["a"] * (size - 1) + ["b"]) == ("C",)
    assert normalize(lex, ["a"] * (size - 2) + ["b"]) == ("a",) * (size - 3) + ("C",)
    assert time.perf_counter() - started < 2.0


def test_package_attribute_normalize_is_the_module():
    import classlm.normalize as module

    assert isinstance(module, types.ModuleType)
    assert module.read_nus is read_nus and module.normalize is normalize
    assert "normalize" not in classlm.__all__


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
    world = generate_world(size=1000, seed=23)
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


@settings(max_examples=300, deadline=None)
@given(st.one_of(lexicons(), st.sampled_from(_OVERLAPPING_LEXICONS)),
       st.lists(st.one_of(
           st.lists(_WORDS, max_size=6),
           st.lists(_SPELLINGS, max_size=6).map(
               lambda spellings: "".join("".join(spelling) for spelling in spellings)),
       ), max_size=8),
       st.data())
def test_token_memo_never_changes_a_result(lex, utterances, data):
    # one lexicon whose memo fills in any order (the shared lexicons keep
    # theirs across examples) against a fresh lexicon of the same classes
    # per utterance; a token iterator gives the NU of its list
    got = {}
    for i in data.draw(st.permutations(range(len(utterances)))):
        got[i] = normalize(lex, utterances[i])
    for i, utterance in enumerate(utterances):
        assert got[i] == normalize(ClassLexicon(lex.classes), utterance)
        if not isinstance(utterance, str):
            assert normalize(lex, iter(utterance)) == got[i]


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
    got = normalize_sentences(lexicon, sentences)
    assert got == sentence_nus
    assert got == sorted({oracle.naive_normalize(lexicon, s) for s in sentences if s})


# a terminal's text: members written word by word, plain words, <unk> and
# tags, each in any case, with .,;:!? glued to either side or standing alone
_PLAIN = ["from", "to", "please", "<unk>", "CITY", "town"]
_MARKS = ["", ".", ",", ";", ":", "!", "?", "!?"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(lexicons(), st.sampled_from(_OVERLAPPING_LEXICONS)), st.data())
def test_grammar_terminal_gives_the_nu_of_the_same_corpus_text(lex, data):
    phrases = sorted(member.replace("_", " ")
                     for members in lex.classes.values() for member in members) + _PLAIN
    pieces = data.draw(st.lists(st.tuples(
        st.sampled_from(_MARKS),
        st.sampled_from(phrases).flatmap(lambda phrase: st.sampled_from(
            [phrase, phrase.upper(), phrase.title(), phrase.lower()])),
        st.sampled_from(_MARKS),
        st.sampled_from([" ", "  ", "\t", " . ", " , ", " !? "]),
    ), max_size=6))
    text = "".join("".join(piece) for piece in pieces)
    nu = normalize(lex, text)
    assume(nu)
    grammar = parse_grammar_text(f'start S; S -> "{text}";')
    assert normalize_sentences(lex, generate(grammar, 2, 10)) == [nu]


def test_grammar_terminal_punctuation_is_stripped_like_corpus_text(tiny_lexicon):
    text = "to new york."
    sentences = generate(parse_grammar_text(f'start S; S -> "{text}";'), 2, 10)
    assert sentences.sentences == (("to", "new", "york"),)
    assert normalize_sentences(tiny_lexicon, sentences) == [("to", "CITY-NAME")]
    assert normalize(tiny_lexicon, text) == ("to", "CITY-NAME")


def _per_part_error(tag, members, tags):
    """The first error of the member checks of a class whose members are
    new, one :func:`tokenize` per part."""
    for word in members:
        if word in RESERVED:
            return f"reserved tag {word!r} cannot be a member of class {tag}"
        for part in word.split("_"):
            cased = part if part in tags | RESERVED else part.lower()
            if tokenize(part) != [part] or cased != part or part in ("<s>", "</s>"):
                return (f"invalid member {word!r} in class {tag}: normalization never "
                        f"matches {part!r}")
        if word in tags:
            return f"word {word!r} in class {tag} collides with a class tag"
    return None


# parts that pass, and parts that tokenize splits or drops, that lowering
# changes (in context, for the final sigma), that spell a boundary or a tag
_MEMBER_PARTS = ["rome", "new", "σας", "", "a.b", "x y", "york!", "Rome", "ΣΑΣ", "İ",
                 "<s>", "</s>", "<unk>", "CITY", "STOP"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_MEMBER_PARTS), min_size=1, max_size=3).map("_".join),
                min_size=1, max_size=6, unique=True))
def test_member_checks_in_bulk_match_one_check_per_part(members):
    # STOP's members come second, so a member part may spell either tag
    try:
        ClassLexicon({"CITY": ["oslo"], "STOP": members})
    except LexiconError as exc:
        got = str(exc)
    else:
        got = None
    assert got == _per_part_error("STOP", members, {"CITY", "STOP"})


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
    # punctuation only: no token, so no utterance
    ("...", True, False),
    ("City\t?!", False, False),
    ("Other\t. ,;", False, False),
    ("Date\t, at five", False, False),
    # a tab inside the text, line and paragraph separators that file reading
    # keeps inside a line (str.splitlines would break there)
    ("City\tfrom naples\tto rome", False, False),
    ("Other\tfrom a\u2028b", False, False),
    ("Time\tat\x1cfive", False, False),
    ("City \tfrom rome", True, False),
    ("Other\tfrom a>b", False, False),
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
    assert len(corpus) == len(rows) and corpus.nus == nus and all(nus)
    first = {}
    assert all(first.setdefault(nu, nu) is nu for nu in nus)
    first_row = {}
    assert all(first_row.setdefault(row, row) is row for row in corpus.rows)
    assert corpus.histogram == Counter(nus)
    assert corpus.group_histograms == {
        group: Counter(nu for g, nu in corpus.rows if g == group) for group, _ in corpus.rows}
    assert list(corpus.counts.items()) == [
        (row, corpus.rows.count(row)) for row in dict.fromkeys(corpus.rows)]


def test_read_nus_matches_label_nus_on_the_bundle(tmp_path, world):
    # thousands of distinct lines, whose punctuation is stripped a block of
    # lines at a time
    path = tmp_path / "corpus.tsv"
    write_labeled_corpus(path, world.labeled_rows)
    rows = label_nus(world.lexicon, read_corpus(path, True))
    corpus = read_nus(path, True, world.lexicon)
    assert len(corpus) == len(rows) and corpus.counts == Counter(rows)
    assert corpus.rows == rows


def test_corpus_shares_equal_rows_and_nus(tmp_path):
    # equal NUs in different groups, and one NU written two ways
    path = tmp_path / "corpus.tsv"
    path.write_text("City\tat five\nTime\tat five\nTime\tat  Five\nCity\tat five\n",
                    encoding="utf-8")
    for corpus in (read_nus(path, True, _READER_LEXICON),
                   Corpus([("City", ["at", "HOUR-NUMBER"]), ("Time", ("at", "HOUR-NUMBER")),
                           ("Time", ("at", "HOUR-NUMBER")), ("City", ["at", "HOUR-NUMBER"])])):
        city, time, time_again, city_again = corpus.rows
        assert city == ("City", ("at", "HOUR-NUMBER")) and time == ("Time", city[1])
        assert time_again is time and city_again is city and time[1] is city[1]
        assert corpus.nus == [city[1]] * 4 and all(nu is city[1] for nu in corpus.nus)
        assert list(corpus.counts.items()) == [(city, 2), (time, 2)]


def test_counted_views_build_no_rows(tmp_path):
    # the counts, the histograms and the size come from the tallies; the
    # ordered rows are built only when read
    path = tmp_path / "corpus.tsv"
    path.write_text("City\tto rome\nTime\tat five\n\nCity\tto Naples!\nDate\t...\n"
                    "City\tto new york\nOther\tat <unk>\n", encoding="utf-8")
    corpus = read_nus(path, True, _READER_LEXICON)
    city, time_, unk = (("City", ("to", "CITY-NAME")), ("Time", ("at", "HOUR-NUMBER")),
                        ("Other", ("at", "<unk>")))
    assert corpus.counts == {city: 3, time_: 1, unk: 1} and len(corpus) == 5
    assert corpus.histogram == {city[1]: 3, time_[1]: 1, unk[1]: 1}
    assert corpus.group_histograms == {"City": {city[1]: 3}, "Time": {time_[1]: 1},
                                       "Other": {unk[1]: 1}}
    assert "rows" not in vars(corpus) and "nus" not in vars(corpus)
    assert corpus.rows == [city, time_, city, city, unk]
    assert corpus.rows[0] is corpus.rows[2] is corpus.rows[3]


@pytest.mark.parametrize("reader", [read_corpus, read_nus])
def test_a_file_is_decoded_whole_before_its_lines_are_read(tmp_path, reader):
    # a bad line before undecodable bytes more than one read chunk later: the
    # file is decoded before any line is parsed, so the decode error comes first
    path = tmp_path / "corpus.tsv"
    where = re.escape(str(path))
    path.write_bytes(b"Weather\tsunny\n" + b"City\tto rome\n" * 5000 + b"City\tto \xff\n")
    with pytest.raises(CorpusError, match=f"^{where}: not UTF-8 text"):
        reader(path, True)
    path.write_bytes(b"Weather\tsunny\n" + b"City\tto rome\n" * 5000)
    with pytest.raises(CorpusError, match=f"^{where}:1: unknown request group 'Weather'"):
        reader(path, True)
