from collections import Counter

from hypothesis import given, settings, strategies as st

from classlm.normalize import normalize, nu_histogram, tokenize
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


_PARTS = ["new", "york", "san", "jose", "rome", "x"]
_TAGS = ["CITY", "DAY", "X"]


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
        classes.setdefault(tag, []).append(member)
    return ClassLexicon(classes)


# member parts, tags and reserved tags in any case, and a joined member as one token
_TOKENS = st.tuples(
    st.sampled_from(_PARTS + _TAGS + ["<s>", "</s>", "<unk>", "new_york", "from"]),
    st.sampled_from([str, str.upper, str.title]),
).map(lambda pair: pair[1](pair[0]))


@settings(max_examples=300, deadline=None)
@given(lexicons(), st.lists(_TOKENS, max_size=10))
def test_normalize_matches_naive_oracle(lex, tokens):
    assert normalize(lex, tokens) == oracle.naive_normalize(lex, tokens)
    text = " ".join(tokens)
    assert normalize(lex, text) == oracle.naive_normalize(lex, text)


def test_normalize_matches_naive_oracle_on_synthetic_corpus(world, lexicon):
    for _, text in world.labeled_rows[:2000]:
        assert normalize(lexicon, text) == oracle.naive_normalize(lexicon, text)
