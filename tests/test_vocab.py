import os
import re

import pytest
from hypothesis import given, reject, settings, strategies as st

from classlm.errors import LexiconError
from classlm.vocab import ClassLexicon, load_lexicon


def write(tmp_path, text):
    path = tmp_path / "lexicon.lex"
    path.write_text(text, encoding="utf-8")
    return path


def test_load_two_classes(tmp_path):
    path = write(tmp_path, "CITY-NAME: naples rome\nWEEK-DAY: monday\n")
    lex = load_lexicon(path)
    assert len(lex.classes) == 2
    assert lex.classes["CITY-NAME"] == {"naples", "rome"}
    assert lex.classes["WEEK-DAY"] == {"monday"}


def test_load_skips_comments_and_blanks(tmp_path):
    path = write(tmp_path, "# header\n\nCITY-NAME: naples\n")
    assert load_lexicon(path).classes == {"CITY-NAME": frozenset({"naples"})}


def test_duplicate_word_names_both_classes(tmp_path):
    path = write(tmp_path, "CITY-NAME: naples rome\nRIVER-NAME: rome\n")
    with pytest.raises(LexiconError) as err:
        load_lexicon(path)
    message = str(err.value)
    assert "rome" in message
    assert "CITY-NAME" in message and "RIVER-NAME" in message


def test_empty_class_rejected(tmp_path):
    with pytest.raises(LexiconError, match="empty"):
        load_lexicon(write(tmp_path, "CITY-NAME:\n"))


def test_malformed_line_reports_line_number(tmp_path):
    with pytest.raises(LexiconError, match=":2:"):
        load_lexicon(write(tmp_path, "CITY-NAME: naples\nnot a class line\n"))


@pytest.mark.parametrize("text,message", [
    ("CITY-NAME: rome\nTOWN: <s>\n", "reserved tag '<s>' cannot be a member of class TOWN"),
    ("1: x\nA: 1\n", "word '1' in class A collides with a class tag"),
    # a normalized file spells the tag, and reading it back splits the tag
    ("CITY-NAME: rome\nst.name: oslo\n", "invalid class tag 'ST.NAME'"),
] + [  # members normalization never matches: tokenize splits or drops a part,
    # or a corpus reader rejects it
    (f"DAY: monday\nCITY: milan {member} rome\n",
     f"invalid member {member!r} in class CITY: normalization never matches {part!r}")
    for member, part in [("st.louis", "st.louis"), ("a:b", "a:b"), ("rome_", ""),
                         ("_rome", ""), ("new__york", ""), ("new_york!", "york!"),
                         ("at_<s>", "<s>"), ("</s>_rome", "</s>")]
])
def test_class_invariant_errors_name_the_line(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(LexiconError) as err:
        load_lexicon(path)
    assert str(err.value) == f"{path}:2: {message}"


# a capital the casing rule lowers; load_lexicon lowers members first
@pytest.mark.parametrize("member,part", [("Rome", "Rome"), ("new_York", "York")])
def test_member_the_casing_rule_changes_is_rejected(tmp_path, member, part):
    with pytest.raises(LexiconError, match=f"normalization never matches {part!r}"):
        ClassLexicon({"CITY": [member, "milan"]})
    assert load_lexicon(write(tmp_path, f"CITY: {member} milan\n")).class_size("CITY") == 2


def test_member_part_spelling_a_tag_is_kept():
    # a tag is read as written, so a member part spelling one still matches
    lexicon = ClassLexicon({"CITY": ["rome"], "STOP": ["via_CITY"]})
    assert lexicon.member_tag[("via", "CITY")] == "STOP"


_LEXICON_LINE = st.builds(
    "{}{} {}".format,
    st.sampled_from(["A", "b", "1", "<s>", "", "a b", "#"]),
    st.sampled_from([":", ""]),
    st.lists(st.sampled_from(["x", "1", "<S>", "<unk>", "x_y", "A"]), max_size=3).map(" ".join),
)


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(_LEXICON_LINE, max_size=5))
def test_every_lexicon_error_names_path_and_line(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("lex") / "lexicon.lex"
    path.write_text("\n".join(lines), encoding="utf-8")
    try:
        load_lexicon(path)
    except LexiconError as exc:
        assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)


def test_word_repeated_in_one_class_is_accepted(tmp_path):
    lex = load_lexicon(write(tmp_path, "CITY-NAME: rome rome\nWEEK-DAY: monday\n"))
    assert lex.classes["CITY-NAME"] == {"rome"}


def test_duplicate_class_rejected(tmp_path):
    with pytest.raises(LexiconError, match="duplicate"):
        load_lexicon(write(tmp_path, "A: x\nA: y\n"))


def test_empty_file_is_valid(tmp_path):
    lex = load_lexicon(write(tmp_path, "# nothing here\n"))
    assert lex.classes == {} and lex.member_tag == {}


def test_case_canonicalization(tmp_path):
    lex = load_lexicon(write(tmp_path, "city-name: Naples ROME\n"))
    assert lex.classes == {"CITY-NAME": frozenset({"naples", "rome"})}
    assert lex.member_tag == {("naples",): "CITY-NAME", ("rome",): "CITY-NAME"}


def test_member_tag(tiny_lexicon):
    assert tiny_lexicon.member_tag[("naples",)] == "CITY-NAME"
    assert ("from",) not in tiny_lexicon.member_tag
    assert ("zzz-unseen",) not in tiny_lexicon.member_tag


def test_class_size(tiny_lexicon, lexicon):
    assert tiny_lexicon.class_size("WEEK-DAY") == 2
    assert lexicon.class_size("CITY-NAME") == 3000
    with pytest.raises(LexiconError):
        tiny_lexicon.class_size("NO-SUCH-TAG")


def test_singleton_class_size():
    assert ClassLexicon({"X": {"only"}}).class_size("X") == 1


def test_membership_consistency(lexicon):
    # member_tag holds each member, split at "_", under its class and nothing else
    assert lexicon.member_tag == {tuple(word.split("_")): tag
                                  for tag, members in lexicon.classes.items()
                                  for word in members}
    total = sum(lexicon.class_size(tag) for tag in lexicon.classes)
    distinct = {w for members in lexicon.classes.values() for w in members}
    assert total == len(distinct)


def test_reserved_tags_rejected():
    with pytest.raises(LexiconError):
        ClassLexicon({"<s>": {"x"}})
    with pytest.raises(LexiconError):
        ClassLexicon({"X": {"<unk>"}})


def test_member_tag_collision_rejected():
    with pytest.raises(LexiconError):
        ClassLexicon({"A": {"b"}, "b": {"c"}})


def test_round_trip(tmp_path, lexicon):
    path = tmp_path / "out.lex"
    lexicon.save(path)
    assert load_lexicon(path) == lexicon
    # a second save is byte-identical
    path2 = tmp_path / "again.lex"
    load_lexicon(path).save(path2)
    assert path.read_bytes() == path2.read_bytes()


@st.composite
def _lexicons(draw):
    """Lexicons that ClassLexicon accepts, with tags and members that do and
    do not keep their spelling through a save and load: lower-case and
    non-ASCII tags, tags starting with '#' or a byte-order mark, and member
    parts spelling a tag."""
    tag = st.text("ABC-", min_size=1, max_size=3) | st.sampled_from(
        ["b", "Ab", "#A", "\ufeffA", "\u00df"])
    tags = draw(st.lists(tag, min_size=1, max_size=3, unique=True))
    member = st.lists(st.text("ab", min_size=1, max_size=2) | st.sampled_from(tags),
                      min_size=1, max_size=2).map("_".join)
    classes = {tag: draw(st.lists(member, min_size=1, max_size=3)) for tag in tags}
    try:
        return ClassLexicon(classes)
    except LexiconError:
        reject()


@settings(max_examples=100, deadline=None)
@given(lexicon=_lexicons())
def test_save_loads_back_equal_or_names_the_class(tmp_path_factory, lexicon):
    # the file format: one 'TAG: member ...' line per class, tags and
    # members sorted
    naive = "".join(f"{tag}: {' '.join(sorted(members))}\n"
                    for tag, members in sorted(lexicon.classes.items()))
    path = tmp_path_factory.mktemp("lex") / "lexicon.lex"
    path.write_text(naive, encoding="utf-8")
    try:
        loaded = load_lexicon(path)
    except LexiconError:
        loaded = None
    path.unlink()
    try:
        lexicon.save(path)
    except LexiconError as exc:
        assert loaded != lexicon
        assert exc.tag in lexicon.classes
        if loaded is not None:
            assert loaded.classes.get(exc.tag) != lexicon.classes[exc.tag]
        assert not path.exists()
    else:
        assert loaded == lexicon
        assert path.read_text(encoding="utf-8") == naive


def test_save_rejects_a_class_that_loads_as_another():
    # load_lexicon upper-cases tags and lower-cases members
    for classes, tag in [({"town": ["rome"]}, "town"),
                         ({"CITY": ["rome"], "STOP": ["via_CITY"]}, "STOP")]:
        with pytest.raises(LexiconError, match=f"class {tag} cannot be saved") as err:
            ClassLexicon(classes).save(os.devnull)
        assert err.value.tag == tag


def test_multiword_members(tiny_lexicon):
    assert tiny_lexicon.member_tag[("new", "york")] == "CITY-NAME"
    assert ("new",) not in tiny_lexicon.member_tag
    assert tiny_lexicon.member_lengths == {"new": [2]}
    # each first word once, its lengths longest first and each once
    lexicon = ClassLexicon({"C": {"a_b", "a_c", "a_a_b", "b", "b_b"}, "D": {"a_d"}})
    assert lexicon.member_lengths == {"a": [3, 2], "b": [2]}

