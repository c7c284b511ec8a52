import re

import pytest
from hypothesis import given, settings, strategies as st

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
])
def test_class_invariant_errors_name_the_line(tmp_path, text, message):
    path = write(tmp_path, text)
    with pytest.raises(LexiconError) as err:
        load_lexicon(path)
    assert str(err.value) == f"{path}:2: {message}"


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
    assert lex.classes == {}
    assert lex.class_of("anything") is None


def test_case_canonicalization(tmp_path):
    lex = load_lexicon(write(tmp_path, "city-name: Naples ROME\n"))
    assert lex.classes == {"CITY-NAME": frozenset({"naples", "rome"})}
    assert lex.class_of("NAPLES") == "CITY-NAME"


def test_class_of(tiny_lexicon):
    assert tiny_lexicon.class_of("naples") == "CITY-NAME"
    assert tiny_lexicon.class_of("from") is None
    assert tiny_lexicon.class_of("zzz-unseen") is None


def test_class_size(tiny_lexicon, lexicon):
    assert tiny_lexicon.class_size("WEEK-DAY") == 2
    assert lexicon.class_size("CITY-NAME") == 3000
    with pytest.raises(LexiconError):
        tiny_lexicon.class_size("NO-SUCH-TAG")


def test_singleton_class_size():
    assert ClassLexicon({"X": {"only"}}).class_size("X") == 1


def test_membership_consistency(lexicon):
    # class_of(w) != none implies w is a member of that class
    for tag, members in lexicon.classes.items():
        for word in members:
            assert lexicon.class_of(word) == tag
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


def test_multiword_members(tiny_lexicon):
    assert tiny_lexicon.tag_for_sequence(("new", "york")) == "CITY-NAME"
    assert tiny_lexicon.tag_for_sequence(("new",)) is None
    assert tiny_lexicon.max_member_words == 2
    assert tiny_lexicon.class_of("new_york") == "CITY-NAME"

