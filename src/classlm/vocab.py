"""Word classes and the class lexicon.

A lexicon maps class tags (``CITY-NAME``) to their member words. Member
words are replaced by their tag during normalization, and each tag emits its
members with equal probability when word-level scores are requested.
:class:`ClassLexicon` owns the token decisions of normalization: one
casing rule (:meth:`ClassLexicon.cased`), one member table
(:attr:`ClassLexicon.member_tag`) and the per-token memo built from them
(:attr:`ClassLexicon.token_tag`).

Lexicon file format (UTF-8): one class per line, ``TAG: member member ...``;
multi-word members are joined with ``_``; lines starting with ``#`` are
comments. A tag, and each ``_``-separated part of a member, must be one
token that normalization reads as written (:func:`check_class`).
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterable, Mapping

from .errors import LexiconError, open_text

SENT_START = "<s>"
SENT_END = "</s>"
UNK = "<unk>"
RESERVED = frozenset((SENT_START, SENT_END, UNK))

PUNCTUATION = ".,;:!?"  # sentence punctuation, which tokenize drops
_PUNCT = re.compile(f"[{PUNCTUATION}]")
# the same rule as a str.translate table: cheaper than the pattern over
# many lines joined at once, dearer per line
UNPUNCTUATE = str.maketrans(PUNCTUATION, " " * len(PUNCTUATION))


def tokenize(text: str) -> list[str]:
    """Whitespace tokens of ``text`` after stripping sentence punctuation;
    case is kept."""
    return _PUNCT.sub(" ", text).split()


class ClassLexicon:
    """Immutable word-class inventory.

    Every word belongs to at most one class; class member sets are pairwise
    disjoint and non-empty, and member words, tags and the reserved boundary
    tags are pairwise disjoint as token strings.

    :attr:`member_tag` is the one member table: each member's words (the
    member split at ``_``, one-word members as 1-tuples) -> its tag.
    :attr:`token_tag` maps a raw token to the tag normalization gives it on
    its own (:meth:`cased`, then :attr:`member_tag`), or to None where the
    cased token may begin a multi-word member. It is a cache of a pure
    function of the classes, holding one entry per distinct raw token seen
    and filled on first sight; no result depends on what it holds.
    """

    def __init__(self, classes: Mapping[str, Iterable[str]]):
        self.tags = frozenset(classes)
        # tokens normalization keeps as written: tags and reserved tags
        self.verbatim = self.tags | RESERVED
        self.classes: dict[str, frozenset[str]] = {}
        seen: dict[str, str] = {}
        for tag, members in classes.items():
            members = tuple(members)
            check_class(tag, members, self, seen)
            self.classes[tag] = frozenset(members)
        self.member_tag: dict[tuple[str, ...], str] = {
            tuple(member.split("_")): tag
            for tag, members in self.classes.items() for member in members
        }
        # the first word of every multi-word member -> the lengths of those
        # members, longest first: a match longer than one token starts at
        # such a word and has such a length
        starts = {(len(words), words[0]) for words in self.member_tag if len(words) > 1}
        self.member_lengths: dict[str, list[int]] = {}
        for length, word in sorted(starts, reverse=True):
            self.member_lengths.setdefault(word, []).append(length)
        self.token_tag = _TokenTags(self)

    def cased(self, token: str) -> str:
        """``token`` as normalization reads it: tags and reserved tags as
        written, any other token lowercased."""
        return token if token in self.verbatim else token.lower()

    def class_size(self, tag: str) -> int:
        if tag not in self.classes:
            raise LexiconError(f"unknown class tag {tag!r}")
        return len(self.classes[tag])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassLexicon):
            return NotImplemented
        return self.classes == other.classes

    def __repr__(self) -> str:
        return (
            f"ClassLexicon({len(self.classes)} classes, "
            f"{len(self.member_tag)} classed words)"
        )

    def save(self, path) -> None:
        """Write the lexicon file that :func:`load_lexicon` reads back equal.

        Raises :class:`LexiconError` carrying the tag, and writes nothing, if
        a class's line would read back otherwise: a tag that is not upper
        case or that starts with ``#`` (or, on the first line, a byte-order
        mark), or a member that is not lower case.
        """
        lines = []
        for tag in sorted(self.classes):
            members = sorted(self.classes[tag])
            line = f"{tag}: {' '.join(members)}"
            if _read_class(line) != (tag, members) or (not lines and tag[0] == "\ufeff"):
                raise LexiconError(
                    f"class {tag} cannot be saved: its line would not load back as this class", tag)
            lines.append(line + "\n")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


class _TokenTags(dict):
    """Raw token -> its tag on its own, or None where, cased, it may begin a
    multi-word member; each entry is computed at the token's first lookup."""

    def __init__(self, lexicon: ClassLexicon):
        self.lexicon = lexicon

    def __missing__(self, token: str) -> str | None:
        lexicon = self.lexicon
        cased = lexicon.cased(token)
        starts = cased in lexicon.member_lengths and cased not in lexicon.verbatim
        tag = self[token] = None if starts else lexicon.member_tag.get((cased,), cased)
        return tag


def check_class(
    tag: str, members: Collection[str], lexicon: ClassLexicon, seen: dict[str, str]
) -> None:
    """Raise a :class:`LexiconError` carrying ``tag`` if the class is invalid.

    ``lexicon`` is the lexicon being built, its tags set; ``seen`` maps the
    members of the classes checked so far to their class, and gains this
    class's members. A tag that :func:`tokenize` changes, and a member part
    that it or :meth:`ClassLexicon.cased` changes or that spells a boundary
    tag, which corpus text and grammar terminals reject, are invalid:
    normalization never reads them back.
    """
    if tokenize(tag) != [tag]:
        raise LexiconError(f"invalid class tag {tag!r}", tag)
    if tag in RESERVED:
        raise LexiconError(f"class tag {tag!r} collides with a reserved tag", tag)
    if not members:
        raise LexiconError(f"class {tag} is empty", tag)
    # every part checked at once: tokenize and lower() treat each
    # space-joined part on its own, so a bad part fails the joined check,
    # and the loop below then names it (a part spelling a tag fails lower()
    # without being bad, and the loop passes it)
    parts = [part for word in members for part in word.split("_")]
    joined = " ".join(parts)
    parts_valid = (tokenize(joined) == parts and joined.lower() == joined
                   and SENT_START not in parts and SENT_END not in parts)
    for word in members:
        if word in RESERVED:
            raise LexiconError(f"reserved tag {word!r} cannot be a member of class {tag}", tag)
        for part in () if parts_valid else word.split("_"):
            if (tokenize(part) != [part] or lexicon.cased(part) != part
                    or part in (SENT_START, SENT_END)):
                raise LexiconError(
                    f"invalid member {word!r} in class {tag}: normalization never "
                    f"matches {part!r}", tag)
        if word in lexicon.tags:
            raise LexiconError(f"word {word!r} in class {tag} collides with a class tag", tag)
        if seen.setdefault(word, tag) != tag:
            raise LexiconError(f"word {word!r} appears in classes {seen[word]} and {tag}", tag)


def _read_class(line: str) -> tuple[str, list[str]] | None:
    """The tag, upper-cased, and the members, lower-cased, of one lexicon
    file line; None for a blank or comment line, ValueError without a ``:``."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    if ":" not in line:
        raise ValueError(line)
    tag_part, _, member_part = line.partition(":")
    return tag_part.strip().upper(), [w.lower() for w in member_part.split()]


def load_lexicon(path) -> ClassLexicon:
    """Parse a lexicon file.

    Tags are uppercased and member words lowercased on load. Raises
    :class:`LexiconError`, prefixed with the path and line number, on
    malformed lines, duplicate classes, and classes that fail
    :func:`check_class` (run by :class:`ClassLexicon`, in file order).
    """
    classes: dict[str, list[str]] = {}
    line_of: dict[str, int] = {}
    with open_text(path, LexiconError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                read = _read_class(raw)
            except ValueError:
                raise LexiconError(f"{path}:{lineno}: expected 'TAG: member ...'") from None
            if read is None:
                continue
            tag, members = read
            if tag in classes:
                raise LexiconError(f"{path}:{lineno}: duplicate class {tag}")
            classes[tag] = members
            line_of[tag] = lineno
    try:
        return ClassLexicon(classes)
    except LexiconError as exc:
        raise LexiconError(f"{path}:{line_of[exc.tag]}: {exc}") from exc
