"""Word classes and the class lexicon.

A lexicon maps class tags (``CITY-NAME``) to their member words. Member
words are replaced by their tag during normalization, and each tag emits its
members with equal probability when word-level scores are requested.

Lexicon file format (UTF-8): one class per line, ``TAG: member member ...``;
multi-word members are joined with ``_``; lines starting with ``#`` are
comments.
"""

from __future__ import annotations

from collections.abc import Collection, Container, Iterable, Mapping

from .errors import LexiconError, open_text

SENT_START = "<s>"
SENT_END = "</s>"
UNK = "<unk>"
RESERVED = frozenset((SENT_START, SENT_END, UNK))


class ClassLexicon:
    """Immutable word-class inventory.

    Every word belongs to at most one class; class member sets are pairwise
    disjoint and non-empty, and member words, tags and the reserved boundary
    tags are pairwise disjoint as token strings.
    """

    def __init__(self, classes: Mapping[str, Iterable[str]]):
        self.classes: dict[str, frozenset[str]] = {}
        seen: dict[str, str] = {}
        for tag, members in classes.items():
            members = tuple(members)
            check_class(tag, members, classes, seen)
            self.classes[tag] = frozenset(members)
        # member split at "_" -> tag; one-word members are 1-tuples
        self._seq_tag: dict[tuple[str, ...], str] = {}
        self._max_member_words = 1
        for tag in sorted(self.classes):
            for member in self.classes[tag]:
                parts = tuple(member.split("_"))
                self._seq_tag[parts] = tag
                if len(parts) > self._max_member_words:
                    self._max_member_words = len(parts)
        # one-word member -> tag, and the first word of every multi-word
        # member: a match longer than one token can only start at one of these
        self.word_tag = {parts[0]: tag for parts, tag in self._seq_tag.items()
                         if len(parts) == 1}
        self.multi_word_starts = frozenset(
            parts[0] for parts in self._seq_tag if len(parts) > 1)
        # tokens normalization keeps as written: tags and reserved tags
        self.verbatim = frozenset(self.classes) | RESERVED

    @property
    def tags(self) -> frozenset[str]:
        return frozenset(self.classes)

    def class_of(self, word: str) -> str | None:
        """Tag of the class containing ``word``, or None for classless words."""
        return self._seq_tag.get(tuple(word.lower().split("_")))

    def class_size(self, tag: str) -> int:
        if tag not in self.classes:
            raise LexiconError(f"unknown class tag {tag!r}")
        return len(self.classes[tag])

    def tag_for_sequence(self, words: tuple[str, ...]) -> str | None:
        """Tag matching a multi-word member written as consecutive tokens."""
        return self._seq_tag.get(words)

    @property
    def max_member_words(self) -> int:
        return self._max_member_words

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassLexicon):
            return NotImplemented
        return self.classes == other.classes

    def __repr__(self) -> str:
        return (
            f"ClassLexicon({len(self.classes)} classes, "
            f"{len(self._seq_tag)} classed words)"
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tag in sorted(self.classes):
                members = " ".join(sorted(self.classes[tag]))
                fh.write(f"{tag}: {members}\n")


def check_class(
    tag: str, members: Collection[str], tags: Container[str], seen: dict[str, str]
) -> None:
    """Raise a :class:`LexiconError` carrying ``tag`` if the class is invalid.

    ``tags`` holds every tag of the lexicon; ``seen`` maps the members of the
    classes checked so far to their class, and gains this class's members.
    """
    if not tag or tag.split() != [tag]:
        raise LexiconError(f"invalid class tag {tag!r}", tag)
    if tag in RESERVED:
        raise LexiconError(f"class tag {tag!r} collides with a reserved tag", tag)
    if not members:
        raise LexiconError(f"class {tag} is empty", tag)
    for word in members:
        if not word or word.split() != [word]:
            raise LexiconError(f"invalid member {word!r} in class {tag}", tag)
        if word in RESERVED:
            raise LexiconError(f"reserved tag {word!r} cannot be a member of class {tag}", tag)
        if word in tags:
            raise LexiconError(f"word {word!r} in class {tag} collides with a class tag", tag)
        if seen.setdefault(word, tag) != tag:
            raise LexiconError(f"word {word!r} appears in classes {seen[word]} and {tag}", tag)


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
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise LexiconError(f"{path}:{lineno}: expected 'TAG: member ...'")
            tag_part, _, member_part = line.partition(":")
            tag = tag_part.strip().upper()
            if tag in classes:
                raise LexiconError(f"{path}:{lineno}: duplicate class {tag}")
            classes[tag] = [w.lower() for w in member_part.split()]
            line_of[tag] = lineno
    try:
        return ClassLexicon(classes)
    except LexiconError as exc:
        raise LexiconError(f"{path}:{line_of[exc.tag]}: {exc}") from exc
