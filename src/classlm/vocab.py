"""Word classes and the class lexicon.

A lexicon maps class tags (``CITY-NAME``) to their member words. Member
words are replaced by their tag during normalization, and each tag emits its
members with equal probability when word-level scores are requested.

Lexicon file format (UTF-8): one class per line, ``TAG: member member ...``;
multi-word members are joined with ``_``; lines starting with ``#`` are
comments.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import LexiconError

SENT_START = "<s>"
SENT_END = "</s>"
UNK = "<unk>"
RESERVED = frozenset((SENT_START, SENT_END, UNK))


class ClassLexicon:
    """Immutable word-class inventory.

    Every word belongs to at most one class; class member sets are pairwise
    disjoint and non-empty, and tags, plain words, and the reserved boundary
    tags are pairwise disjoint as token strings.
    """

    def __init__(
        self,
        classes: Mapping[str, Iterable[str]],
        plain_words: Iterable[str] = (),
    ):
        self.classes: dict[str, frozenset[str]] = {
            tag: frozenset(members) for tag, members in classes.items()
        }
        self.plain_words: frozenset[str] = frozenset(plain_words)
        self._validate()
        # member word -> tag, plus word-tuple -> tag for multi-word matching
        self._tag_of: dict[str, str] = {}
        self._seq_tag: dict[tuple[str, ...], str] = {}
        self._max_member_words = 1
        for tag in sorted(self.classes):
            for member in self.classes[tag]:
                self._tag_of[member] = tag
                parts = tuple(member.split("_"))
                self._seq_tag[parts] = tag
                if len(parts) > self._max_member_words:
                    self._max_member_words = len(parts)

    def _validate(self) -> None:
        seen: dict[str, str] = {}
        for tag in sorted(self.classes):
            if not tag or tag.split() != [tag]:
                raise LexiconError(f"invalid class tag {tag!r}")
            if tag in RESERVED:
                raise LexiconError(f"class tag {tag!r} collides with a reserved tag")
            members = self.classes[tag]
            if not members:
                raise LexiconError(f"class {tag} is empty")
            for word in members:
                if not word or word.split() != [word]:
                    raise LexiconError(f"invalid member {word!r} in class {tag}")
                if word in RESERVED:
                    raise LexiconError(
                        f"reserved tag {word!r} cannot be a member of class {tag}"
                    )
                if word in self.classes:
                    raise LexiconError(
                        f"word {word!r} in class {tag} collides with a class tag"
                    )
                if word in seen:
                    raise LexiconError(
                        f"word {word!r} appears in classes {seen[word]} and {tag}"
                    )
                seen[word] = tag
        for word in self.plain_words:
            if word in RESERVED or word in self.classes:
                raise LexiconError(f"plain word {word!r} collides with a tag")
            if word in seen:
                raise LexiconError(
                    f"plain word {word!r} is already a member of class {seen[word]}"
                )

    @property
    def tags(self) -> frozenset[str]:
        return frozenset(self.classes)

    def class_of(self, word: str) -> str | None:
        """Tag of the class containing ``word``, or None for plain/unknown words."""
        return self._tag_of.get(word.lower())

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

    def is_token(self, token: str) -> bool:
        """True if the token is a tag, a plain word, or a reserved tag."""
        return token in self.classes or token in self.plain_words or token in RESERVED

    def with_plain_words(self, words: Iterable[str]) -> "ClassLexicon":
        """New lexicon with additional plain (classless) words registered."""
        return ClassLexicon(self.classes, self.plain_words | frozenset(words))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassLexicon):
            return NotImplemented
        return self.classes == other.classes and self.plain_words == other.plain_words

    def __repr__(self) -> str:
        return (
            f"ClassLexicon({len(self.classes)} classes, "
            f"{len(self._tag_of)} classed words)"
        )

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for tag in sorted(self.classes):
                members = " ".join(sorted(self.classes[tag]))
                fh.write(f"{tag}: {members}\n")


def load_lexicon(path) -> ClassLexicon:
    """Parse a lexicon file.

    Tags are uppercased and member words lowercased on load. Raises
    :class:`LexiconError` (with the offending line number) on malformed
    lines, duplicate classes, duplicate members, or empty classes.
    """
    classes: dict[str, list[str]] = {}
    owner: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if ":" not in line:
                raise LexiconError(f"{path}:{lineno}: expected 'TAG: member ...'")
            tag_part, _, member_part = line.partition(":")
            tag = tag_part.strip().upper()
            if not tag or len(tag.split()) != 1:
                raise LexiconError(f"{path}:{lineno}: invalid class tag {tag_part.strip()!r}")
            if tag in classes:
                raise LexiconError(f"{path}:{lineno}: duplicate class {tag}")
            members = [w.lower() for w in member_part.split()]
            if not members:
                raise LexiconError(f"{path}:{lineno}: class {tag} is empty")
            for word in members:
                if word in owner and owner[word] != tag:
                    raise LexiconError(
                        f"{path}:{lineno}: word {word!r} appears in classes "
                        f"{owner[word]} and {tag}"
                    )
                owner[word] = tag
            classes[tag] = members
    try:
        return ClassLexicon(classes)
    except LexiconError as exc:
        raise LexiconError(f"{path}: {exc}") from exc

