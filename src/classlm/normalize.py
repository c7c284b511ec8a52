"""Utterance normalization: class members become class tags.

A normalized utterance (NU) is a token tuple in which every maximal run of
tokens matching a class member has been replaced by the class tag. NUs are
the unit of identity for all frequency analyses.

Corpus files, plain and labeled, are read here too (:func:`read_corpus`).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence

from .errors import CorpusError, open_text
from .vocab import RESERVED, SENT_END, SENT_START, ClassLexicon

NU = tuple[str, ...]

# request groups of a labeled corpus
GROUPS = ("City", "Date", "Time", "Other")

_PUNCT = str.maketrans({c: " " for c in ".,;:!?"})


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization after stripping sentence punctuation.

    Case is preserved here; :func:`normalize` lowercases everything that is
    not a known class tag or reserved tag.
    """
    return text.translate(_PUNCT).split()


def normalize(lexicon: ClassLexicon, utterance: str | Sequence[str]) -> NU:
    """Replace class members with their tags, greedy longest match first.

    Unknown words pass through lowercased; existing tags pass through
    unchanged, which makes the function idempotent.
    """
    tokens = tokenize(utterance) if isinstance(utterance, str) else list(utterance)
    cased = [
        t if (t in lexicon.classes or t in RESERVED) else t.lower() for t in tokens
    ]
    out: list[str] = []
    i = 0
    n = len(cased)
    while i < n:
        token = cased[i]
        if token in lexicon.classes or token in RESERVED:
            out.append(token)
            i += 1
            continue
        matched = False
        max_len = min(lexicon.max_member_words, n - i)
        for length in range(max_len, 0, -1):
            tag = lexicon.tag_for_sequence(tuple(cased[i : i + length]))
            if tag is not None:
                out.append(tag)
                i += length
                matched = True
                break
        if not matched:
            out.append(token)
            i += 1
    return tuple(out)


def nu_histogram(corpus: Iterable[NU]) -> Counter:
    """Occurrence count per distinct NU; total equals the corpus size."""
    return Counter(tuple(nu) for nu in corpus)


def reject_boundary_tags(path, lineno: int, text: str) -> None:
    """Raise :class:`CorpusError` if raw text spells ``<s>`` or ``</s>``.

    :func:`normalize` would keep the tag, counting a boundary mid-utterance.
    Readers call this only for text containing ">", so most lines cost one
    character search; ``<unk>`` stays allowed.
    """
    tokens = {token.lower() for token in tokenize(text)}
    for tag in (SENT_START, SENT_END):
        if tag in tokens:
            raise CorpusError(f"{path}:{lineno}: reserved tag {tag} in the text")


def read_corpus(path, labeled: bool = False) -> list[tuple[str, str]]:
    """(group, text) rows, one per line; the group is ``""`` for plain corpora.

    Labeled lines are ``group<TAB>text`` with a group from :data:`GROUPS`. In
    both formats a row whose text is blank is skipped.
    """
    rows = []
    with open_text(path, CorpusError) as fh:
        for lineno, line in enumerate(fh, start=1):
            group = ""
            if labeled and line.strip():
                if "\t" not in line:
                    raise CorpusError(f"{path}:{lineno}: expected 'group<TAB>utterance'")
                group, _, line = line.partition("\t")
                if group not in GROUPS:
                    raise CorpusError(
                        f"{path}:{lineno}: unknown request group {group!r} "
                        f"(expected one of {', '.join(GROUPS)})"
                    )
            text = line.strip()
            if text:
                if ">" in text:
                    reject_boundary_tags(path, lineno, text)
                rows.append((group, text))
    return rows


def write_nu_corpus(path, nus: Iterable[NU]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for nu in nus:
            fh.write(" ".join(nu) + "\n")
