"""Utterance normalization: class members become class tags.

A normalized utterance (NU) is a token tuple in which every maximal run of
tokens matching a class member has been replaced by the class tag. NUs are
the unit of identity for all frequency analyses. One-word members, usually
nearly all of a lexicon, are replaced through one dict map
(:attr:`ClassLexicon.word_tag`); the greedy longest-match search runs only
on a line with a token that begins a multi-word member
(:attr:`ClassLexicon.multi_word_starts`), and only at such tokens.
:func:`normalize_sentences` maps each distinct token of a sentence set once.

Corpus files, plain and labeled, are read here too. :func:`read_nus` reads
a file in one pass into a :class:`Corpus`: each distinct raw line is parsed,
checked and normalized once, and each distinct (group, NU) row is stored
once with its first row index, so the histograms and per-group lists that
the commands and the corpus studies read are each counted once per file.
:func:`read_corpus` returns the raw (group, text) rows through the same
per-line parser.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cached_property

from .errors import CorpusError, open_text
from .vocab import SENT_END, SENT_START, ClassLexicon

NU = tuple[str, ...]

# request groups of a labeled corpus
GROUPS = ("City", "Date", "Time", "Other")

_PUNCT = re.compile("[.,;:!?]")


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization after stripping sentence punctuation.

    Case is preserved here; :func:`normalize` lowercases everything that is
    not a known class tag or reserved tag.
    """
    return _PUNCT.sub(" ", text).split()


def normalize(lexicon: ClassLexicon, utterance: str | Sequence[str]) -> NU:
    """Replace class members with their tags, greedy longest match first.

    Unknown words pass through lowercased; existing tags pass through
    unchanged, which makes the function idempotent. A match longer than one
    token is tried only at a token that begins a multi-word member.
    """
    verbatim = lexicon.verbatim
    if isinstance(utterance, str):
        # whitespace lowercases to itself and bounds every case context, so
        # the lowered line splits into the lowered tokens
        stripped = _PUNCT.sub(" ", utterance)
        lowered = stripped.lower()
        cased = lowered.split()
        if lowered != stripped:
            tokens = stripped.split()
            if not verbatim.isdisjoint(tokens):
                cased = [t if t in verbatim else c for t, c in zip(tokens, cased)]
    else:
        cased = [t if t in verbatim else t.lower() for t in utterance]
    word_tag = lexicon.word_tag
    starts = lexicon.multi_word_starts
    if starts.isdisjoint(cased):
        return tuple(map(word_tag.get, cased, cased))
    out: list[str] = []
    i = 0
    n = len(cased)
    while i < n:
        token = cased[i]
        tag = None
        if token in starts and token not in verbatim:
            for length in range(min(lexicon.max_member_words, n - i), 1, -1):
                tag = lexicon.tag_for_sequence(tuple(cased[i : i + length]))
                if tag is not None:
                    break
        if tag is None:
            tag, length = word_tag.get(token, token), 1
        out.append(tag)
        i += length
    return tuple(out)


def normalize_sentences(
    lexicon: ClassLexicon, sentences: Iterable[Sequence[str]]
) -> list[NU]:
    """Sorted distinct NUs of the non-empty token sequences in ``sentences``.

    Equals ``sorted({normalize(lexicon, s) for s in sentences if s})``. Each
    distinct token is cased and mapped through :attr:`ClassLexicon.word_tag`
    once per call, as :func:`normalize` does for a token sequence; a sentence
    holding a token that begins a multi-word member goes through
    :func:`normalize` itself.
    """
    sentences = [s for s in sentences if s]
    verbatim = lexicon.verbatim
    word_tag = lexicon.word_tag
    starts = lexicon.multi_word_starts
    tag_of: dict[str, str] = {}
    greedy: set[str] = set()  # tokens that begin a multi-word member once cased
    for token in set().union(*sentences):
        cased = token if token in verbatim else token.lower()
        tag_of[token] = word_tag.get(cased, cased)
        if cased in starts:
            greedy.add(token)
    tag = tag_of.__getitem__
    return sorted({tuple(map(tag, s)) if greedy.isdisjoint(s) else normalize(lexicon, s)
                   for s in sentences})


def nu_histogram(corpus: Iterable[NU]) -> Counter:
    """Occurrence count per distinct NU; total equals the corpus size."""
    return Counter(map(tuple, corpus))


def by_group(labeled: Iterable[tuple[str, NU]]) -> dict[str, list[NU]]:
    """Each group's NUs, in corpus order."""
    grouped: dict[str, list[NU]] = {}
    for group, nu in labeled:
        grouped.setdefault(group, []).append(nu)
    return grouped


class Corpus:
    """The (group, NU) rows of one corpus, each distinct row stored once.

    :attr:`pairs` holds the distinct rows in first-occurrence order and
    :attr:`firsts` the index of the row where each first occurs;
    :attr:`slots` holds, for every row in corpus order, its position in
    ``pairs``. Equal NUs are one shared tuple. The views below are built
    from these on first use, once each. Plain corpora have group ``""``.
    """

    def __init__(self, rows: Iterable[tuple[str, Sequence[str]]] = ()):
        self.pairs: list[tuple[str, NU]] = []
        self.firsts: list[int] = []
        self.slots: list[int] = []
        self._slot_of: dict[tuple[str, NU], int] = {}
        self._canon: dict[NU, NU] = {}
        for group, nu in rows:
            self.slots.append(self._slot(group, tuple(nu)))

    def _slot(self, group: str, nu: NU) -> int:
        """Position of the row (group, nu) in :attr:`pairs`; a new row is
        added as first occurring at the next row index."""
        key = (group, nu)
        slot = self._slot_of.get(key)
        if slot is None:
            slot = self._slot_of[key] = len(self.pairs)
            self.pairs.append((group, self._canon.setdefault(nu, nu)))
            self.firsts.append(len(self.slots))
        return slot

    def __len__(self) -> int:
        return len(self.slots)

    @cached_property
    def rows(self) -> list[tuple[str, NU]]:
        """(group, NU) per utterance, in corpus order."""
        return list(map(self.pairs.__getitem__, self.slots))

    @cached_property
    def nus(self) -> list[NU]:
        """NU per utterance, in corpus order."""
        return list(map([nu for _, nu in self.pairs].__getitem__, self.slots))

    @cached_property
    def counts(self) -> list[int]:
        """Occurrences of each distinct row, aligned with :attr:`pairs`."""
        counts = [0] * len(self.pairs)
        for slot in self.slots:
            counts[slot] += 1
        return counts

    @cached_property
    def histogram(self) -> dict[NU, int]:
        """Occurrences of each distinct NU, whatever its group."""
        histogram: dict[NU, int] = {}
        for (_, nu), count in zip(self.pairs, self.counts):
            histogram[nu] = histogram.get(nu, 0) + count
        return histogram

    @cached_property
    def groups(self) -> dict[str, list[NU]]:
        """Each group's NUs, in corpus order."""
        return by_group(self.rows)

    @cached_property
    def group_histograms(self) -> dict[str, dict[NU, int]]:
        """Occurrences of each distinct NU within each group."""
        histograms: dict[str, dict[NU, int]] = {}
        for (group, nu), count in zip(self.pairs, self.counts):
            histograms.setdefault(group, {})[nu] = count
        return histograms


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


def _parse_line(path, lineno: int, line: str, labeled: bool) -> tuple[str, str] | None:
    """The (group, text) row of one corpus line, or None if its text is blank.

    Labeled lines are ``group<TAB>text`` with a group from :data:`GROUPS`;
    the group is ``""`` for plain corpora.
    """
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
    if not text:
        return None
    if ">" in text:
        reject_boundary_tags(path, lineno, text)
    return group, text


def read_corpus(path, labeled: bool = False) -> list[tuple[str, str]]:
    """(group, text) rows, one per line; the group is ``""`` for plain corpora.

    Labeled lines are ``group<TAB>text`` with a group from :data:`GROUPS`. In
    both formats a row whose text is blank is skipped.
    """
    rows = []
    with open_text(path, CorpusError) as fh:
        for lineno, line in enumerate(fh, start=1):
            row = _parse_line(path, lineno, line, labeled)
            if row is not None:
                rows.append(row)
    return rows


def read_nus(path, labeled: bool = False, lexicon: ClassLexicon | None = None) -> Corpus:
    """The :class:`Corpus` of a corpus file, read in one pass.

    Rows are those of :func:`read_corpus`, with the text normalized through
    ``lexicon``; without one the text is taken as already normalized and
    only split (normalizing it again would lowercase its class tags). A raw
    line is parsed and normalized at its first occurrence only, so an error
    names the first bad line.
    """
    corpus = Corpus()
    memo: dict[str, int] = {}  # raw line -> its row's slot
    append = corpus.slots.append
    with open_text(path, CorpusError) as fh:
        for lineno, line in enumerate(fh, start=1):
            slot = memo.get(line)
            if slot is None:
                row = _parse_line(path, lineno, line, labeled)
                if row is None:
                    continue
                group, text = row
                nu = tuple(text.split()) if lexicon is None else normalize(lexicon, text)
                slot = memo[line] = corpus._slot(group, nu)
            append(slot)
    return corpus
