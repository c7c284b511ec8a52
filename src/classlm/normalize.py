"""Utterance normalization: class members become class tags.

A normalized utterance (NU) is a token tuple in which every maximal run of
tokens matching a class member has been replaced by the class tag. NUs are
the unit of identity for all frequency analyses. :func:`normalize` is the
one path from an utterance, text or tokens, to its NU: every token is
mapped through the lexicon's per-token memo
(:attr:`ClassLexicon.token_tag`), which cases each distinct raw token and
looks it up once per lexicon, and the greedy longest-match search runs only
for an utterance holding a token that may begin a multi-word member, trying
just the lengths of the members it begins
(:attr:`ClassLexicon.member_lengths`) against the one member table
(:attr:`ClassLexicon.member_tag`). The corpus readers and the grammar side
(:func:`normalize_sentences`) both go through it, and both split text with
:func:`classlm.vocab.tokenize` and reject a token spelling a boundary tag
through :func:`boundary_tag`: corpus lines here, grammar terminals in
:mod:`classlm.grammar`.

Corpus files, plain and labeled, are read and written here. :func:`read_nus`
reads a file in one pass into a :class:`Corpus`, the list of its (group, NU)
rows in corpus order: each distinct raw line is parsed, checked and
normalized once, and its repeats share its row, so the histograms that the
commands and the corpus studies read are each counted once per file from
that list. :func:`read_corpus` returns the raw (group, text) rows through
the same per-line parser; :func:`write_labeled_corpus` and
:func:`write_sentences` write the labeled and the plain form.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cached_property

from .errors import CorpusError, open_text
from .vocab import PUNCTUATION, SENT_END, SENT_START, ClassLexicon, tokenize

NU = tuple[str, ...]

# request groups of a labeled corpus
GROUPS = ("City", "Date", "Time", "Other")


def normalize(lexicon: ClassLexicon, utterance: str | Sequence[str]) -> NU:
    """Replace class members with their tags, greedy longest match first.

    Text is split by :func:`tokenize`. Each token is mapped through
    :attr:`ClassLexicon.token_tag`: unknown words pass through lowercased,
    existing tags pass through unchanged (which makes the function
    idempotent), one-word members become their tag. Only an utterance with
    a token that may begin a multi-word member runs the greedy search, which
    tries at such a token just the lengths of the members it begins.
    """
    tokens = tokenize(utterance) if isinstance(utterance, str) else tuple(utterance)
    tags = tuple(map(lexicon.token_tag.__getitem__, tokens))
    if None not in tags:
        return tags
    starts = lexicon.member_lengths
    member_tag = lexicon.member_tag
    cased = list(map(lexicon.cased, tokens))
    out: list[str] = []
    i = 0
    n = len(tags)
    while i < n:
        tag, length = tags[i], 1
        if tag is None:
            for length in starts[cased[i]]:
                if length <= n - i:
                    tag = member_tag.get(tuple(cased[i : i + length]))
                    if tag is not None:
                        break
            else:
                tag, length = member_tag.get((cased[i],), cased[i]), 1
        out.append(tag)
        i += length
    return tuple(out)


def normalize_sentences(
    lexicon: ClassLexicon, sentences: Iterable[Sequence[str]]
) -> list[NU]:
    """Sorted distinct NUs of the non-empty token sequences in ``sentences``."""
    return sorted({normalize(lexicon, s) for s in sentences if s})


def nu_histogram(corpus: Iterable[NU]) -> Counter:
    """Occurrence count per distinct NU; total equals the corpus size."""
    return Counter(map(tuple, corpus))


class Corpus:
    """The (group, NU) rows of one corpus, in corpus order.

    :attr:`rows` is the one list: equal rows are one shared tuple, and so
    are equal NUs. Every other view is derived from it on first use, once
    each. Plain corpora have group ``""``.

    Counting and scoring read :attr:`histogram` and
    :attr:`group_histograms`: a corpus's windows, and so its perplexity, do
    not depend on the order of its rows. Only training prefixes and first
    occurrences do, and they read :attr:`rows`.
    """

    def __init__(self, rows: Iterable[tuple[str, Sequence[str]]] = ()):
        self.rows: list[tuple[str, NU]] = []
        # each distinct row and NU -> its one tuple; a row (str, tuple)
        # never equals an NU, a tuple of str
        self._shared: dict = {}
        self.rows.extend(self._row(group, tuple(nu)) for group, nu in rows)

    def _row(self, group: str, nu: NU) -> tuple[str, NU]:
        """The shared tuple of the row (group, nu)."""
        nu = self._shared.setdefault(nu, nu)
        return self._shared.setdefault((group, nu), (group, nu))

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def nus(self) -> list[NU]:
        """NU per utterance, in corpus order."""
        return [nu for _, nu in self.rows]

    @cached_property
    def counts(self) -> dict[tuple[str, NU], int]:
        """Occurrences of each distinct row, in first-occurrence order."""
        return Counter(self.rows)

    @cached_property
    def histogram(self) -> dict[NU, int]:
        """Occurrences of each distinct NU, whatever its group."""
        histogram: dict[NU, int] = {}
        for (_, nu), count in self.counts.items():
            histogram[nu] = histogram.get(nu, 0) + count
        return histogram

    @cached_property
    def group_histograms(self) -> dict[str, dict[NU, int]]:
        """Occurrences of each distinct NU within each group."""
        histograms: dict[str, dict[NU, int]] = {}
        for (group, nu), count in self.counts.items():
            histograms.setdefault(group, {})[nu] = count
        return histograms


def boundary_tag(tokens: Iterable[str]) -> str | None:
    """The boundary tag, ``<s>`` before ``</s>``, that a token of ``tokens``
    spells in any case, or None.

    :func:`normalize` would keep such a token, counting a boundary
    mid-utterance, so the corpus readers and the grammar parser reject it;
    ``<unk>`` stays allowed.
    """
    spelled = {token.lower() for token in tokens}
    return next((tag for tag in (SENT_START, SENT_END) if tag in spelled), None)


def _parse_line(path, lineno: int, line: str, labeled: bool) -> tuple[str, str] | None:
    """The (group, text) row of one corpus line, or None if its text has no token.

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
    # one-character tests spare most lines the token scans
    if not text or (text[0] in PUNCTUATION and not tokenize(text)):
        return None
    tag = boundary_tag(tokenize(text)) if ">" in text else None
    if tag is not None:
        raise CorpusError(f"{path}:{lineno}: reserved tag {tag} in the text")
    return group, text


def read_corpus(path, labeled: bool = False) -> list[tuple[str, str]]:
    """(group, text) rows, one per line; the group is ``""`` for plain corpora.

    Labeled lines are ``group<TAB>text`` with a group from :data:`GROUPS`. In
    both formats a row whose text holds no token is skipped.
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
    memo: dict[str, tuple[str, NU]] = {}  # raw line -> its shared row
    append = corpus.rows.append
    with open_text(path, CorpusError) as fh:
        for lineno, line in enumerate(fh, start=1):
            row = memo.get(line)
            if row is None:
                parsed = _parse_line(path, lineno, line, labeled)
                if parsed is None:
                    continue
                group, text = parsed
                nu = tuple(text.split()) if lexicon is None else normalize(lexicon, text)
                row = memo[line] = corpus._row(group, nu)
            append(row)
    return corpus


def write_labeled_corpus(path, rows) -> None:
    """Write (group, text) rows as ``group<TAB>text`` lines; a token
    sequence is joined by spaces."""
    with open(path, "w", encoding="utf-8") as fh:
        for group, text in rows:
            text = text if isinstance(text, str) else " ".join(text)
            fh.write(f"{group}\t{text}\n")


def write_sentences(path, sentences: Iterable[NU]) -> None:
    """Write one sentence or NU per line, tokens joined by spaces."""
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sentences:
            fh.write(" ".join(sentence) + "\n")
