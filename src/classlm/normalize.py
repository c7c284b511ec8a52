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
(:attr:`ClassLexicon.member_tag`). The grammar side, one call per terminal
(:mod:`classlm.generalize`), goes through it, and so does every corpus
line with a token that may begin a multi-word member; :func:`read_nus`
maps the tokens of any other line through the same memo itself, which is
all that :func:`normalize` would do with them. Both sides split text by the
rule of :func:`classlm.vocab.tokenize` and reject a token spelling a
boundary tag through :func:`boundary_tag`: corpus lines here, grammar
terminals in :mod:`classlm.grammar`.

Corpus files, plain and labeled, are read and written here.
:func:`read_nus` is the one corpus reader: it decodes the whole file and
reads each distinct line once, through one loop body that checks its group,
splits it, rejects a boundary tag and normalizes it, mapping the line to
the index of its (group, NU) row. A :class:`Corpus` is those distinct rows
and the row index of each utterance; :func:`index_rows` builds one from a
list of rows. The histograms that the commands and the corpus studies read
come from the row counts, and the rows in corpus order are listed only for
a caller that asks for them. :func:`write_labeled_corpus` and
:func:`write_sentences` write the labeled and the plain form.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from .errors import CorpusError, open_text
from .vocab import SENT_END, SENT_START, UNPUNCTUATE, ClassLexicon, tokenize

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


def nu_histogram(corpus: Iterable[NU]) -> Counter:
    """Occurrence count per distinct NU; total equals the corpus size."""
    return Counter(map(tuple, corpus))


class Corpus:
    """The (group, NU) rows of one corpus: its distinct rows and one row
    index per utterance.

    :attr:`counts` maps each distinct row to its occurrences in
    first-occurrence order (equal NUs are one shared tuple), and
    :attr:`order` holds the index of each utterance's row, so its indices
    first occur in ascending order; the constructor takes both, from
    :func:`read_nus` or :func:`index_rows`. :attr:`rows`, the rows in corpus
    order with equal rows one shared tuple, is built on first use, and so
    is every other view, once each. Plain corpora have group ``""``.

    Counting and scoring read :attr:`histogram` and
    :attr:`group_histograms`: a corpus's windows, and so its perplexity, do
    not depend on the order of its rows. Only training prefixes and first
    occurrences do, and they read :attr:`order`.
    """

    def __init__(self, rows: Iterable[tuple[str, NU]], order: list[int]):
        self.order = order
        # indices first occur in ascending order, so the tallies of
        # Counter(order) come in index order
        self.counts: dict[tuple[str, NU], int] = dict(zip(rows, Counter(order).values()))

    def __len__(self) -> int:
        return len(self.order)

    @cached_property
    def rows(self) -> list[tuple[str, NU]]:
        """(group, NU) per utterance, in corpus order."""
        return list(map(list(self.counts).__getitem__, self.order))

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


def index_rows(rows: Iterable[tuple[str, Sequence[str]]]) -> Corpus:
    """The :class:`Corpus` of (group, NU) rows, one per utterance in corpus
    order; each NU may be any token sequence."""
    shared: dict[NU, NU] = {}  # each distinct NU -> its one tuple
    index: dict[tuple[str, NU], int] = {}  # each distinct row -> its index
    order: list[int] = []
    for group, nu in rows:
        nu = tuple(nu)
        row = (group, shared.setdefault(nu, nu))
        order.append(index.setdefault(row, len(index)))
    return Corpus(index, order)


def boundary_tag(tokens: Iterable[str]) -> str | None:
    """The boundary tag, ``<s>`` before ``</s>``, that a token of ``tokens``
    spells in any case, or None.

    :func:`normalize` would keep such a token, counting a boundary
    mid-utterance, so the corpus readers and the grammar parser reject it;
    ``<unk>`` stays allowed.
    """
    spelled = {token.lower() for token in tokens}
    return next((tag for tag in (SENT_START, SENT_END) if tag in spelled), None)


def _line_error(path, lines: list[str], line: str, message: str) -> CorpusError:
    """The error ``message`` at the first line of ``lines`` equal to ``line``."""
    return CorpusError(f"{path}:{lines.index(line) + 1}: {message}")


def _unpunctuated(lines: list[str]) -> Iterator[str]:
    """Each of ``lines`` without its end, its punctuation turned to spaces as
    :func:`tokenize` does; 1,024 lines are translated at once, which costs
    less than a line at a time and holds less than the whole list."""
    for start in range(0, len(lines), 1024):
        part = lines[start : start + 1024]
        yield from "".join(part).translate(UNPUNCTUATE).split("\n")[: len(part)]


def _read_lines(path) -> list[str]:
    """The lines of a corpus file, each with its line end."""
    with open_text(path, CorpusError) as fh:
        return fh.readlines()


def read_nus(path, labeled: bool = False, lexicon: ClassLexicon | None = None) -> Corpus:
    """The :class:`Corpus` of a corpus file, each distinct line read once.

    A line's text is split by the rule of :func:`tokenize` and normalized
    through ``lexicon``; without one its tokens are taken as already
    normalized (normalizing them again would lowercase their class tags).
    Labeled lines are ``group<TAB>text`` with a group from :data:`GROUPS`;
    the group is ``""`` for plain corpora. In both formats a line whose text
    holds no token is skipped, and a token spelling a boundary tag is an
    error. The file is decoded whole before any line is read.

    Each distinct raw line is read once, in first-occurrence order, and
    mapped to the index of its row, so an error names the first bad line
    and the rows are numbered by first occurrence. Every line takes the one
    path below: its punctuation is stripped together with that of the
    distinct lines around it, its tokens are mapped through
    :attr:`ClassLexicon.token_tag`, and :func:`normalize` runs only where a
    token may start a multi-word member.
    """
    lines = _read_lines(path)
    # each distinct raw line -> the index of its row, or None: no utterance
    row_of: dict[str, int | None] = dict.fromkeys(lines)
    token_tag = lexicon.token_tag.__getitem__ if lexicon is not None else None
    # group -> each of its NUs -> the index of its row
    index: dict[str, dict[NU, int]] = {group: {} for group in ("",) + GROUPS}
    shared: dict[NU, NU] = {}  # each distinct NU -> its one tuple
    rows: list[tuple[str, NU]] = []
    group = ""
    for line, text in zip(row_of, _unpunctuated(list(row_of))):
        if labeled:
            group, tab, text = text.partition("\t")
            if not tab or group not in GROUPS:
                if not line.strip():
                    text = ""  # a blank line: no utterance
                elif not tab:
                    raise _line_error(path, lines, line, "expected 'group<TAB>utterance'")
                else:
                    raw_group = line.partition("\t")[0]
                    raise _line_error(path, lines, line, f"unknown request group {raw_group!r} "
                                      f"(expected one of {', '.join(GROUPS)})")
        tokens = text.split()
        if ">" in text:
            tag = boundary_tag(tokens)
            if tag is not None:
                raise _line_error(path, lines, line, f"reserved tag {tag} in the text")
        if token_tag is None:
            nu = tuple(tokens)
        else:
            nu = tuple(map(token_tag, tokens))
            if None in nu:
                nu = normalize(lexicon, tokens)
        if nu:
            nus = index[group]
            at = row_of[line] = nus.setdefault(nu, len(rows))
            if at == len(rows):
                rows.append((group, shared.setdefault(nu, nu)))
    return Corpus(rows, [at for at in map(row_of.__getitem__, lines) if at is not None])


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
