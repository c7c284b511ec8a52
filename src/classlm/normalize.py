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
(:attr:`ClassLexicon.member_tag`). The grammar side
(:func:`normalize_sentences`) goes through it, and so does every corpus
line that may hold a multi-word member; :func:`read_nus` maps the tokens
of any other line through the same memo itself, which is all that
:func:`normalize` would do with them. Both sides split text by the rule of
:func:`classlm.vocab.tokenize` and reject a token spelling a boundary tag
through :func:`boundary_tag`: corpus lines here, grammar terminals in
:mod:`classlm.grammar`.

Corpus files, plain and labeled, are read and written here. A reader
decodes the whole file before it parses a line. :func:`read_nus` reads a
file into a :class:`Corpus`, the counts of its (group, NU) rows: it counts
the raw lines first and reads each distinct line once, adding its count to
its row's tally, so the histograms that the commands and the corpus
studies read come from those tallies, and the rows in corpus order are
built only for a study that walks them. :func:`read_corpus` returns the raw
(group, text) rows, one per line, through the parser that :func:`read_nus`
uses for every line it does not read itself, so both raise the same errors;
:func:`write_labeled_corpus` and :func:`write_sentences` write the labeled
and the plain form.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property

from .errors import CorpusError, open_text
from .vocab import (
    PUNCTUATION, SENT_END, SENT_START, UNPUNCTUATE, ClassLexicon, tokenize,
)

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
    """Sorted distinct NUs of the non-empty token sequences in ``sentences``.

    Deduplicating keeps the input order, so sorted input, as
    :func:`classlm.grammar.generate` gives, sorts in linear time.
    """
    return sorted(dict.fromkeys(normalize(lexicon, s) for s in sentences if s))


def nu_histogram(corpus: Iterable[NU]) -> Counter:
    """Occurrence count per distinct NU; total equals the corpus size."""
    return Counter(map(tuple, corpus))


class Corpus:
    """The (group, NU) rows of one corpus, kept as counts.

    The value is :attr:`counts`, each distinct row -> its occurrences in
    first-occurrence order (equal NUs are one shared tuple), and beside it
    the row index of each utterance, in one list. :func:`read_nus` builds
    both from a file's distinct lines, keeping no object per utterance; a
    corpus built from rows counts them. :attr:`rows`, the rows in corpus
    order with equal rows one shared tuple, is built on first use, and so
    is every other view, once each. Plain corpora have group ``""``.

    Counting and scoring read :attr:`histogram` and
    :attr:`group_histograms`: a corpus's windows, and so its perplexity, do
    not depend on the order of its rows. Only training prefixes and first
    occurrences do, and they read :attr:`rows`.
    """

    def __init__(self, rows: Iterable[tuple[str, Sequence[str]]] = ()):
        shared: dict[NU, NU] = {}  # each distinct NU -> its one tuple
        index: dict[tuple[str, NU], int] = {}  # each distinct row -> its index
        self._order: list[int] = []  # the row index of each utterance
        for group, nu in rows:
            nu = tuple(nu)
            row = (group, shared.setdefault(nu, nu))
            self._order.append(index.setdefault(row, len(index)))
        # indices are given in first-occurrence order, so the tallies of
        # Counter(order) come in index order
        self.counts: dict[tuple[str, NU], int] = dict(zip(index, Counter(self._order).values()))

    def __len__(self) -> int:
        return len(self._order)

    @cached_property
    def rows(self) -> list[tuple[str, NU]]:
        """(group, NU) per utterance, in corpus order."""
        return list(map(list(self.counts).__getitem__, self._order))

    @cached_property
    def nus(self) -> list[NU]:
        """NU per utterance, in corpus order."""
        return [nu for _, nu in self.rows]

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


def _parse_line(path, lines: list[str], line: str, labeled: bool) -> tuple[str, str] | None:
    """The (group, text) row of the corpus line ``line``, or None if its
    text has no token.

    Labeled lines are ``group<TAB>text`` with a group from :data:`GROUPS`;
    the group is ``""`` for plain corpora. An error names the line's first
    occurrence in ``lines``, the file's lines.
    """
    group, text = "", line
    if labeled and line.strip():
        if "\t" not in line:
            raise _line_error(path, lines, line, "expected 'group<TAB>utterance'")
        group, _, text = line.partition("\t")
        if group not in GROUPS:
            raise _line_error(path, lines, line, f"unknown request group {group!r} "
                              f"(expected one of {', '.join(GROUPS)})")
    text = text.strip()
    # one-character tests spare most lines the token scans
    if not text or (text[0] in PUNCTUATION and not tokenize(text)):
        return None
    tag = boundary_tag(tokenize(text)) if ">" in text else None
    if tag is not None:
        raise _line_error(path, lines, line, f"reserved tag {tag} in the text")
    return group, text


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


def read_corpus(path, labeled: bool = False) -> list[tuple[str, str]]:
    """(group, text) rows, one per line; the group is ``""`` for plain corpora.

    Labeled lines are ``group<TAB>text`` with a group from :data:`GROUPS`. In
    both formats a row whose text holds no token is skipped. The file is
    decoded whole before any line is parsed.
    """
    lines = _read_lines(path)
    rows = []
    for line in lines:
        row = _parse_line(path, lines, line, labeled)
        if row is not None:
            rows.append(row)
    return rows


def read_nus(path, labeled: bool = False, lexicon: ClassLexicon | None = None) -> Corpus:
    """The :class:`Corpus` of a corpus file, its rows tallied per distinct line.

    Rows are those of :func:`read_corpus`, with the text normalized through
    ``lexicon``; without one the text is taken as already normalized and
    only split (normalizing it again would lowercase its class tags).

    The raw lines are counted first, and each distinct line is read once,
    in first-occurrence order, adding its count to the tally of its row, so
    an error names the first bad line. A common line (a known group, no
    ``>``, and no token that :attr:`ClassLexicon.token_tag` marks as a
    possible start of a multi-word member) is read here, its punctuation
    stripped together with that of the distinct lines around it; any other
    goes through the parser of :func:`read_corpus`, and :func:`normalize`
    runs only where a multi-word member may start.
    """
    lines = _read_lines(path)
    # raw line -> its count, then -> the index of its row (-1: no utterance)
    tally = Counter(lines)
    token_tag = lexicon.token_tag.__getitem__ if lexicon is not None else None
    # group -> each of its NUs -> the index of its row
    index: dict[str, dict[NU, int]] = {group: {} for group in ("",) + GROUPS}
    shared: dict[NU, NU] = {}  # each distinct NU -> its one tuple
    rows: list[tuple[str, NU]] = []
    tallies: list[int] = []
    skipped = False
    for (line, count), text in zip(tally.items(), _unpunctuated(list(tally))):
        if labeled:
            group, tab, text = text.partition("\t")
            common = tab and group in GROUPS
        else:
            group, common = "", True
        nu = None
        if common and token_tag is not None and ">" not in text:
            nu = tuple(map(token_tag, text.split()))
        if nu is None or None in nu:
            parsed = _parse_line(path, lines, line, labeled)
            if parsed is None:
                nu = ()
            else:
                group, text = parsed
                nu = tuple(text.split()) if lexicon is None else normalize(lexicon, text)
        if not nu:
            tally[line] = -1
            skipped = True
            continue
        nus = index[group]
        at = nus.get(nu)
        if at is None:
            at = nus[nu] = len(rows)
            rows.append((group, shared.setdefault(nu, nu)))
            tallies.append(count)
        else:
            tallies[at] += count
        tally[line] = at
    corpus = Corpus()
    corpus.counts = dict(zip(rows, tallies))
    order = map(tally.__getitem__, lines)
    corpus._order = [at for at in order if at >= 0] if skipped else list(order)
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
