"""Corpus studies: coverage curves, training-size sweeps, rare-NU behavior.

Each study takes its corpora as :class:`~classlm.normalize.Corpus` values,
which :func:`classlm.normalize.read_nus` builds as counts from a file's
distinct lines, and reads the histograms derived from those counts, so a
corpus is counted once however many studies use it; the sweep and the
saturation table, the two studies that depend on row order, walk the rows
themselves, which a corpus lists on first use. A study given a list of NUs
or (group, NU) rows builds that value first.

All functions are pure over their inputs and all CSV writers emit sorted,
repr-formatted rows (:func:`classlm.errors.write_csv`), so outputs are
byte-identical across runs.

Labeled corpora (``group<TAB>utterance text`` per line, groups City, Date,
Time, Other) are read and written by :mod:`classlm.normalize`. Partial
training sets are corpus prefixes, so corpus files must keep acquisition order.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .errors import CorpusError, write_csv
from .lm import PerplexityReport, train
from .ngrams import extract, window_counts
from .normalize import NU, Corpus, normalize, read_corpus
from .normalize import write_labeled_corpus  # pinned by perfbench TARGETS; ROADMAP item 2 deletes it
from .vocab import ClassLexicon

LabeledNUs = list[tuple[str, NU]]


def _labeled(corpus: Corpus | LabeledNUs) -> Corpus:
    """``corpus`` itself if it is a :class:`Corpus`, else the value of its rows."""
    return corpus if isinstance(corpus, Corpus) else Corpus(corpus)


def _plain(corpus: Corpus | list[NU]) -> Corpus:
    """``corpus`` itself if it is a :class:`Corpus`, else the value of its NUs."""
    return corpus if isinstance(corpus, Corpus) else Corpus(("", nu) for nu in corpus)


def read_labeled_corpus(path) -> list[tuple[str, str]]:
    """(group, raw text) rows of a labeled corpus; see :func:`read_corpus`."""
    return read_corpus(path, labeled=True)


def label_nus(lexicon: ClassLexicon, rows: list[tuple[str, str]]) -> LabeledNUs:
    """(group, NU) rows, one :func:`normalize` per row: the plain reference
    of :func:`classlm.normalize.read_nus`."""
    return [(group, normalize(lexicon, text)) for group, text in rows]


# -- coverage curve ----------------------------------------------------------


class CoverageCurve(NamedTuple):
    # (rank r, cumulative fraction of the measured corpus covered by the
    # r most frequent NUs of the ranking corpus)
    points: tuple[tuple[int, float], ...]


def coverage_curve(
    ranking_corpus: Corpus | list[NU], measured_corpus: Corpus | list[NU]
) -> CoverageCurve:
    """Rank NUs by frequency in one corpus, measure cumulative cover on another.

    Ties in frequency break lexicographically, so the curve is deterministic.
    """
    ranking = _plain(ranking_corpus)
    if not len(ranking):
        raise CorpusError("ranking corpus is empty")
    measured = _plain(measured_corpus)
    ranked = sorted(ranking.histogram.items(), key=lambda item: (-item[1], item[0]))
    counts = measured.histogram
    total = len(measured)
    points = []
    covered = 0
    for rank, (nu, _) in enumerate(ranked, start=1):
        covered += counts.get(nu, 0)
        points.append((rank, covered / total if total else 0.0))
    return CoverageCurve(points=tuple(points))


# -- training-size sweep ----------------------------------------------------


def check_sizes(sizes, corpus_len: int) -> list[int]:
    sizes = list(sizes)
    if not corpus_len:
        raise CorpusError("training corpus is empty")
    if not sizes:
        raise CorpusError("no training sizes given")
    if sorted(sizes) != sizes:
        raise CorpusError(f"training sizes must be ascending: {sizes}")
    for size in sizes:
        if size < 1 or size > corpus_len:
            raise CorpusError(f"training size {size} outside 1..{corpus_len}")
    return sizes


def partial_training_sweep(
    labeled_corpus: Corpus | LabeledNUs,
    sizes,
    labeled_test: Corpus | LabeledNUs,
    lexicon: ClassLexicon,
    n: int,
    emission: bool = True,
) -> list[tuple[int, dict[str, PerplexityReport]]]:
    """Train on each corpus prefix, evaluate perplexity per request group.

    The prefix histogram grows row by row as the sizes ascend, and each test
    group's windows are counted once and scored by every prefix's model.
    """
    corpus = _labeled(labeled_corpus)
    sizes = check_sizes(sizes, len(corpus))
    histograms = _labeled(labeled_test).group_histograms
    test_windows = [(group, window_counts(histograms[group], n)) for group in sorted(histograms)]
    prefix: dict[NU, int] = {}
    grown = 0
    rows = []
    for size in sizes:
        for _, nu in corpus.rows[grown:size]:
            prefix[nu] = prefix.get(nu, 0) + 1
        grown = size
        model = train(extract(prefix, n), lexicon)
        per_group = {
            group: PerplexityReport.of(*model.score_windows(windows, emission))
            for group, windows in test_windows
        }
        rows.append((size, per_group))
    return rows


# -- unseen split ------------------------------------------------------------


class UnseenSplit(NamedTuple):
    seen: tuple[NU, ...]
    unseen: tuple[NU, ...]

    @property
    def seen_types(self) -> int:
        return len(set(self.seen))

    @property
    def unseen_types(self) -> int:
        return len(set(self.unseen))


def unseen_split(
    training_corpus: Corpus | list[NU], test_corpus: Corpus | list[NU]
) -> UnseenSplit:
    """Split test utterances by whether their NU occurs in training at all."""
    known = _plain(training_corpus).histogram
    seen = []
    unseen = []
    for nu in _plain(test_corpus).nus:
        (seen if nu in known else unseen).append(nu)
    return UnseenSplit(seen=tuple(seen), unseen=tuple(unseen))


# -- frequent-NU saturation ---------------------------------------------------


def saturation_table(
    labeled_corpus: Corpus | LabeledNUs, sizes, min_count: int = 3
) -> dict[str, list[int]]:
    """Growth of frequent NUs (count > min_count in the full corpus) with size.

    Frequencies and presence are both taken within each request group; each
    row is non-decreasing because partial sets are prefixes. A frequent NU
    is present in a prefix of ``size`` rows when its first row index within
    its group is below ``size``.
    """
    corpus = _labeled(labeled_corpus)
    sizes = check_sizes(sizes, len(corpus))
    firsts: dict[tuple[str, NU], int] = {}  # in first-occurrence order
    for index, row in enumerate(corpus.rows):
        firsts.setdefault(row, index)
    frequent: dict[str, list[int]] = {group: [] for group in corpus.group_histograms}
    for row, first in firsts.items():
        if corpus.counts[row] > min_count:
            frequent[row[0]].append(first)  # ascending, as firsts is
    return {group: [bisect_left(frequent[group], size) for size in sizes]
            for group in sorted(frequent)}


# -- frequency overlap --------------------------------------------------------


def frequency_overlap(
    labeled_train: Corpus | LabeledNUs,
    labeled_test: Corpus | LabeledNUs,
    threshold: float = 0.001,
) -> dict[str, float]:
    """Per group: fraction of distinct test NUs whose training frequency
    (relative to the group) exceeds the threshold."""
    train_counts = _labeled(labeled_train).group_histograms
    test_counts = _labeled(labeled_test).group_histograms
    overlap = {}
    for group in sorted(test_counts):
        test_types = test_counts[group].keys()
        counts = train_counts.get(group, {})
        total = sum(counts.values())
        selected = {nu for nu, c in counts.items() if c / total > threshold}
        overlap[group] = len(test_types & selected) / len(test_types)
    return overlap


# -- CSV output ---------------------------------------------------------------


def write_coverage_csv(path, curve: CoverageCurve, fmt: str = "csv") -> None:
    write_csv(path, fmt, ["rank", "coverage"],
              [[rank, repr(cov)] for rank, cov in curve.points])


def write_sweep_csv(path, rows, fmt: str = "csv") -> None:
    write_csv(path, fmt, ["size", "group", "pp", "tokens", "oov"], [
        [size, group, repr(report.pp), report.token_count, report.oov_count]
        for size, per_group in rows
        for group, report in sorted(per_group.items())
    ])


def write_saturation_csv(path, sizes, table: dict[str, list[int]], fmt: str = "csv") -> None:
    write_csv(path, fmt, ["group"] + [str(s) for s in sizes],
              [[group] + [str(v) for v in table[group]] for group in sorted(table)])


def write_overlap_csv(path, overlap: dict[str, float], fmt: str = "csv") -> None:
    write_csv(path, fmt, ["group", "overlap"],
              [[group, repr(overlap[group])] for group in sorted(overlap)])


def write_unseen_csv(path, split: UnseenSplit, fmt: str = "csv") -> None:
    write_csv(path, fmt, ["part", "utterances", "nu_types"], [
        ["seen", len(split.seen), split.seen_types],
        ["unseen", len(split.unseen), split.unseen_types],
    ])
