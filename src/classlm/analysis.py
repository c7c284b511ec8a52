"""Corpus studies: coverage curves, training-size sweeps, rare-NU behavior.

Each study takes its corpora as :class:`~classlm.normalize.Corpus` values,
which :func:`classlm.normalize.read_nus` builds in one pass over a file,
and reads the histograms, per-group lists and first occurrences each value
holds, so a corpus is counted once however many studies use it. A study
given a list of NUs or (group, NU) rows builds that value first.

All functions are pure over their inputs and all CSV writers emit sorted,
repr-formatted rows, so outputs are byte-identical across runs.

Labeled corpus format: ``group<TAB>utterance text`` per line, with groups
drawn from the closed set City, Date, Time, Other. Partial training sets are
corpus prefixes, so corpus files must preserve acquisition order.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass

from .errors import CorpusError, DataError
from .lm import PerplexityReport, perplexity, train
from .ngrams import extract
# by_group is one of this module's public names too
from .normalize import NU, Corpus, by_group, normalize, read_corpus  # noqa: F401
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


def write_labeled_corpus(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for group, text in rows:
            text = text if isinstance(text, str) else " ".join(text)
            fh.write(f"{group}\t{text}\n")


def label_nus(lexicon: ClassLexicon, rows: list[tuple[str, str]]) -> LabeledNUs:
    """(group, NU) rows; each distinct raw text is normalized once.

    Equal NUs are one shared tuple, so the histograms, sets and dicts built
    over them later match keys by identity.
    """
    memo: dict[str, NU] = {}
    canon: dict[NU, NU] = {}
    labeled = []
    for group, text in rows:
        nu = memo.get(text)
        if nu is None:
            nu = normalize(lexicon, text)
            nu = memo[text] = canon.setdefault(nu, nu)
        labeled.append((group, nu))
    return labeled


def nus_of(labeled: LabeledNUs) -> list[NU]:
    return [nu for _, nu in labeled]


# -- coverage curve ----------------------------------------------------------


@dataclass(frozen=True)
class CoverageCurve:
    # (rank r, cumulative fraction of the measured corpus covered by the
    # r most frequent NUs of the ranking corpus)
    points: tuple[tuple[int, float], ...]

    def coverage_at(self, rank: int) -> float:
        covered = 0.0
        for r, cov in self.points:
            if r > rank:
                break
            covered = cov
        return covered


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
    """Train on each corpus prefix, evaluate perplexity per request group."""
    corpus = _labeled(labeled_corpus)
    sizes = check_sizes(sizes, len(corpus))
    test_groups = sorted(_labeled(labeled_test).groups.items())
    rows = []
    for size in sizes:
        model = train(extract(corpus.nus[:size], n), lexicon)
        per_group = {
            group: perplexity(model, group_nus, emission)
            for group, group_nus in test_groups
        }
        rows.append((size, per_group))
    return rows


# -- unseen split ------------------------------------------------------------


@dataclass(frozen=True)
class UnseenSplit:
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
    firsts: dict[str, list[int]] = {}  # ascending, as pairs are in first-occurrence order
    for (group, _), count, first in zip(corpus.pairs, corpus.counts, corpus.firsts):
        group_firsts = firsts.setdefault(group, [])
        if count > min_count:
            group_firsts.append(first)
    return {group: [bisect_left(firsts[group], size) for size in sizes]
            for group in sorted(firsts)}


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


def write_csv(path, fmt: str, header, rows) -> None:
    """Write a header and rows as CSV (``fmt="csv"``) or TSV (``fmt="tsv"``)."""
    if fmt not in ("csv", "tsv"):
        raise DataError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh, delimiter="," if fmt == "csv" else "\t", lineterminator="\n")
        out.writerow(header)
        out.writerows(rows)


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
