"""Corpus studies: coverage curves, training-size sweeps, rare-NU behavior.

All functions are pure over their inputs and all CSV writers emit sorted,
repr-formatted rows, so outputs are byte-identical across runs.

Labeled corpus format: ``group<TAB>utterance text`` per line, with groups
drawn from the closed set City, Date, Time, Other (read by
:func:`classlm.normalize.read_corpus`). Partial training sets are corpus
prefixes, so corpus files must preserve acquisition order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .errors import CorpusError, DataError
from .lm import PerplexityReport, perplexity, train
from .ngrams import extract
from .normalize import NU, normalize, nu_histogram, read_corpus
from .vocab import ClassLexicon

LabeledNUs = list[tuple[str, NU]]


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


def by_group(labeled: LabeledNUs) -> dict[str, list[NU]]:
    grouped: dict[str, list[NU]] = {}
    for group, nu in labeled:
        grouped.setdefault(group, []).append(nu)
    return grouped


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


def coverage_curve(ranking_corpus: list[NU], measured_corpus: list[NU]) -> CoverageCurve:
    """Rank NUs by frequency in one corpus, measure cumulative cover on another.

    Ties in frequency break lexicographically, so the curve is deterministic.
    """
    ranking_corpus = list(ranking_corpus)
    if not ranking_corpus:
        raise CorpusError("ranking corpus is empty")
    measured_corpus = list(measured_corpus)
    ranking = nu_histogram(ranking_corpus)
    ranked = sorted(ranking.items(), key=lambda item: (-item[1], item[0]))
    measured = nu_histogram(measured_corpus)
    total = len(measured_corpus)
    points = []
    covered = 0
    for rank, (nu, _) in enumerate(ranked, start=1):
        covered += measured.get(nu, 0)
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
    labeled_corpus: LabeledNUs,
    sizes,
    labeled_test: LabeledNUs,
    lexicon: ClassLexicon,
    n: int,
    emission: bool = True,
) -> list[tuple[int, dict[str, PerplexityReport]]]:
    """Train on each corpus prefix, evaluate perplexity per request group."""
    sizes = check_sizes(sizes, len(labeled_corpus))
    test_groups = by_group(labeled_test)
    rows = []
    for size in sizes:
        prefix_nus = nus_of(labeled_corpus[:size])
        model = train(extract(prefix_nus, n), lexicon)
        per_group = {
            group: perplexity(model, group_nus, emission)
            for group, group_nus in sorted(test_groups.items())
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


def unseen_split(training_corpus: list[NU], test_corpus: list[NU]) -> UnseenSplit:
    """Split test utterances by whether their NU occurs in training at all."""
    known = set(nu_histogram(training_corpus))
    seen = []
    unseen = []
    for nu in test_corpus:
        (seen if tuple(nu) in known else unseen).append(tuple(nu))
    return UnseenSplit(seen=tuple(seen), unseen=tuple(unseen))


# -- frequent-NU saturation ---------------------------------------------------


def saturation_table(
    labeled_corpus: LabeledNUs, sizes, min_count: int = 3
) -> dict[str, list[int]]:
    """Growth of frequent NUs (count > min_count in the full corpus) with size.

    Frequencies and presence are both taken within each request group; each
    row is non-decreasing because partial sets are prefixes.
    """
    sizes = check_sizes(sizes, len(labeled_corpus))
    frequent = {
        group: {nu for nu, c in nu_histogram(nus).items() if c > min_count}
        for group, nus in by_group(labeled_corpus).items()
    }
    table: dict[str, list[int]] = {group: [] for group in sorted(frequent)}
    for size in sizes:
        present: dict[str, set] = {group: set() for group in table}
        for group, nu in labeled_corpus[:size]:
            present[group].add(nu)
        for group in table:
            table[group].append(len(frequent[group] & present[group]))
    return table


# -- frequency overlap --------------------------------------------------------


def frequency_overlap(
    labeled_train: LabeledNUs, labeled_test: LabeledNUs, threshold: float = 0.001
) -> dict[str, float]:
    """Per group: fraction of distinct test NUs whose training frequency
    (relative to the group) exceeds the threshold."""
    train_groups = by_group(labeled_train)
    test_groups = by_group(labeled_test)
    overlap = {}
    for group in sorted(test_groups):
        test_types = set(test_groups[group])
        if not test_types:
            continue
        group_train = train_groups.get(group, [])
        counts = nu_histogram(group_train)
        total = len(group_train)
        selected = {
            nu for nu, c in counts.items() if total and c / total > threshold
        }
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
