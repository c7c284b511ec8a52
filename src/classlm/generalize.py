"""Generalizing a training table with grammar-generated n-grams.

Top-order n-grams are split into three event kinds:

* usual  - present in both the training corpus and the generated sentences;
  merged count is the training count times the balance factor
* rare   - present only in the training corpus; frequency kept as is
* unknown - present only in the generated sentences; merged count is the
  balance factor

Lower orders start from the training table and are repaired by the minimal
context-closure rule every :class:`classlm.ngrams.NGramTable` is built with,
so grammar sentences contribute no frequency mass beyond the balance factor
of each unknown gram. The balance factor is picked by grid search,
minimizing perplexity on the tuning corpus; the test corpus is only
evaluated, never tuned on.

The grammar side enters only through the distinct top-order windows of the
generated sentences. Each terminal is normalized once, before generation,
so the non-empty sentences are the sentence NUs, distinct and sorted: a
multi-word member is merged only inside one terminal, and the sentence cap
counts distinct NUs.

Each corpus is counted once (:func:`classlm.ngrams.window_counts`), and
every model scores it from those counts, one backoff walk per distinct
window (:meth:`classlm.lm.ClassNGramLM.score_windows`): the sentence windows
give the grammar table and the grammar row of the report, the tuning
windows serve every grid point of the factor search and the tuning row,
and the test windows serve both models.

The known-bad alternative of appending the generated sentences to the
training text is kept available as mode="naive-sentences" so its failure is
demonstrable.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from typing import NamedTuple

from .errors import DataError, TableError, write_csv
from .grammar import _MAX_DEPTH, _MAX_SENTENCES, Grammar, generate
from .lm import ClassNGramLM, PerplexityReport, train
from .ngrams import Gram, NGramTable, extract, window_counts
from .normalize import NU, normalize
from .vocab import ClassLexicon

MODE_INJECTION = "ngram-injection"
MODE_NAIVE = "naive-sentences"

DEFAULT_GRID: tuple[int | Fraction, ...] = (Fraction(1, 2), 1, 2, 4, 8, 10, 16)


class EventPartition(NamedTuple):
    usual: frozenset[Gram]
    rare: frozenset[Gram]
    unknown: frozenset[Gram]

    def summary(self) -> dict[str, int]:
        return {
            "used": len(self.usual),
            "rare": len(self.rare),
            "unknown": len(self.unknown),
        }


class BalanceFactor(NamedTuple):
    value: Fraction
    objective_pp: float
    curve: tuple[tuple[Fraction, float], ...]


def classify_events(
    train_table: NGramTable, grammar_table: NGramTable, n: int
) -> EventPartition:
    if train_table.order < n or grammar_table.order < n:
        raise TableError(
            f"event classification at order {n} needs both tables at that order "
            f"(have {train_table.order} and {grammar_table.order})"
        )
    train_grams = train_table.gram_set(n)
    grammar_grams = grammar_table.gram_set(n)
    return EventPartition(
        usual=train_grams & grammar_grams,
        rare=train_grams - grammar_grams,
        unknown=grammar_grams - train_grams,
    )


def merge_tables(train_table: NGramTable, grammar_table: NGramTable, factor) -> NGramTable:
    """Merged count table under the balance-factor scheme.

    A usual top-order gram gets its training count times ``factor``, an
    unknown one gets ``factor``, and a rare one keeps its training count;
    the shorter grams are closed by :class:`NGramTable`. With factor 1 and
    no unknown events this is exactly the training table. For ``factor``
    p/q the numerators are multiplied by q (a usual gram's by p instead), an
    unknown gram gets p times the training ``den``, and ``den`` by q.
    """
    p, q = factor.as_integer_ratio()
    if p <= 0:
        raise DataError(f"balance factor must be positive, got {factor}")
    n = train_table.order
    partition = classify_events(train_table, grammar_table, n)
    levels = [{gram: count * q for gram, count in train_table.level(k).items()} if q > 1
              else dict(train_table.level(k)) for k in range(1, n + 1)]
    counts = train_table.level(n)
    levels[-1].update({gram: counts[gram] * p for gram in partition.usual})
    levels[-1].update(dict.fromkeys(partition.unknown, p * train_table.den))
    return NGramTable.from_levels(levels, q * train_table.den)


def _pp(model: ClassNGramLM, windows: Mapping[Gram, int], emission: bool) -> float:
    return PerplexityReport.of(*model.score_windows(windows, emission)).pp


def tune_balance_factor(
    train_table: NGramTable,
    grammar_table: NGramTable,
    tuning_windows: Mapping[Gram, int],
    grid,
    lexicon: ClassLexicon,
    emission: bool = False,
) -> BalanceFactor:
    """Grid-search the factor minimizing tuning perplexity.

    ``tuning_windows`` are the tuning corpus's windows at the tables' order,
    as :func:`classlm.ngrams.window_counts` counts them; every candidate
    model scores them.

    Ties break toward the smaller factor (least distortion of the empirical
    distribution). The full perplexity-vs-factor curve is kept for reports.
    """
    grid = sorted({Fraction(f) for f in grid})
    if not grid:
        raise DataError("balance-factor grid is empty")
    if any(f <= 0 for f in grid):
        raise DataError("balance-factor grid values must be positive")
    if not tuning_windows:
        raise DataError("tuning corpus is empty")
    curve = []
    for factor in grid:
        model = train(merge_tables(train_table, grammar_table, factor), lexicon)
        curve.append((factor, _pp(model, tuning_windows, emission)))
    # min keeps the first of equal points: the smaller factor
    best, best_pp = min(curve, key=lambda point: point[1])
    return BalanceFactor(value=best, objective_pp=best_pp, curve=tuple(curve))


def naive_sentence_table(
    train_nus: list[NU] | Mapping[NU, int], sentence_nus: list[NU], n: int
) -> NGramTable:
    """Counts from the training corpus with every generated sentence appended once."""
    histogram = Counter(train_nus)
    histogram.update(sentence_nus)
    return extract(histogram, n)


def _normalized(grammar: Grammar, lexicon: ClassLexicon) -> Grammar:
    """``grammar`` with each terminal replaced by its NU."""
    return grammar._replace(productions={
        name: tuple(tuple(item if isinstance(item, str) else normalize(lexicon, item)
                          for item in alt) for alt in alts)
        for name, alts in grammar.productions.items()})


class GeneralizationResult(NamedTuple):
    mode: str
    model: ClassNGramLM
    baseline: ClassNGramLM
    partition: EventPartition
    balance_factor: BalanceFactor | None
    sentence_nus: list[NU]
    # evaluation corpus label -> (baseline pp, generalized pp)
    perplexities: dict[str, tuple[float, float]]

    def report_fields(self) -> dict[str, object]:
        fields: dict[str, object] = dict(self.partition.summary())
        fields["balance_factor"] = (
            str(self.balance_factor.value) if self.balance_factor else ""
        )
        return fields


def build_generalized_lm(
    train_nus: list[NU] | Mapping[NU, int],
    grammar: Grammar,
    lexicon: ClassLexicon,
    n: int,
    grid=DEFAULT_GRID,
    tuning_corpus: list[NU] | Mapping[NU, int] | None = None,
    test_corpus: list[NU] | Mapping[NU, int] | None = None,
    max_depth: int = _MAX_DEPTH,
    max_sentences: int = _MAX_SENTENCES,
    emission: bool = False,
    mode: str = MODE_INJECTION,
) -> GeneralizationResult:
    """End-to-end pipeline: extract, generate, classify, tune, merge, train.

    Perplexities of the baseline and generalized models are reported on the
    tuning corpus, the test corpus when given, and the generated sentences
    themselves (an artificial but informative distribution). Each corpus is
    NUs or an NU -> count mapping such as :attr:`classlm.normalize.Corpus.histogram`.
    """
    if mode not in (MODE_INJECTION, MODE_NAIVE):
        raise DataError(f"unknown mode {mode!r}")
    if mode == MODE_INJECTION and tuning_corpus is None:
        raise DataError("n-gram injection needs a tuning corpus for the factor search")
    tuning_windows = None if tuning_corpus is None else window_counts(tuning_corpus, n)
    test_windows = None if test_corpus is None else window_counts(test_corpus, n)

    sentence_nus = [nu for nu in generate(_normalized(grammar, lexicon), max_depth,
                                          max_sentences) if nu]
    sentence_windows = window_counts(sentence_nus, n)
    grammar_table = NGramTable(n, dict.fromkeys(sentence_windows, 1))

    train_table = extract(train_nus, n)
    partition = classify_events(train_table, grammar_table, n)
    baseline = train(train_table, lexicon)
    factor: BalanceFactor | None = None
    if mode == MODE_NAIVE:
        model = train(naive_sentence_table(train_nus, sentence_nus, n), lexicon)
    else:
        factor = tune_balance_factor(train_table, grammar_table, tuning_windows, grid,
                                     lexicon, emission)
        model = train(merge_tables(train_table, grammar_table, factor.value), lexicon)

    evaluations = {"tuning": tuning_windows, "test": test_windows,
                   "grammar": sentence_windows if sentence_nus else None}
    perplexities = {label: (_pp(baseline, windows, emission), _pp(model, windows, emission))
                    for label, windows in evaluations.items() if windows is not None}

    return GeneralizationResult(
        mode=mode,
        model=model,
        baseline=baseline,
        partition=partition,
        balance_factor=factor,
        sentence_nus=sentence_nus,
        perplexities=perplexities,
    )


def write_report(result: GeneralizationResult, out_dir, fmt: str = "csv") -> list[str]:
    """Write the experiment report files; returns the file names written.

    ``report`` holds the event composition and chosen factor, ``pp`` the
    baseline/generalized perplexity per evaluation corpus, and ``curve`` the
    tuning curve when a grid search ran.
    """
    from pathlib import Path

    out_dir = Path(out_dir)
    written = []

    def sink(name, header, rows):
        write_csv(out_dir / f"{name}.{fmt}", fmt, header, rows)
        written.append(f"{name}.{fmt}")

    fields = result.report_fields()
    sink("report", ["mode"] + list(fields),
         [[result.mode] + [str(v) for v in fields.values()]])
    sink("pp", ["corpus", "pp_baseline", "pp_generalized"], [
        [label, repr(base_pp), repr(gen_pp)]
        for label, (base_pp, gen_pp) in result.perplexities.items()
    ])
    if result.balance_factor is not None:
        sink("curve", ["factor", "pp"],
             [[str(factor), repr(pp)] for factor, pp in result.balance_factor.curve])
    return written
