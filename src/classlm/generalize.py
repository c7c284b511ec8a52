"""Generalizing a training table with grammar-generated n-grams.

Top-order n-grams are split into three event kinds:

* usual  - present in both the training corpus and the generated sentences;
  merged count is the training count times the balance factor
* rare   - present only in the training corpus; frequency kept as is
* unknown - present only in the generated sentences; added once, weighted
  by the balance factor

Lower orders start from the training table and are repaired by the minimal
context-closure rule of :meth:`classlm.ngrams.NGramTable.closed`, so grammar
sentences never contribute frequency mass beyond the once-per-unknown-gram
rule. The balance factor is picked by grid search, minimizing perplexity on a
tuning corpus (held out by default; tests may deliberately tune on their
evaluation set to mirror older setups).

The grammar side enters only through the distinct top-order windows of the
generated sentences (:func:`classlm.ngrams.window_types`), which are
normalized with each distinct token mapped once
(:func:`classlm.normalize.normalize_sentences`).

The known-bad alternative of appending the generated sentences to the
training text is kept available as mode="naive-sentences" so its failure is
demonstrable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .analysis import write_csv
from .errors import DataError, TableError
from .grammar import Grammar, generate
from .lm import ClassNGramLM, perplexity, train
from .ngrams import Count, Gram, NGramTable, exact_count, extract, window_types
from .normalize import NU, normalize_sentences
from .vocab import ClassLexicon

MODE_INJECTION = "ngram-injection"
MODE_NAIVE = "naive-sentences"

DEFAULT_GRID: tuple[Count, ...] = (Fraction(1, 2), 1, 2, 4, 8, 10, 16)


@dataclass(frozen=True)
class EventPartition:
    usual: frozenset[Gram]
    rare: frozenset[Gram]
    unknown: frozenset[Gram]

    def summary(self) -> dict[str, int]:
        return {
            "used": len(self.usual),
            "rare": len(self.rare),
            "unknown": len(self.unknown),
        }


@dataclass(frozen=True)
class BalanceFactor:
    value: Count
    objective_pp: float | None = None
    curve: tuple[tuple[Count, float], ...] = ()


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


def merge_tables(
    train_table: NGramTable,
    grammar_table: NGramTable,
    factor,
    weight_unknown: bool = True,
) -> NGramTable:
    """Merged count table under the balance-factor scheme.

    With factor 1 and no unknown events this is exactly the training table.
    ``weight_unknown=False`` adds unknown grams with count 1 regardless of
    the factor.
    """
    factor = exact_count(factor)  # an integral factor keeps int counts int
    if factor <= 0:
        raise DataError(f"balance factor must be positive, got {factor}")
    n = train_table.order
    partition = classify_events(train_table, grammar_table, n)
    counts = dict(train_table)
    for gram in partition.usual:
        counts[gram] *= factor
    unknown_count = factor if weight_unknown else 1
    for gram in partition.unknown:
        counts[gram] = unknown_count
    return NGramTable.closed(n, counts)


def tune_balance_factor(
    train_table: NGramTable,
    grammar_table: NGramTable,
    tuning_corpus: list[NU],
    grid,
    lexicon: ClassLexicon,
    emission: bool = False,
    weight_unknown: bool = True,
) -> BalanceFactor:
    """Grid-search the factor minimizing tuning perplexity.

    Ties break toward the smaller factor (least distortion of the empirical
    distribution). The full perplexity-vs-factor curve is kept for reports.
    """
    grid = sorted({Fraction(f) for f in grid})
    if not grid:
        raise DataError("balance-factor grid is empty")
    if any(f <= 0 for f in grid):
        raise DataError("balance-factor grid values must be positive")
    tuning_corpus = list(tuning_corpus)
    if not tuning_corpus:
        raise DataError("tuning corpus is empty")
    curve = []
    best = None
    best_pp = None
    for factor in grid:
        merged = merge_tables(train_table, grammar_table, factor, weight_unknown)
        model = train(merged, lexicon)
        pp = perplexity(model, tuning_corpus, emission).pp
        curve.append((factor, pp))
        if best_pp is None or pp < best_pp:
            best, best_pp = factor, pp
    return BalanceFactor(
        value=best,
        objective_pp=best_pp,
        curve=tuple(curve),
    )


def naive_sentence_table(train_nus: list[NU], sentence_nus: list[NU], n: int) -> NGramTable:
    """Counts from the training text with every generated sentence appended once."""
    return extract(list(train_nus) + list(sentence_nus), n)


@dataclass
class GeneralizationResult:
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
    train_nus: list[NU],
    grammar: Grammar,
    lexicon: ClassLexicon,
    n: int,
    grid=DEFAULT_GRID,
    tuning_corpus: list[NU] | None = None,
    test_corpus: list[NU] | None = None,
    max_depth: int = 12,
    max_sentences: int = 100000,
    emission: bool = False,
    mode: str = MODE_INJECTION,
    weight_unknown: bool = True,
) -> GeneralizationResult:
    """End-to-end pipeline: extract, generate, classify, tune, merge, train.

    Perplexities of the baseline and generalized models are reported on the
    tuning corpus, the test corpus when given, and the generated sentences
    themselves (an artificial but informative distribution).
    """
    if mode not in (MODE_INJECTION, MODE_NAIVE):
        raise DataError(f"unknown mode {mode!r}")
    train_nus = [tuple(nu) for nu in train_nus]
    sentences = generate(grammar, max_depth, max_sentences)
    sentence_nus = normalize_sentences(lexicon, sentences)
    train_table = extract(train_nus, n)
    grammar_table = window_types(sentence_nus, n)
    partition = classify_events(train_table, grammar_table, n)
    baseline = train(train_table, lexicon)

    factor: BalanceFactor | None = None
    if mode == MODE_NAIVE:
        model = train(naive_sentence_table(train_nus, sentence_nus, n), lexicon)
    else:
        if not tuning_corpus:
            raise DataError("n-gram injection needs a tuning corpus for the factor search")
        factor = tune_balance_factor(
            train_table, grammar_table, tuning_corpus, grid, lexicon,
            emission=emission, weight_unknown=weight_unknown,
        )
        merged = merge_tables(train_table, grammar_table, factor.value, weight_unknown)
        model = train(merged, lexicon)

    perplexities: dict[str, tuple[float, float]] = {}
    evaluations = []
    if tuning_corpus:
        evaluations.append(("tuning", list(tuning_corpus)))
    if test_corpus:
        evaluations.append(("test", list(test_corpus)))
    if sentence_nus:
        evaluations.append(("grammar", sentence_nus))
    for label, corpus in evaluations:
        base_pp = perplexity(baseline, corpus, emission).pp
        gen_pp = perplexity(model, corpus, emission).pp
        perplexities[label] = (base_pp, gen_pp)

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
    if result.balance_factor is not None and result.balance_factor.curve:
        sink("curve", ["factor", "pp"],
             [[str(factor), repr(pp)] for factor, pp in result.balance_factor.curve])
    return written
