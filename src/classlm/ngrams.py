"""N-gram tables with context closure.

A table stores counts for all gram lengths 1..order. The closure invariant
is that every context can pay for its extensions::

    count(c) >= sum over w of count(c + (w,))

The constructor is the only way to build a table, and every table holds the
invariant: a context that falls short of the sum of its extensions is raised
exactly to that sum, never higher, so the empirical distribution is perturbed
as little as possible. Tables from :func:`extract` hold it as counted; the
grammar's distinct windows in :func:`classlm.generalize.build_generalized_lm`,
the edits :meth:`NGramTable.inject` and :meth:`NGramTable.scale`, and
:func:`classlm.generalize.merge_tables` are repaired by it.

Corpora are counted by one kernel, :func:`window_counts`: each padded
top-order window with its count. Training tables (:func:`extract`), the
grammar's distinct windows in :mod:`classlm.generalize` and scoring
(:meth:`classlm.lm.ClassNGramLM.score_windows`) all start from it.

Counts are exact numbers (int, or Fraction after non-integer scaling), so
rescaling experiments are reproducible bit for bit; integral values are kept
as ints.

A table is a multiset: its iteration order is unspecified and nothing built
from it may depend on that order. The model writer,
:func:`classlm.lm.export_model`, sorts what it writes, so the same counts give
the same bytes.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from fractions import Fraction

from .errors import TableError
from .normalize import NU, nu_histogram
from .vocab import SENT_END, SENT_START

Gram = tuple[str, ...]
Count = int | Fraction


def exact_count(value) -> Count:
    """Canonical exact count: int when integral, Fraction otherwise."""
    if isinstance(value, int):
        return value
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


_COUNT_RE = re.compile(r"[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def parse_count(text: str) -> Count:
    """Exact count written as digits, optionally followed by ``/digits`` or
    ``.digits``, whose value fits a float.

    Raises ValueError otherwise: signs and exponents are not count syntax,
    and a value past the float range could not be trained on.
    """
    if not _COUNT_RE.fullmatch(text):
        raise ValueError(f"bad count {text!r}")
    try:
        count = exact_count(Fraction(text))
        float(count)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad count {text!r}") from exc
    return count


class NGramTable:
    """Multiset of grams of lengths 1..order with exact counts.

    Single writer; treat as frozen once it is handed to a trainer.
    """

    __slots__ = ("order", "_counts")

    def __init__(self, order: int,
                 counts: Mapping[Gram, Count] | Iterable[tuple[Gram, Count]] = ()):
        """Table of the non-zero ``counts`` with the closure invariant restored.

        ``counts`` is a mapping or (gram, count) pairs, as a table iterates.
        A gram length outside 1..order or a negative count raises
        :class:`TableError`. Longest contexts are repaired first, so a
        raised k-gram feeds the sum of its own (k-1)-prefix.
        """
        if order < 1:
            raise TableError(f"order must be >= 1, got {order}")
        self.order = order
        levels: list[dict[Gram, Count]] = [{} for _ in range(order + 1)]
        for gram, count in dict(counts).items():
            if not 1 <= len(gram) <= order:
                raise TableError(f"gram length {len(gram)} outside 1..{order}: {gram}")
            # canonical counts first: summing Fractions that are integral is slow
            count = exact_count(count)
            if count < 0:
                raise TableError(f"negative count {count} for {gram}")
            if count:
                levels[len(gram)][gram] = count
        for k in range(order, 1, -1):
            contexts = levels[k - 1]
            for context, total in _extension_sums(levels[k].items()).items():
                if contexts.get(context, 0) < total:
                    contexts[context] = exact_count(total)
        self._counts: dict[Gram, Count] = {}
        for level in levels:
            self._counts.update(level)

    # -- basic access ------------------------------------------------------

    def count(self, gram: Gram) -> Count:
        return self._counts.get(tuple(gram), 0)

    def __len__(self) -> int:
        return len(self._counts)

    def __iter__(self) -> Iterator[tuple[Gram, Count]]:
        return iter(self._counts.items())

    def __contains__(self, gram: Gram) -> bool:
        return tuple(gram) in self._counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NGramTable):
            return NotImplemented
        return self.order == other.order and self._counts == other._counts

    def __repr__(self) -> str:
        return f"NGramTable(order={self.order}, grams={len(self._counts)})"

    def gram_set(self, length: int) -> frozenset[Gram]:
        return frozenset(g for g in self._counts if len(g) == length)

    # -- mutation ----------------------------------------------------------

    def inject(self, gram: Gram, count) -> None:
        """Add an artificial gram, incorporating any missing contexts.

        Every proper prefix whose closure would otherwise break is raised to
        the minimal sufficient count. ``count == 0`` leaves the counts as
        they are.
        """
        gram = tuple(gram)
        count = exact_count(count)
        if count < 0:
            raise TableError(f"negative injection count {count} for {gram}")
        counts = {**self._counts, gram: self._counts.get(gram, 0) + count}
        self._counts = NGramTable(self.order, counts)._counts

    def scale(self, factor, selector: Callable[[Gram], bool] | Collection[Gram] | None = None) -> None:
        """Multiply selected gram counts by a positive factor, then repair.

        ``selector`` may be a predicate, a collection of grams, or None for
        all grams.
        """
        factor = exact_count(factor)
        if factor <= 0:
            raise TableError(f"scale factor must be positive, got {factor}")
        if selector is not None and not callable(selector):
            selector = {tuple(g) for g in selector}.__contains__
        if factor == 1:
            return
        counts = {g: c * factor if selector is None or selector(g) else c
                  for g, c in self._counts.items()}
        self._counts = NGramTable(self.order, counts)._counts

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`TableError` naming the smallest context whose count
        is below the sum of its extensions, and how many there are."""
        counts = self._counts
        sums = _extension_sums((gram, count) for gram, count in counts.items() if len(gram) > 1)
        bad = [(context, counts.get(context, 0), total)
               for context, total in sums.items() if counts.get(context, 0) < total]
        if bad:
            context, have, total = min(bad)
            raise TableError(
                f"context closure violated at {context}: count {have} < "
                f"extension sum {total} ({len(bad)} violations)"
            )


def _extension_sums(grams: Iterable[tuple[Gram, Count]]) -> dict[Gram, Count]:
    """context -> sum of the counts of ``grams``, each extending it by one token."""
    sums: dict[Gram, Count] = {}
    for gram, count in grams:
        context = gram[:-1]
        sums[context] = sums.get(context, 0) + count
    return sums


def window_counts(corpus: Iterable[NU] | Mapping[NU, int], n: int) -> dict[Gram, int]:
    """Each padded n-gram window of the corpus with its count.

    ``corpus`` is NUs or an NU -> count mapping such as
    :attr:`classlm.normalize.Corpus.histogram`. Each utterance gets n-1
    start tags and one end tag, and has one window per scored position: the
    n tokens ending there. Each distinct NU is walked once, weighted by its
    count. This is the one counting kernel: :func:`extract` derives the
    shorter grams from it, :mod:`classlm.generalize` keeps the keys of the
    grammar's windows, and :meth:`classlm.lm.ClassNGramLM.score_windows`
    scores it.
    """
    histogram = corpus if isinstance(corpus, Mapping) else nu_histogram(corpus)
    lead = (SENT_START,) * (n - 1)
    windows: dict[Gram, int] = {}
    for nu, weight in histogram.items():
        padded = lead + nu + (SENT_END,)
        for window in zip(*[padded[j:] for j in range(n)]):
            windows[window] = windows.get(window, 0) + weight
    return windows


def extract(corpus: Iterable[NU] | Mapping[NU, int], n: int) -> NGramTable:
    """Count all k-grams (k = 1..n) of each utterance padded with boundaries.

    ``corpus`` is NUs or an NU -> count mapping. Each utterance gets n-1
    start tags and one end tag, so every scored position has a full-length
    context and closure holds with equality on interior contexts.

    The n-grams are the windows of :func:`window_counts`. The shorter grams
    follow level by level: a k-gram that does not open the padded utterance
    is the k-suffix of the (k+1)-gram ending at the same position, and for
    k < n the k-gram that opens it is a run of k start tags. So the k-gram
    counts are suffix sums over the distinct (k+1)-grams plus one start-tag
    run per utterance, which gives the run of k start tags the n-k
    occurrences it has inside the padding.
    """
    histogram = corpus if isinstance(corpus, Mapping) else nu_histogram(corpus)
    windows = window_counts(histogram, n)
    utterances = sum(histogram.values())
    lead = (SENT_START,) * (n - 1)
    totals = dict(windows)
    level = windows
    for k in range(n - 1, 0, -1):
        shorter: dict[Gram, int] = {}
        for gram, count in level.items():
            suffix = gram[1:]
            shorter[suffix] = shorter.get(suffix, 0) + count
        run = lead[:k]
        shorter[run] = shorter.get(run, 0) + utterances
        totals.update(shorter)
        level = shorter
    return NGramTable(n, totals)

