"""N-gram tables with context closure.

A table stores counts for all gram lengths 1..order. The closure invariant
is that every context can pay for its extensions::

    count(c) >= sum over w of count(c + (w,))

Every table holds the invariant: a context that falls short of the sum of
its extensions is raised exactly to that sum, never higher, so the empirical
distribution is perturbed as little as possible. Tables from :func:`extract`
hold it as counted; the grammar's distinct windows in
:func:`classlm.generalize.build_generalized_lm`, the edits
:meth:`NGramTable.inject` and :meth:`NGramTable.scale`, and
:func:`classlm.generalize.merge_tables` are repaired by it.

Corpora are counted by one kernel, :func:`window_counts`: each padded
top-order window with its count. Training tables (:func:`extract`), the
grammar's distinct windows in :mod:`classlm.generalize` and scoring
(:meth:`classlm.lm.ClassNGramLM.score_windows`) all start from it.

Counts are exact: int numerators per gram length over one int denominator,
:attr:`NGramTable.den`, 1 for every counted table and grown only by a
non-integral factor, so rescaling is reproducible bit for bit; a count read
back is an int when integral and a :class:`~fractions.Fraction` otherwise.

A table is a multiset: its iteration order is unspecified and nothing built
from it may depend on that order. The model writer,
:func:`classlm.lm.export_model`, sorts what it writes, so the same counts give
the same bytes.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from itertools import chain
from math import lcm

from .errors import TableError
from .normalize import NU, nu_histogram
from .vocab import SENT_END, SENT_START

Gram = tuple[str, ...]


class NGramTable:
    """Multiset of grams of lengths 1..order with exact counts: the int
    numerators of each :meth:`level` over the int denominator :attr:`den`.

    Single writer; treat as frozen once it is handed to a trainer.
    """

    __slots__ = ("order", "den", "_levels")

    def __init__(self, order: int,
                 counts: Mapping[Gram, object] | Iterable[tuple[Gram, object]] = ()):
        """Table of the non-zero ``counts`` with the closure invariant restored.

        ``counts`` is a mapping or (gram, count) pairs, as a table iterates,
        of exact counts (int or Fraction); :attr:`den` is their least common
        denominator. A gram length outside 1..order or a negative count
        raises :class:`TableError`.
        """
        if order < 1:
            raise TableError(f"order must be >= 1, got {order}")
        ratios = {}
        for gram, count in dict(counts).items():
            if not 1 <= len(gram) <= order:
                raise TableError(f"gram length {len(gram)} outside 1..{order}: {gram}")
            if count < 0:
                raise TableError(f"negative count {count} for {gram}")
            ratios[gram] = count.as_integer_ratio()
        den = lcm(*(q for _, q in ratios.values()))
        levels: list[dict[Gram, int]] = [{} for _ in range(order)]
        for gram, (p, q) in ratios.items():
            if p:
                levels[len(gram) - 1][gram] = p * (den // q)
        self.order, self.den, self._levels = order, den, levels
        self._close()

    @classmethod
    def from_levels(cls, levels: list[dict[Gram, int]], den: int = 1) -> NGramTable:
        """Table of ``levels[k - 1]``, the positive int numerators of the
        k-grams over ``den``, taken over, with the closure invariant restored."""
        table = cls.__new__(cls)
        table.order, table.den, table._levels = len(levels), den, levels
        table._close()
        return table

    def _close(self) -> None:
        """Raise each short context to its extensions' sum, longest ones first."""
        levels = self._levels
        for k in range(len(levels) - 1, 0, -1):
            for context, total in _extension_sums(levels[k]).items():
                if levels[k - 1].get(context, 0) < total:
                    levels[k - 1][context] = total

    # -- basic access ------------------------------------------------------

    def level(self, length: int) -> dict[Gram, int]:
        """The numerators of the grams of ``length`` over :attr:`den`; read only."""
        return self._levels[length - 1] if 1 <= length <= self.order else {}

    def _value(self, num: int):
        """``num / den`` exactly: an int when integral, else a Fraction."""
        if not num % self.den:
            return num // self.den
        from fractions import Fraction
        return Fraction(num, self.den)

    def count(self, gram: Gram):
        return self._value(self.level(len(gram)).get(tuple(gram), 0))

    def __len__(self) -> int:
        return sum(map(len, self._levels))

    def __iter__(self) -> Iterator[tuple[Gram, object]]:
        return ((gram, self._value(num)) for level in self._levels for gram, num in level.items())

    def __contains__(self, gram: Gram) -> bool:
        return tuple(gram) in self.level(len(gram))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NGramTable):
            return NotImplemented
        return self.order == other.order and dict(self) == dict(other)

    def __repr__(self) -> str:
        return f"NGramTable(order={self.order}, grams={len(self)})"

    def gram_set(self, length: int) -> frozenset[Gram]:
        return frozenset(self.level(length))

    # -- mutation ----------------------------------------------------------

    def inject(self, gram: Gram, count) -> None:
        """Add an artificial gram with an exact count (int or Fraction),
        incorporating any missing contexts.

        Every proper prefix whose closure would otherwise break is raised to
        the minimal sufficient count. ``count == 0`` leaves the counts as
        they are.
        """
        gram = tuple(gram)
        if count < 0:
            raise TableError(f"negative injection count {count} for {gram}")
        table = NGramTable(self.order, [*self, (gram, self.count(gram) + count)])
        self.den, self._levels = table.den, table._levels

    def scale(self, factor, selector: Callable[[Gram], bool] | Collection[Gram] | None = None) -> None:
        """Multiply selected gram counts by a positive factor, then repair.

        ``selector`` may be a predicate, a collection of grams, or None for
        all grams. A factor p/q multiplies the selected numerators by p, the
        others by q, and :attr:`den` by q.
        """
        p, q = factor.as_integer_ratio()
        if p <= 0:
            raise TableError(f"scale factor must be positive, got {factor}")
        if selector is not None and not callable(selector):
            selector = {tuple(g) for g in selector}.__contains__
        if p == q:
            return
        self._levels = [{g: c * p if selector is None or selector(g) else c * q
                         for g, c in level.items()} for level in self._levels]
        self.den *= q
        self._close()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`TableError` naming the smallest context whose count
        is below the sum of its extensions, and how many there are."""
        levels = self._levels
        bad = [(context, levels[k - 1].get(context, 0), total)
               for k in range(1, self.order)
               for context, total in _extension_sums(levels[k]).items()
               if levels[k - 1].get(context, 0) < total]
        if bad:
            context, have, total = min(bad)
            raise TableError(
                f"context closure violated at {context}: count {self._value(have)} < "
                f"extension sum {self._value(total)} ({len(bad)} violations)"
            )


def _extension_sums(level: Mapping[Gram, int]) -> dict[Gram, int]:
    """context -> sum of the numerators of ``level``'s grams, each extending
    it by one token."""
    sums: dict[Gram, int] = {}
    for gram, count in level.items():
        context = gram[:-1]
        sums[context] = sums.get(context, 0) + count
    return sums


def window_counts(corpus: Iterable[NU] | Mapping[NU, int], n: int) -> dict[Gram, int]:
    """Each padded n-gram window of the corpus with its count.

    ``corpus`` is NUs or an NU -> count mapping such as
    :attr:`classlm.normalize.Corpus.histogram`. Each utterance gets n-1
    start tags and one end tag, and has one window per scored position: the
    n tokens ending there. Each distinct NU of non-zero count is walked
    once, weighted by it: the NUs of one count are counted together, in one
    :class:`~collections.Counter` pass over their chained windows, and each
    window then gains that count times its tally. This is the one counting
    kernel: :func:`extract` derives the shorter grams from it,
    :mod:`classlm.generalize` keeps the keys of the grammar's windows, and
    :meth:`classlm.lm.ClassNGramLM.score_windows` scores it.
    """
    histogram = corpus if isinstance(corpus, Mapping) else nu_histogram(corpus)
    lead = (SENT_START,) * (n - 1)
    end = (SENT_END,)
    by_weight: dict[int, list[NU]] = {}
    for nu, weight in histogram.items():
        if weight:
            by_weight.setdefault(weight, []).append(nu)
    windows: dict[Gram, int] = {}
    for weight, nus in by_weight.items():
        padded = [lead + nu + end for nu in nus]
        tallies = Counter(chain.from_iterable(
            zip(*[utterance[j:] for j in range(n)]) for utterance in padded))
        for window, tally in tallies.items():
            windows[window] = windows.get(window, 0) + tally * weight
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
    if n < 1:
        raise TableError(f"order must be >= 1, got {n}")
    histogram = corpus if isinstance(corpus, Mapping) else nu_histogram(corpus)
    if any(weight < 0 for weight in histogram.values()):
        raise TableError("negative utterance count in the corpus")
    levels = [window_counts(histogram, n)]
    utterances = sum(histogram.values())
    lead = (SENT_START,) * (n - 1)
    for k in range(n - 1, 0, -1):
        shorter = {lead[:k]: utterances} if utterances else {}
        for gram, count in levels[-1].items():
            suffix = gram[1:]
            shorter[suffix] = shorter.get(suffix, 0) + count
        levels.append(shorter)
    return NGramTable.from_levels(levels[::-1])
