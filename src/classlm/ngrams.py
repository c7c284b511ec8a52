"""N-gram tables with context closure.

A table stores counts for all gram lengths 1..order. The closure invariant
is that every context can pay for its extensions::

    count(c) >= sum over w of count(c + (w,))

Every table built from counts (:func:`extract`, :func:`load_table`,
:meth:`NGramTable.copy`) goes through :meth:`NGramTable.from_counts`, which
stores the counts and computes the extension sums in one pass. Tables built
by :func:`extract` satisfy the invariant by construction. Grams added
artificially (:meth:`NGramTable.inject`) or rescaled (:meth:`NGramTable.scale`)
get their prefixes repaired minimally: a violated context is raised exactly to
the sum of its extensions, never higher, so the empirical distribution is
perturbed as little as possible.

Counts are exact numbers (int, or Fraction after non-integer scaling), so
rescaling experiments are reproducible bit for bit; integral values are kept
as ints.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from fractions import Fraction

from .errors import TableError
from .normalize import NU
from .vocab import SENT_END, SENT_START

Gram = tuple[str, ...]
Count = int | Fraction


def _exact(value) -> Count:
    """Canonical exact count: int when integral, Fraction otherwise."""
    if isinstance(value, int):
        return value
    frac = Fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


class NGramTable:
    """Multiset of grams of lengths 1..order with exact counts.

    Single writer; treat as frozen once it is handed to a trainer.
    """

    __slots__ = ("order", "_counts", "_ext")

    def __init__(self, order: int):
        if order < 1:
            raise TableError(f"order must be >= 1, got {order}")
        self.order = order
        self._counts: dict[Gram, Count] = {}
        # context -> sum of extension counts, maintained incrementally
        self._ext: dict[Gram, Count] = {}

    @classmethod
    def from_counts(cls, order: int, counts: Mapping[Gram, Count]) -> "NGramTable":
        """Table holding the non-zero ``counts``, in their iteration order.

        Extension sums are computed in the same pass; no closure repair is
        done, so callers holding outside data call :meth:`validate`.
        """
        table = cls(order)
        stored = table._counts
        ext: dict[Gram, Count] = {}
        for gram, count in counts.items():
            count = _exact(count)
            if not count:
                continue
            stored[gram] = count
            if len(gram) > 1:
                prefix = gram[:-1]
                ext[prefix] = ext.get(prefix, 0) + count
        table._ext = {context: _exact(total) for context, total in ext.items() if total}
        return table

    # -- basic access ------------------------------------------------------

    def count(self, gram: Gram) -> Count:
        return self._counts.get(tuple(gram), 0)

    def extension_sum(self, context: Gram) -> Count:
        return self._ext.get(tuple(context), 0)

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

    def grams(self, length: int | None = None) -> list[Gram]:
        if length is None:
            return sorted(self._counts)
        return sorted(g for g in self._counts if len(g) == length)

    def gram_set(self, length: int) -> frozenset[Gram]:
        return frozenset(g for g in self._counts if len(g) == length)

    def vocabulary(self) -> frozenset[str]:
        return frozenset(g[0] for g in self._counts if len(g) == 1)

    def total(self, length: int) -> Count:
        return sum(c for g, c in self._counts.items() if len(g) == length)

    def copy(self) -> "NGramTable":
        return NGramTable.from_counts(self.order, self._counts)

    # -- mutation ----------------------------------------------------------

    def _set(self, gram: Gram, value: Count) -> None:
        value = _exact(value)
        old = self._counts.get(gram, 0)
        if value == old:
            return
        if value:
            self._counts[gram] = value
        else:
            self._counts.pop(gram, None)
        if len(gram) > 1:
            prefix = gram[:-1]
            ext = _exact(self._ext.get(prefix, 0) + (value - old))
            if ext:
                self._ext[prefix] = ext
            else:
                self._ext.pop(prefix, None)

    def _bump(self, gram: Gram, delta: Count) -> None:
        self._set(gram, self._counts.get(gram, 0) + delta)

    def add_counts(self, other: "NGramTable") -> None:
        """Pointwise count addition (shard merge), then one repair pass."""
        if other.order > self.order:
            raise TableError(
                f"cannot merge order-{other.order} table into order-{self.order}"
            )
        for gram, cnt in sorted(other._counts.items()):
            self._bump(gram, cnt)
        self._repair_all()

    def inject(self, gram: Gram, count) -> None:
        """Add an artificial gram, incorporating any missing contexts.

        Every proper prefix whose closure would otherwise break is raised to
        the minimal sufficient count. ``count == 0`` is a no-op.
        """
        gram = tuple(gram)
        if not 1 <= len(gram) <= self.order:
            raise TableError(
                f"gram length {len(gram)} outside 1..{self.order}: {gram}"
            )
        count = _exact(count)
        if count < 0:
            raise TableError(f"negative injection count {count} for {gram}")
        if count == 0:
            return
        self._bump(gram, count)
        for k in range(len(gram) - 1, 0, -1):
            prefix = gram[:k]
            need = self._ext.get(prefix, 0)
            if self._counts.get(prefix, 0) < need:
                self._set(prefix, need)

    def scale(self, factor, selector: Callable[[Gram], bool] | Collection[Gram] | None = None) -> None:
        """Multiply selected gram counts by a positive factor, then repair.

        ``selector`` may be a predicate, a collection of grams, or None for
        all grams.
        """
        factor = _exact(factor)
        if factor <= 0:
            raise TableError(f"scale factor must be positive, got {factor}")
        if selector is None:
            chosen = list(self._counts)
        elif callable(selector):
            chosen = [g for g in self._counts if selector(g)]
        else:
            wanted = {tuple(g) for g in selector}
            chosen = [g for g in self._counts if g in wanted]
        if factor == 1:
            return
        for gram in sorted(chosen):
            self._set(gram, self._counts[gram] * factor)
        self._repair_all()

    def _repair_all(self) -> None:
        # Longest contexts first: raising a k-gram feeds into the (k-1) pass.
        for k in range(self.order - 1, 0, -1):
            for context in [g for g in self._counts if len(g) == k]:
                need = self._ext.get(context, 0)
                if self._counts[context] < need:
                    self._set(context, need)

    # -- validation --------------------------------------------------------

    def closure_violations(self) -> list[tuple[Gram, Count, Count]]:
        """Contexts with count < extension sum, as (context, count, needed)."""
        bad = []
        for context, need in sorted(self._ext.items()):
            have = self._counts.get(context, 0)
            if have < need:
                bad.append((context, have, need))
        return bad

    def validate(self) -> None:
        for gram, cnt in self._counts.items():
            if not 1 <= len(gram) <= self.order:
                raise TableError(f"gram {gram} outside orders 1..{self.order}")
            if cnt < 0:
                raise TableError(f"negative count {cnt} for {gram}")
        bad = self.closure_violations()
        if bad:
            context, have, need = bad[0]
            raise TableError(
                f"context closure violated at {context}: count {have} < "
                f"extension sum {need} ({len(bad)} violations)"
            )

    # -- persistence -------------------------------------------------------

    def save(self, path) -> None:
        """Write ``count<TAB>tok1 tok2 ...`` lines, sorted lexicographically."""
        with open(path, "w", encoding="utf-8") as fh:
            for gram in sorted(self._counts):
                fh.write(f"{self._counts[gram]}\t{' '.join(gram)}\n")


def load_table(path, order: int | None = None) -> NGramTable:
    """Read a table file; order defaults to the longest gram present.

    Counts of repeated grams are summed.
    """
    counts: dict[Gram, Count] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise TableError(f"{path}:{lineno}: expected 'count<TAB>tokens'")
            count_part, _, gram_part = line.partition("\t")
            try:
                count = _exact(Fraction(count_part))
            except (ValueError, ZeroDivisionError) as exc:
                raise TableError(f"{path}:{lineno}: bad count {count_part!r}") from exc
            gram = tuple(gram_part.split())
            if not gram:
                raise TableError(f"{path}:{lineno}: empty gram")
            counts[gram] = counts.get(gram, 0) + count
    if order is None:
        if not counts:
            raise TableError(f"{path}: empty table, pass an explicit order")
        order = max(len(g) for g in counts)
    for gram in counts:
        if len(gram) > order:
            raise TableError(f"{path}: gram {gram} longer than order {order}")
    table = NGramTable.from_counts(order, counts)
    table.validate()
    return table


def extract(corpus: Iterable[NU], n: int) -> NGramTable:
    """Count all k-grams (k = 1..n) of each utterance padded with boundaries.

    Each utterance gets n-1 start tags and one end tag, so every scored
    position has a full-length context and closure holds with equality on
    interior contexts.
    """
    counts: dict[Gram, int] = {}
    lead = (SENT_START,) * (n - 1)
    for nu in corpus:
        padded = lead + tuple(nu) + (SENT_END,)
        for k in range(1, n + 1):
            for i in range(len(padded) - k + 1):
                gram = padded[i : i + k]
                counts[gram] = counts.get(gram, 0) + 1
    return NGramTable.from_counts(n, counts)
