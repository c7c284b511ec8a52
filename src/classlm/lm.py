"""Smoothed backoff class n-gram language model.

Training uses Witten-Bell smoothing with interpolation folded into the
stored probabilities, so the model evaluates in standard backoff form:

    P(w | c) = prob[c + (w,)]          if the gram is stored
             = bow[c] * P(w | c[1:])   otherwise

For a context c with event mass D(c) (sum of extension counts) and T(c)
distinct extension types:

    prob[c + (w,)] = (C(c+(w,)) + T(c) * P(w | c[1:])) / (D(c) + T(c))
    bow[c]         = T(c) / (D(c) + T(c))

which sums to one exactly over the vocabulary at every context. The unigram
level interpolates with the uniform distribution over the closed vocabulary
(lexicon tags, training tokens, and the boundary/unknown tags), which is what
gives the unknown tag its mass.

Class tags emit their member words with equal probability, so word-level
scores add log(1/class_size) per tag occurrence; class-level scores skip
that term.

Perplexity convention: the end tag is scored once per utterance, start
padding is never scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ModelError, open_text
from .ngrams import Gram, NGramTable
from .normalize import NU
from .score import Scorer
from .vocab import SENT_END, SENT_START, UNK, ClassLexicon

LN10 = math.log(10.0)


@dataclass(frozen=True)
class PerplexityReport:
    pp: float
    log_prob_total: float  # natural log
    token_count: int
    oov_count: int


class ClassNGramLM:
    """Trained model: log10 conditional probabilities plus backoff weights."""

    def __init__(
        self,
        order: int,
        probs10: dict[Gram, float],
        bows10: dict[Gram, float],
        class_sizes: dict[str, int],
    ):
        self.order = order
        self.probs10 = probs10
        self.bows10 = bows10
        self.class_sizes = class_sizes
        self.vocab: frozenset[str] = frozenset(g[0] for g in probs10 if len(g) == 1)
        self._emis10 = {
            tag: -math.log10(size) for tag, size in class_sizes.items() if size > 1
        }
        self._scorer: Scorer | None = None

    def scorer(self) -> Scorer:
        if self._scorer is None:
            self._scorer = Scorer(
                self.order, self.probs10, self.bows10, self._emis10, self.vocab
            )
        return self._scorer

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClassNGramLM):
            return NotImplemented
        return (
            self.order == other.order
            and self.probs10 == other.probs10
            and self.bows10 == other.bows10
            and self.class_sizes == other.class_sizes
        )

    def __repr__(self) -> str:
        return (
            f"ClassNGramLM(order={self.order}, grams={len(self.probs10)}, "
            f"vocab={len(self.vocab)})"
        )


def train(table: NGramTable, lexicon: ClassLexicon) -> ClassNGramLM:
    """Estimate a model from a closure-valid count table.

    Levels are built bottom-up so each conditional can interpolate with the
    already-smoothed lower level. Counts may be fractional (rescaled
    tables); type counts are always integers. Raises :class:`ModelError`
    when a context's count mass does not fit a float, naming the smallest
    such context of the lowest order that has one.

    Each unigram probability and backoff weight is one quotient of exact
    counts, ``num / den``. On int counts that is int true division, which
    rounds correctly, so it gives the float of the exact rational; on
    Fraction counts it is Fraction division, rounded once by ``float``.

    The table is not validated here: :func:`classlm.ngrams.extract` and
    :meth:`NGramTable.closed` build closure-valid tables, and
    :func:`classlm.ngrams.load_table` validates the ones read from files.
    """
    unigram_counts = {g[0]: c for g, c in table if len(g) == 1 and c > 0}
    if not unigram_counts:
        raise ModelError("cannot train on an empty table")

    # injected grams can mention tokens that never occur as unigrams, so the
    # closed vocabulary collects tokens from every gram position
    table_tokens = {token for gram, _ in table for token in gram}
    vocab = table_tokens | lexicon.tags | {SENT_START, SENT_END, UNK}
    raw: dict[Gram, float] = {}
    raw_bow: dict[Gram, float] = {}

    # unigram level: interpolate with the uniform distribution over vocab
    # (count + t_root / size) / (n_total + t_root), as one exact quotient
    n_total = sum(unigram_counts.values())
    t_root = len(unigram_counts)
    size = len(vocab)
    denom = (n_total + t_root) * size
    for word in vocab:
        raw[(word,)] = float((unigram_counts.get(word, 0) * size + t_root) / denom)

    def lookup(context: Gram, word: str) -> float:
        acc = 1.0
        while context:
            prob = raw.get(context + (word,))
            if prob is not None:
                return acc * prob
            acc *= raw_bow.get(context, 1.0)
            context = context[1:]
        return acc * raw[(word,)]

    for k in range(2, table.order + 1):
        groups: dict[Gram, list[tuple[str, object]]] = {}
        for gram, count in table:
            if len(gram) == k and count > 0:
                groups.setdefault(gram[:-1], []).append((gram[-1], count))
        overflowed = []
        for context, events in groups.items():
            mass = sum(count for _, count in events)
            types = len(events)
            try:
                scale = float(mass + types)
            except OverflowError:
                overflowed.append(context)
                continue
            raw_bow[context] = float(types / (mass + types))
            for word, count in events:
                p_low = lookup(context[1:], word)
                raw[context + (word,)] = (float(count) + types * p_low) / scale
        if overflowed:
            raise ModelError(
                f"counts of context {' '.join(min(overflowed))!r} sum past the float range"
            )

    probs10 = {gram: math.log10(p) for gram, p in raw.items()}
    bows10 = {context: math.log10(b) for context, b in raw_bow.items()}
    class_sizes = {tag: lexicon.class_size(tag) for tag in lexicon.tags}
    return ClassNGramLM(table.order, probs10, bows10, class_sizes)


def log_prob(model: ClassNGramLM, nu: NU, emission: bool = False) -> float:
    """Natural-log probability of an NU (end tag scored, start padding not)."""
    total10, _, _ = model.scorer().score_utterance(nu, emission)
    return total10 * LN10


def perplexity(model, corpus, emission: bool = False) -> PerplexityReport:
    corpus = list(corpus)
    if not corpus:
        raise ModelError("cannot evaluate perplexity on an empty corpus")
    total10, tokens, oov = model.scorer().score_corpus(
        [tuple(nu) for nu in corpus], emission
    )
    pp = 10.0 ** (-total10 / tokens)
    return PerplexityReport(pp, total10 * LN10, tokens, oov)


# -- persistence (ARPA-style text format) -----------------------------------

_FORMAT_LINE = "# classlm model format v1"


def export_model(model: ClassNGramLM, path) -> None:
    """Write the model in an ARPA-style text format.

    Floats are serialized with shortest round-trip repr, so export after
    import reproduces the file byte for byte. A class-sizes section carries
    what word-level scoring needs; readers of plain ARPA data can skip it.
    """
    by_order: dict[int, list[Gram]] = {}
    for gram in model.probs10:
        by_order.setdefault(len(gram), []).append(gram)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_FORMAT_LINE + "\n\n\\data\\\n")
        for k in range(1, model.order + 1):
            fh.write(f"ngram {k}={len(by_order.get(k, ()))}\n")
        fh.write("\n\\class-sizes:\n")
        for tag in sorted(model.class_sizes):
            fh.write(f"{tag} {model.class_sizes[tag]}\n")
        for k in range(1, model.order + 1):
            fh.write(f"\n\\{k}-grams:\n")
            for gram in sorted(by_order.get(k, ())):
                line = f"{model.probs10[gram]!r}\t{' '.join(gram)}"
                bow = model.bows10.get(gram)
                if bow is not None:
                    line += f"\t{bow!r}"
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")


def import_model(path) -> ClassNGramLM:
    """Read a model written by :func:`export_model`.

    Raises :class:`ModelError` on malformed lines, non-finite values,
    log-probs above 0, a k-gram section the header does not declare, a
    missing ``<s>``, ``</s>`` or ``<unk>`` unigram, and a k-gram whose
    (k-1)-prefix is not stored.
    """
    header: dict[int, int] = {}
    probs10: dict[Gram, float] = {}
    bows10: dict[Gram, float] = {}
    class_sizes: dict[str, int] = {}
    section = None
    saw_data = False
    saw_end = False
    with open_text(path, ModelError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("# classlm model format"):
                if stripped != _FORMAT_LINE:
                    raise ModelError(f"{path}:{lineno}: unsupported format version")
                continue
            if stripped.startswith("#"):
                continue
            if stripped == "\\data\\":
                saw_data = True
                section = "data"
                continue
            if stripped == "\\class-sizes:":
                section = "classes"
                continue
            if stripped.endswith("-grams:") and stripped.startswith("\\"):
                try:
                    section = int(stripped[1:-7])
                except ValueError as exc:
                    raise ModelError(f"{path}:{lineno}: bad section {stripped!r}") from exc
                if section not in header:
                    raise ModelError(
                        f"{path}:{lineno}: section {stripped!r} not declared in the header"
                    )
                continue
            if stripped == "\\end\\":
                saw_end = True
                break
            if section == "data":
                if not stripped.startswith("ngram "):
                    raise ModelError(f"{path}:{lineno}: expected 'ngram k=count'")
                try:
                    k_part, count_part = stripped[6:].split("=")
                    header[int(k_part)] = int(count_part)
                except ValueError as exc:
                    raise ModelError(f"{path}:{lineno}: bad header line") from exc
            elif section == "classes":
                parts = stripped.split()
                if len(parts) != 2 or not parts[1].isdigit():
                    raise ModelError(f"{path}:{lineno}: expected 'TAG size'")
                class_sizes[parts[0]] = int(parts[1])
            elif isinstance(section, int):
                fields = line.split("\t")
                if len(fields) not in (2, 3):
                    raise ModelError(f"{path}:{lineno}: expected 2 or 3 fields")
                gram = tuple(fields[1].split())
                if len(gram) != section:
                    raise ModelError(
                        f"{path}:{lineno}: gram length {len(gram)} in "
                        f"{section}-gram section"
                    )
                try:
                    prob = float(fields[0])
                    bow = float(fields[2]) if len(fields) == 3 else 0.0
                except ValueError as exc:
                    raise ModelError(f"{path}:{lineno}: bad float") from exc
                if not (math.isfinite(prob) and math.isfinite(bow)):
                    raise ModelError(f"{path}:{lineno}: non-finite value")
                if prob > 0:
                    raise ModelError(f"{path}:{lineno}: log-prob {prob!r} above 0")
                probs10[gram] = prob
                if len(fields) == 3:
                    bows10[gram] = bow
            else:
                raise ModelError(f"{path}:{lineno}: content outside any section")
    if not saw_data:
        raise ModelError(f"{path}: missing \\data\\ section")
    if not saw_end:
        raise ModelError(f"{path}: truncated file (no \\end\\ marker)")
    if not header:
        raise ModelError(f"{path}: empty header")
    order = max(header)
    for k, expected in header.items():
        actual = sum(1 for g in probs10 if len(g) == k)
        if actual != expected:
            raise ModelError(
                f"{path}: header promises {expected} {k}-grams, found {actual}"
            )
    missing = [tag for tag in (SENT_START, SENT_END, UNK) if (tag,) not in probs10]
    if missing:
        raise ModelError(f"{path}: missing unigram for {', '.join(missing)}")
    # an unstored context has no backoff weight: its distribution would not sum to 1
    for gram in probs10:
        if len(gram) > 1 and gram[:-1] not in probs10:
            raise ModelError(f"{path}: {len(gram)}-gram {' '.join(gram)!r} has no stored prefix")
    return ClassNGramLM(order, probs10, bows10, class_sizes)
