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
padding is never scored. The score at each position depends only on the
padded window that ends there (a token maps to the unknown tag on its own),
so :meth:`ClassNGramLM.score_windows`, the one scoring loop, makes one
backoff walk per distinct window of :func:`classlm.ngrams.window_counts` and
sums with :func:`math.fsum`, which is correctly rounded whatever the order.
One utterance is the corpus that holds only it (:func:`log_prob`).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .errors import ModelError, open_text, parse_float, parse_int
from .ngrams import Gram, NGramTable, window_counts
from .normalize import NU
from .vocab import SENT_END, SENT_START, UNK, ClassLexicon

LN10 = math.log(10.0)
_BOUNDARY = frozenset((SENT_START, SENT_END))


class PerplexityReport(NamedTuple):
    pp: float
    log_prob_total: float  # natural log
    token_count: int
    oov_count: int

    @classmethod
    def of(cls, total10: float, tokens: int, oov: int) -> PerplexityReport:
        """Report of a log10 total over ``tokens`` scored tokens, ``oov`` of
        them out of vocabulary, as :meth:`ClassNGramLM.score_windows`
        returns them."""
        if not tokens:
            raise ModelError("cannot evaluate perplexity on an empty corpus")
        try:
            pp = 10.0 ** (-total10 / tokens)
        except OverflowError:
            pp = math.inf
        # a total that is inf or nan, or a perplexity that over- or underflows
        if not (math.isfinite(total10) and 0.0 < pp < math.inf):
            raise ModelError("perplexity past the float range")
        return cls(pp, total10 * LN10, tokens, oov)


def _fsum(terms: list[float]) -> float:
    """:func:`math.fsum` of ``terms`` without its exceptions: nan where inf
    meets -inf, and the exact sum rounded once where finite partial sums pass
    the float range (inf if it is past the range too)."""
    try:
        return math.fsum(terms)
    except ValueError:  # -inf + inf
        return math.nan
    except OverflowError:
        specials = [term for term in terms if not math.isfinite(term)]
        if specials:
            return sum(specials)
        from fractions import Fraction  # loaded only past the float range
        exact = sum(map(Fraction, terms))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


class ClassNGramLM:
    """Trained model: log10 conditional probabilities plus backoff weights,
    and the loop that scores corpora against them. ``vocab`` holds the
    unigram tokens, and ``width`` is the window length scored: the order,
    capped where no longer gram is stored nor a backoff weight on one as
    long, since a longer window scores like its suffix."""

    # read by the benchmark manifest
    backend = "python"

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
        stored = max(max(map(len, probs10), default=1), max(map(len, bows10), default=0) + 1)
        self.width = min(order, stored)

    def score_windows(self, windows, emission: bool) -> tuple[float, int, int]:
        """(log10 total, scored token count, oov count) of a corpus given as
        padded windows with their counts, as :func:`window_counts` returns.

        Each window is cut to its last ``width`` tokens. Its tokens outside
        the vocabulary map to ``<unk>``, but a boundary tag never does: every
        trained or imported model holds the ``<s>`` and ``</s>`` unigrams, so
        start padding and a literal tag score alike. A stored window costs
        one lookup; a miss walks the backoff chain, adding the backoff
        weights it passes. The total is :func:`math.fsum` of count times
        score, the token count the sum of the counts, and the oov count the
        summed count of the windows whose last token is mapped to ``<unk>``.
        A total past the float range comes back inf or nan, never as an
        exception, for :meth:`PerplexityReport.of` to reject.
        Raises :class:`ValueError` for a window shorter than ``width``, and
        :class:`KeyError` for a token without a unigram (a model lacking the
        ``<unk>`` unigram).
        """
        width = self.width
        vocab, probs10, bows10, emis10 = self.vocab, self.probs10, self.bows10, self._emis10
        terms = []
        tokens = oov = 0
        for window, count in windows.items():
            if len(window) < width:
                raise ValueError(f"window {window} shorter than the model's {width}")
            window = window[len(window) - width:]
            if not vocab.issuperset(window):
                if window[-1] not in vocab and window[-1] not in _BOUNDARY:
                    oov += count
                window = tuple(t if t in vocab or t in _BOUNDARY else UNK for t in window)
            score = probs10.get(window)
            if score is None:
                gram, backoff = window, 0.0
                while score is None:
                    if len(gram) == 1:
                        raise KeyError(gram[0])
                    bow = bows10.get(gram[:-1])
                    if bow is not None:
                        backoff += bow
                    gram = gram[1:]
                    score = probs10.get(gram)
                score += backoff
            if emission:
                emit = emis10.get(window[-1])
                if emit is not None:
                    score += emit
            terms.append(count * score)
            tokens += count
        return _fsum(terms), tokens, oov

    # read by the benchmark's tracer, which wraps it by this name and signature
    def score_corpus(self, nus, emission: bool) -> tuple[float, int, int]:
        """:meth:`score_windows` of the windows of ``nus``, which are NUs or
        an NU -> count mapping, counted at ``width``."""
        return self.score_windows(window_counts(nus, self.width), emission)

    def scorer(self) -> ClassNGramLM:  # read by the benchmark manifest
        return self

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
    already-smoothed lower level. Counts are the table's int numerators over
    its ``den`` (:meth:`NGramTable.level`); type counts are integers. Raises
    :class:`ModelError` when a context's count mass does not fit a float,
    naming the smallest such context of the lowest order that has one.

    Each quotient is one int true division of the exact rational, so it
    rounds once: a count ``C / den``, a context's scale ``(D + T*den) / den``
    and backoff weight ``T*den / (D + T*den)`` for mass D over T types, and
    a unigram ``(C*size + t_root*den) / ((N + t_root*den)*size)``.

    The table is not validated here: every :class:`NGramTable` holds the
    closure invariant once it is built.
    """
    unigrams = table.level(1)
    if not unigrams:
        raise ModelError("cannot train on an empty table")
    den = table.den

    # injected grams can mention tokens that never occur as unigrams; every
    # other token of a gram ends its stored prefix, so the closed vocabulary
    # collects the last token of every gram
    vocab = {gram[-1] for k in range(1, table.order + 1) for gram in table.level(k)}
    vocab |= lexicon.tags | {SENT_START, SENT_END, UNK}
    raw: dict[Gram, float] = {}
    raw_bow: dict[Gram, float] = {}

    # unigram level: interpolate with the uniform distribution over vocab
    # (count + t_root / size) / (n_total + t_root), as one exact quotient
    root = len(unigrams) * den
    size = len(vocab)
    denom = (sum(unigrams.values()) + root) * size
    for word in vocab:
        raw[(word,)] = (unigrams.get((word,), 0) * size + root) / denom

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
        groups: dict[Gram, list[tuple[str, int]]] = {}
        for gram, count in table.level(k).items():
            groups.setdefault(gram[:-1], []).append((gram[-1], count))
        overflowed = []
        for context, events in groups.items():
            types = len(events)
            mass = sum(count for _, count in events) + types * den
            try:
                scale = mass / den
            except OverflowError:
                overflowed.append(context)
                continue
            raw_bow[context] = types * den / mass
            for word, count in events:
                p_low = lookup(context[1:], word)
                raw[context + (word,)] = (count / den + types * p_low) / scale
        if overflowed:
            raise ModelError(
                f"counts of context {' '.join(min(overflowed))!r} sum past the float range"
            )

    probs10 = {gram: math.log10(p) for gram, p in raw.items()}
    bows10 = {context: math.log10(b) for context, b in raw_bow.items()}
    class_sizes = {tag: lexicon.class_size(tag) for tag in lexicon.tags}
    return ClassNGramLM(table.order, probs10, bows10, class_sizes)


def log_prob(model: ClassNGramLM, nu: NU, emission: bool = False) -> float:
    """Natural-log probability of an NU (end tag scored, start padding not):
    the score of the corpus that holds only it."""
    return model.score_corpus((tuple(nu),), emission)[0] * LN10


def perplexity(model, corpus, emission: bool = False) -> PerplexityReport:
    """Perplexity of ``model`` on ``corpus``: NUs, or an NU -> count mapping
    such as :attr:`classlm.normalize.Corpus.histogram`.

    The corpus's windows are counted once and each distinct window is
    scored once (:meth:`ClassNGramLM.score_corpus`). A caller that scores one
    corpus with several models counts its windows once with
    :func:`classlm.ngrams.window_counts` and passes the result of
    :meth:`ClassNGramLM.score_windows` to :meth:`PerplexityReport.of` instead.
    """
    return PerplexityReport.of(*model.score_corpus(corpus, emission))


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

    Raises :class:`ModelError` on malformed lines, a number not in the
    ASCII shape :func:`export_model` writes, non-finite values, log-probs
    above 0, a header that does not declare each order 1..K
    exactly once, a k-gram section the header does not declare, a gram or
    a class listed twice, a class of size 0, a missing ``<s>``, ``</s>``
    or ``<unk>`` unigram, and a k-gram whose (k-1)-prefix is not stored.
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
                    section = parse_int(stripped[1:-7])
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
                    k, count = parse_int(k_part), parse_int(count_part)
                except ValueError as exc:
                    raise ModelError(f"{path}:{lineno}: bad header line") from exc
                if k < 1 or k in header:
                    problem = "below 1" if k < 1 else "declared twice"
                    raise ModelError(f"{path}:{lineno}: order {k} {problem}")
                header[k] = count
            elif section == "classes":
                try:
                    tag, digits = stripped.split()
                    size = parse_int(digits)
                except ValueError as exc:
                    raise ModelError(f"{path}:{lineno}: expected 'TAG size'") from exc
                if tag in class_sizes:
                    raise ModelError(f"{path}:{lineno}: class {tag!r} listed twice")
                if not size:
                    raise ModelError(f"{path}:{lineno}: class {tag!r} is empty")
                class_sizes[tag] = size
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
                if gram in probs10:
                    raise ModelError(
                        f"{path}:{lineno}: {section}-gram {' '.join(gram)!r} listed twice"
                    )
                try:
                    prob = parse_float(fields[0])
                    bow = parse_float(fields[2]) if len(fields) == 3 else 0.0
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
    # distinct orders >= 1, none missing below their count: exactly 1..order
    order = len(header)
    missing = next((k for k in range(1, order + 1) if k not in header), None)
    if missing is not None:
        raise ModelError(f"{path}: header declares order {max(header)} but not order {missing}")
    found = Counter(map(len, probs10))
    for k, expected in header.items():
        if found[k] != expected:
            raise ModelError(
                f"{path}: header promises {expected} {k}-grams, found {found[k]}"
            )
    missing = [tag for tag in (SENT_START, SENT_END, UNK) if (tag,) not in probs10]
    if missing:
        raise ModelError(f"{path}: missing unigram for {', '.join(missing)}")
    # an unstored context has no backoff weight: its distribution would not sum to 1
    for gram in probs10:
        if len(gram) > 1 and gram[:-1] not in probs10:
            raise ModelError(f"{path}: {len(gram)}-gram {' '.join(gram)!r} has no stored prefix")
    return ClassNGramLM(order, probs10, bows10, class_sizes)
