"""Backoff scoring of normalized utterances against a model's log10 tables.

The score at each position depends only on the padded window that ends
there, and a token maps to the unknown tag on its own, so a window always
scores the same. :meth:`Scorer.score_windows` is the one scoring loop: it
makes one backoff walk per distinct window of
:func:`classlm.ngrams.window_counts` and sums count times score with
:func:`math.fsum`, which is correctly rounded whatever the order.
:meth:`Scorer.score_corpus` counts a corpus's windows and scores them; one
utterance is the corpus that holds only it (:func:`classlm.lm.log_prob`).
The scorer derives all it reads from the model's tables.
"""

from __future__ import annotations

import math

from .ngrams import Gram, window_counts
from .vocab import SENT_END, SENT_START, UNK

_BOUNDARY = frozenset((SENT_START, SENT_END))


# read by the benchmark manifest; there is no compiled kernel
def extension_available() -> bool:
    return False


class Scorer:
    """Scoring half of :class:`~classlm.lm.ClassNGramLM`, built from its
    tables. ``vocab`` holds the unigram tokens, and ``width`` is the window
    length scored: the order, capped where no longer gram is stored nor a
    backoff weight on one as long, since a longer window scores like its
    suffix."""

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
        return math.fsum(terms), tokens, oov

    # read by the benchmark's tracer, which wraps it by this name and signature
    def score_corpus(self, nus, emission: bool) -> tuple[float, int, int]:
        """:meth:`score_windows` of the windows of ``nus``, which are NUs or
        an NU -> count mapping, counted at ``width``."""
        return self.score_windows(window_counts(nus, self.width), emission)
