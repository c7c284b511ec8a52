"""Backoff scoring of normalized utterances against a model's log10 tables.

The score at each position depends only on the padded window that ends
there, and a token maps to the unknown tag on its own, so a window always
scores the same. :meth:`Scorer.score_windows` is the one corpus scoring
path: it makes one backoff walk per distinct window of
:func:`classlm.ngrams.window_counts` and sums count times score with
:func:`math.fsum`, which is correctly rounded whatever the order.
:meth:`Scorer.score_corpus` counts a corpus's windows and scores them;
:meth:`Scorer.score_utterance` walks one utterance's windows in position
order. Each walk looks up the window and follows the backoff tables only
where that window is not stored.
"""

from __future__ import annotations

import math

from .ngrams import window_counts
from .vocab import SENT_END, SENT_START, UNK

_BOUNDARY = frozenset((SENT_START, SENT_END))


# read by the benchmark manifest; there is no compiled kernel
def extension_available() -> bool:
    return False


class Scorer:
    """Scoring half of :class:`~classlm.lm.ClassNGramLM`, which sets the
    ``probs10``, ``bows10``, ``vocab``, ``_emis10`` and ``_lead`` it reads."""

    # read by the benchmark manifest
    backend = "python"

    def _walk(self, gram) -> float:
        """log10 probability of the last token of ``gram`` given the rest.

        A stored gram costs one lookup; a miss walks the backoff chain,
        adding the backoff weights it passes to the probability it ends on.
        Raises :class:`KeyError` for a token without a unigram, which only a
        model lacking the ``<unk>`` unigram can reach.
        """
        probs10 = self.probs10
        prob = probs10.get(gram)
        if prob is not None:
            return prob
        bows10 = self.bows10
        acc = 0.0
        while prob is None:
            if len(gram) == 1:
                raise KeyError(gram[0])
            bow = bows10.get(gram[:-1])
            if bow is not None:
                acc += bow
            gram = gram[1:]
            prob = probs10.get(gram)
        return acc + prob

    def score_utterance(self, nu, emission: bool) -> tuple[float, int, int]:
        """(log10 total, scored token count, oov count) for one utterance.

        Tokens outside the vocabulary map to ``<unk>``. The end tag is
        scored, the start padding is not; the scores of the windows are added
        in position order.
        """
        vocab = self.vocab
        mapped = tuple(nu)
        oov = 0
        if not vocab.issuperset(mapped):
            oov = sum(1 for t in mapped if t not in vocab)
            mapped = tuple(t if t in vocab else UNK for t in mapped)
        tokens = self._lead + mapped + (SENT_END,)
        walk, emis10 = self._walk, self._emis10
        total = 0.0
        for gram in zip(*[tokens[j:] for j in range(len(self._lead) + 1)]):
            total += walk(gram)
            if emission:
                emit = emis10.get(gram[-1])
                if emit is not None:
                    total += emit
        return total, len(mapped) + 1, oov

    def score_windows(self, windows, emission: bool) -> tuple[float, int, int]:
        """(log10 total, scored token count, oov count) of a corpus given as
        padded windows with their counts, as :func:`window_counts` returns.

        Each window is cut to the model's window (its last ``len(_lead) + 1``
        tokens) and walked once. Its tokens outside the vocabulary map to
        ``<unk>``, but a boundary tag never does: every trained or imported
        model holds the ``<s>`` and ``</s>`` unigrams, so start padding and a
        literal tag score alike. The total is :func:`math.fsum` of count
        times score, the token count the sum of the counts, and the oov
        count the summed count of the windows whose last token is mapped to
        ``<unk>``.
        Raises :class:`ValueError` for a window shorter than the model's.
        """
        width = len(self._lead) + 1
        vocab, walk, emis10 = self.vocab, self._walk, self._emis10
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
            score = walk(window)
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
        an NU -> count mapping, counted at the model's window."""
        return self.score_windows(window_counts(nus, len(self._lead) + 1), emission)
