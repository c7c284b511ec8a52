"""Backoff scoring of normalized utterances against a model's log10 tables.

:meth:`Scorer.score_utterance` is the one scoring path: it maps tokens
outside the vocabulary to the unknown tag, pads the utterance with start
tags and an end tag, and walks the backoff tables position by position.
"""

from __future__ import annotations

from .vocab import SENT_END, SENT_START, UNK


# read by the benchmark manifest; there is no compiled kernel
def extension_available() -> bool:
    return False


class Scorer:
    """Scores utterances against one model's log10 tables."""

    # read by the benchmark manifest
    backend = "python"

    def __init__(self, order, probs10, bows10, emis10, vocab):
        self.order = order
        self._probs10 = probs10
        self._bows10 = bows10
        self._emis10 = emis10
        self.vocab = vocab
        self._lead = (SENT_START,) * (order - 1)

    def score_utterance(self, nu, emission: bool) -> tuple[float, int, int]:
        """(log10 total, scored token count, oov count) for one utterance.

        The end tag is scored, the start padding is not. Raises
        :class:`KeyError` for a token without a unigram, which only a model
        lacking the ``<unk>`` unigram can reach.
        """
        vocab = self.vocab
        mapped = tuple(t if t in vocab else UNK for t in nu)
        oov = sum(1 for t in nu if t not in vocab) if UNK in mapped else 0
        tokens = self._lead + mapped + (SENT_END,)
        order = self.order
        probs10, bows10, emis10 = self._probs10, self._bows10, self._emis10
        total = 0.0
        for i in range(order - 1, len(tokens)):
            acc = 0.0
            start = i - order + 1
            while True:
                gram = tokens[start : i + 1]
                prob = probs10.get(gram)
                if prob is not None:
                    total += acc + prob
                    break
                if start == i:
                    # unigram miss; without this check start would pass i
                    # and the empty slices after it would loop forever
                    raise KeyError(tokens[i])
                bow = bows10.get(gram[:-1])
                if bow is not None:
                    acc += bow
                start += 1
            if emission:
                emit = emis10.get(tokens[i])
                if emit is not None:
                    total += emit
        return total, len(mapped) + 1, oov

    # read by the benchmark's tracer, which wraps it by this name and signature
    def score_corpus(self, nus, emission: bool) -> tuple[float, int, int]:
        """Per-utterance totals summed in corpus order."""
        total10 = 0.0
        tokens = 0
        oov = 0
        for nu in nus:
            nu_total10, nu_tokens, nu_oov = self.score_utterance(nu, emission)
            total10 += nu_total10
            tokens += nu_tokens
            oov += nu_oov
        return total10, tokens, oov
