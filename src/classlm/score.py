"""Backoff scoring of normalized utterances against a model's log10 tables.

:meth:`Scorer.score_utterance` is the one scoring path: it maps tokens
outside the vocabulary to the unknown tag, pads the utterance with start
tags and an end tag, and looks up the full-order window ending at each
scored position, walking the backoff tables only where that window is not
stored.
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

        Each scored position is the last token of one full-order window. A
        window stored in the model costs one lookup and one add; only a
        miss walks the backoff chain, adding the backoff weights it passes
        to the probability it ends on before adding that to the total.
        """
        vocab = self.vocab
        mapped = tuple(nu)
        oov = 0
        if not vocab.issuperset(mapped):
            oov = sum(1 for t in mapped if t not in vocab)
            mapped = tuple(t if t in vocab else UNK for t in mapped)
        tokens = self._lead + mapped + (SENT_END,)
        probs10, bows10, emis10 = self._probs10, self._bows10, self._emis10
        total = 0.0
        for gram in zip(*[tokens[j:] for j in range(self.order)]):
            prob = probs10.get(gram)
            if prob is not None:
                # the walk below would add 0.0 + prob, which is prob
                total += prob
            else:
                acc = 0.0
                while prob is None:
                    if len(gram) == 1:
                        raise KeyError(gram[0])
                    bow = bows10.get(gram[:-1])
                    if bow is not None:
                        acc += bow
                    gram = gram[1:]
                    prob = probs10.get(gram)
                total += acc + prob
            if emission:
                emit = emis10.get(gram[-1])
                if emit is not None:
                    total += emit
        return total, len(mapped) + 1, oov

    # read by the benchmark's tracer, which wraps it by this name and signature
    def score_corpus(self, nus, emission: bool) -> tuple[float, int, int]:
        """Per-utterance totals summed in corpus order.

        Each distinct NU is scored once; the float totals are still added one
        utterance at a time in corpus order, so the sum is the same to the
        last bit as scoring every utterance.
        """
        scored: dict = {}
        total10 = 0.0
        tokens = 0
        oov = 0
        for nu in nus:
            result = scored.get(nu)
            if result is None:
                result = scored[nu] = self.score_utterance(nu, emission)
            nu_total10, nu_tokens, nu_oov = result
            total10 += nu_total10
            tokens += nu_tokens
            oov += nu_oov
        return total10, tokens, oov
