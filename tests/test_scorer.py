import pytest

from classlm.lm import ClassNGramLM
from classlm.vocab import UNK


def test_python_backend_always_available(model_small):
    scorer = model_small.scorer()
    assert scorer.backend == "python"


def test_out_of_vocab_token_raises(model_small):
    # a model built in code without an <unk> unigram has nowhere to back off
    # to; the walk must stop with KeyError instead of running past the token
    probs10 = {g: p for g, p in model_small.probs10.items() if UNK not in g}
    model = ClassNGramLM(model_small.order, probs10, model_small.bows10,
                         model_small.class_sizes)
    with pytest.raises(KeyError):
        model.scorer().score_utterance(("from", "definitely-not-in-vocab"), False)


def corpus_order_sum(scorer, nus, emission):
    total10, tokens, oov = 0.0, 0, 0
    for nu in nus:
        nu_total10, nu_tokens, nu_oov = scorer.score_utterance(nu, emission)
        total10 += nu_total10
        tokens += nu_tokens
        oov += nu_oov
    return total10, tokens, oov


@pytest.mark.parametrize("emission", [False, True])
def test_score_corpus_with_repeats_is_the_corpus_order_sum(model_small, splits, emission):
    scorer = model_small.scorer()
    nus = [tuple(nu) for nu in splits["nus"]["test"]]
    nus += [("from", "zzyzx")] * 3 + nus[::-1]
    assert len(set(nus)) * 2 < len(nus)
    # exact equality: each float is added in corpus order, as the plain loop adds it
    assert scorer.score_corpus(nus, emission) == corpus_order_sum(scorer, nus, emission)

