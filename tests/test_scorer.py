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
