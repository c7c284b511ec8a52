import pytest

from classlm.vocab import SENT_END, SENT_START


def test_python_backend_always_available(model_small):
    scorer = model_small.scorer()
    assert scorer.backend == "python"


def test_out_of_vocab_token_raises(model_small):
    scorer = model_small.scorer()
    padded = (SENT_START, SENT_START, "definitely-not-in-vocab", SENT_END)
    with pytest.raises(KeyError):
        scorer.logprob10_padded(padded, False)
