import pytest
from hypothesis import given, settings, strategies as st

from classlm.lm import ClassNGramLM, train
from classlm.ngrams import extract
from classlm.vocab import SENT_END, SENT_START, ClassLexicon, UNK

import oracle


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


_lexicon = ClassLexicon({"CITY": {"rome", "oslo", "new_york"}, "DAY": {"monday"}})
_known = ["a", "b", "c", "CITY"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_known), max_size=6).map(tuple), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
    st.lists(st.lists(st.sampled_from(_known + ["DAY", "x", "y", UNK, SENT_START, SENT_END]),
                      max_size=8).map(tuple), min_size=1, max_size=6),
    st.booleans(),
    st.sampled_from([None, UNK, SENT_END]),
)
def test_score_utterance_matches_indexed_oracle(corpus, n, nus, emission, dropped):
    # x and y are out of vocabulary; DAY is a lexicon tag absent from the
    # corpus; without the <unk> or </s> unigram a walk that reaches it must
    # raise the same KeyError in both
    model = train(extract(corpus, n), _lexicon)
    if dropped is not None:
        probs10 = {g: p for g, p in model.probs10.items() if g != (dropped,)}
        model = ClassNGramLM(n, probs10, model.bows10, model.class_sizes)
    scorer = model.scorer()
    for nu in nus:
        try:
            expected = oracle.naive_score_utterance(scorer, nu, emission)
        except KeyError as exc:
            with pytest.raises(KeyError) as raised:
                scorer.score_utterance(nu, emission)
            assert raised.value.args == exc.args
        else:
            assert scorer.score_utterance(nu, emission) == expected
            # an NU given as a one-pass iterator is read once
            assert scorer.score_utterance(iter(nu), emission) == expected
