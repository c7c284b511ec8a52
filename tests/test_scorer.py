import math
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from classlm.errors import ModelError
from classlm.lm import LN10, ClassNGramLM, PerplexityReport, log_prob, train
from classlm.ngrams import extract, window_counts
from classlm.vocab import SENT_END, SENT_START, ClassLexicon, UNK

import oracle


def test_python_backend_always_available(model_small):
    scorer = model_small.scorer()
    assert scorer is model_small
    assert scorer.backend == "python"


def test_out_of_vocab_token_raises(model_small):
    # a model built in code without an <unk> unigram has nowhere to back off
    # to; the walk must stop with KeyError instead of running past the token
    probs10 = {g: p for g, p in model_small.probs10.items() if UNK not in g}
    model = ClassNGramLM(model_small.order, probs10, model_small.bows10,
                         model_small.class_sizes)
    with pytest.raises(KeyError):
        model.scorer().score_corpus([("from", "definitely-not-in-vocab")], False)


@pytest.mark.parametrize("emission", [False, True])
def test_score_corpus_is_the_fsum_of_its_window_scores(model_small, splits, emission):
    scorer = model_small.scorer()
    nus = [tuple(nu) for nu in splits["nus"]["test"]]
    nus += [("from", "zzyzx")] * 3 + nus[::-1]
    windows = window_counts(nus, scorer.order)
    assert len(windows) * 2 < sum(windows.values())
    # exact equality: fsum is correctly rounded, so no summation order is assumed
    total = math.fsum(count * scorer.score_windows({window: 1}, emission)[0]
                      for window, count in windows.items())
    tokens = sum(len(nu) + 1 for nu in nus)
    oov = sum(token not in scorer.vocab for nu in nus for token in nu)
    assert scorer.score_corpus(nus, emission) == (total, tokens, oov)
    assert scorer.score_corpus(Counter(nus), emission) == (total, tokens, oov)


def test_a_total_past_the_float_range_is_a_model_error():
    # fsum raises on -inf + inf and on finite partial sums past the float
    # range; the scoring loop returns the total instead, and the report
    # rejects any total that is not finite, or a perplexity that underflows
    probs10 = {(SENT_START,): 0.0, (SENT_END,): -0.5, (UNK,): -0.5,
               ("a",): -1e308, ("b",): -1e308}
    model = ClassNGramLM(2, probs10, {("a",): 1e308}, {})
    cases = [
        ({(SENT_START, "a"): 2, ("a", SENT_END): 2}, math.nan),  # -inf + inf
        ({("a", SENT_END): 2}, math.inf),
        ({(SENT_START, "a"): 2}, -math.inf),
        # partial sums past the range, the exact sum within it
        ({(SENT_START, "a"): 1, (SENT_START, "b"): 1, ("a", SENT_END): 1}, -1e308),
    ]
    for windows, expected in cases:
        total, tokens, _ = model.score_windows(windows, False)
        assert total == expected or math.isnan(expected) and math.isnan(total)
        if math.isfinite(total):
            continue
        with pytest.raises(ModelError, match="perplexity past the float range"):
            PerplexityReport.of(total, tokens, 0)
    with pytest.raises(ModelError, match="perplexity past the float range"):
        PerplexityReport.of(1e300, 6, 0)  # pp underflows to 0


def test_score_windows_rejects_a_window_shorter_than_the_model(model_small):
    with pytest.raises(ValueError):
        model_small.score_windows({("<s>", "a"): 1}, False)


def test_log_prob_counts_windows_at_the_width(model_small, splits):
    # a model declared far above its stored grams scores windows of its
    # width; counting at the declared order would pad each utterance with
    # that many start tags and slice the padding once per start tag
    model = ClassNGramLM(2000, model_small.probs10, model_small.bows10,
                         model_small.class_sizes)
    assert model.width == model_small.width == model_small.order
    nu = splits["nus"]["test"][0]
    expected = log_prob(model_small, nu, True)
    tracemalloc.start()
    try:
        got = log_prob(model, nu, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 200_000


_lexicon = ClassLexicon({"CITY": {"rome", "oslo", "new_york"}, "DAY": {"monday"}})
_known = ["a", "b", "c", "CITY"]


def _raises_like(expected: KeyError, call, *args):
    with pytest.raises(KeyError) as raised:
        call(*args)
    assert raised.value.args == expected.args


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_known), max_size=6).map(tuple), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
    st.lists(st.lists(st.sampled_from(_known + ["DAY", "x", "y", UNK, SENT_START, SENT_END]),
                      max_size=8).map(tuple), min_size=1, max_size=6),
    st.booleans(),
    st.sampled_from([None, UNK, SENT_END]),
    st.sampled_from([0, 0, 1, 3]),
    st.booleans(),
)
def test_window_scores_match_indexed_oracle(corpus, n, nus, emission, dropped, above,
                                            top_bows):
    # x and y are out of vocabulary; DAY is a lexicon tag absent from the
    # corpus; without the <unk> or </s> unigram a walk that reaches it must
    # raise the same KeyError in both, and a boundary tag still never maps
    # to <unk>. A model declared above its trained order scores with shorter
    # windows than the oracle's full-order ones, one token longer where its
    # longest grams carry backoff weights.
    model = train(extract(corpus, n), _lexicon)
    if dropped is not None or above:
        probs10 = {g: p for g, p in model.probs10.items() if g != (dropped,)}
        bows10 = dict(model.bows10)
        if above and top_bows:
            bows10.update((g, -0.25) for g in probs10 if len(g) == n)
        model = ClassNGramLM(n + above, probs10, bows10, model.class_sizes)
    width = model.width
    for nu in nus:
        # each position's window, scored alone, scores as the oracle's position
        padded = (SENT_START,) * (width - 1) + nu + (SENT_END,)
        for j in range(len(nu) + 1):
            window = padded[j : j + width]
            try:
                expected = oracle.naive_position_score(model, nu, j, emission)
            except KeyError as exc:
                _raises_like(exc, model.score_windows, {window: 1}, emission)
            else:
                assert model.score_windows({window: 1}, emission)[0] == expected
        try:
            expected, tokens, oov = oracle.naive_score_utterance(model, nu, emission)
        except KeyError as exc:
            _raises_like(exc, model.score_corpus, (nu,), emission)
            _raises_like(exc, log_prob, model, nu, emission)
            continue
        windows = window_counts((nu,), width)
        total = math.fsum(count * model.score_windows({window: 1}, emission)[0]
                          for window, count in windows.items())
        assert model.score_corpus((nu,), emission) == (total, tokens, oov)
        assert math.isclose(total, expected, rel_tol=1e-9, abs_tol=0.0)
        assert log_prob(model, nu, emission) == total * LN10
        # an NU given as a one-pass iterator is read once
        assert log_prob(model, iter(nu), emission) == total * LN10


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_known), max_size=6).map(tuple), min_size=1, max_size=8),
    st.integers(min_value=1, max_value=4),
    st.lists(st.lists(st.sampled_from(_known + ["DAY", "x", "y", UNK, SENT_START, SENT_END]),
                      max_size=8).map(tuple), min_size=1, max_size=10),
    st.booleans(),
    st.sampled_from([-2, -1, 0, 0, 1, 3]),
    st.booleans(),
)
def test_perplexity_from_window_counts_matches_oracle(corpus, n, nus, emission, declared,
                                                     top_bows):
    # x and y are out of vocabulary, and <s> and </s> may stand inside an NU.
    # A model declared above its trained order scores with windows no longer
    # than its longest grams; one declared below it stores grams longer than
    # its window, so the windows counted at the trained order must be cut.
    model = train(extract(corpus, n), _lexicon)
    order = max(1, n + declared)
    if order != n:
        bows10 = dict(model.bows10)
        if order > n and top_bows:
            bows10.update((g, -0.25) for g in model.probs10 if len(g) == n)
        model = ClassNGramLM(order, model.probs10, bows10, model.class_sizes)
    counted = max(n, order)
    windows = window_counts(nus, counted)
    assert windows == {gram: count for gram, count in oracle.naive_extract(nus, counted).items()
                       if len(gram) == counted}
    report = PerplexityReport.of(*model.score_windows(windows, emission))
    assert report.token_count == sum(len(nu) + 1 for nu in nus)
    assert report.oov_count == sum(token not in model.vocab for nu in nus for token in nu)
    assert math.isclose(report.pp, oracle.corpus_perplexity(model, nus, emission),
                        rel_tol=1e-9, abs_tol=0.0)
