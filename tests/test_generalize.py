import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from classlm.analysis import label_nus, nus_of
from classlm.errors import DataError, TableError
from classlm.generalize import (
    DEFAULT_GRID,
    classify_events,
    build_generalized_lm,
    merge_tables,
    naive_sentence_table,
    tune_balance_factor,
    write_report,
)
from classlm.grammar import parse_grammar_text
from classlm.lm import export_model, perplexity, train
from classlm.ngrams import NGramTable, extract
from classlm.synth import SynthConfig, generate_world
from classlm.vocab import ClassLexicon

import oracle


def table_of(order, entries):
    table = NGramTable(order)
    for gram, count in entries:
        table.inject(tuple(gram), count)
    return table


def test_classify_definitional_example():
    train_t = table_of(3, [(("a", "a", "a"), 1), (("b", "b", "b"), 1), (("c", "c", "c"), 1)])
    gram_t = table_of(3, [(("b", "b", "b"), 1), (("c", "c", "c"), 1), (("d", "d", "d"), 1)])
    part = classify_events(train_t, gram_t, 3)
    assert part.usual == {("b", "b", "b"), ("c", "c", "c")}
    assert part.rare == {("a", "a", "a")}
    assert part.unknown == {("d", "d", "d")}
    assert part.summary() == {"used": 2, "rare": 1, "unknown": 1}


def test_classify_identical_tables():
    table = table_of(3, [(("a", "b", "c"), 2)])
    part = classify_events(table, table.copy(), 3)
    assert part.rare == frozenset() and part.unknown == frozenset()
    assert part.usual == {("a", "b", "c")}


def test_classify_order_mismatch():
    with pytest.raises(TableError):
        classify_events(table_of(2, [(("a", "b"), 1)]), table_of(3, []), 3)


_gram_strategy = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcd"), min_size=3, max_size=3).map(tuple),
        st.integers(min_value=1, max_value=9),
    ),
    max_size=10,
)


@settings(max_examples=150, deadline=None)
@given(_gram_strategy, _gram_strategy)
def test_partition_laws(train_entries, gram_entries):
    train_t = table_of(3, train_entries)
    gram_t = table_of(3, gram_entries)
    part = classify_events(train_t, gram_t, 3)
    assert part.usual | part.rare == train_t.gram_set(3)
    assert part.usual | part.unknown == gram_t.gram_set(3)
    assert not part.usual & part.rare
    assert not part.usual & part.unknown
    assert not part.rare & part.unknown


@settings(max_examples=100, deadline=None)
@given(_gram_strategy, _gram_strategy, st.sampled_from([Fraction(1, 2), 1, 2, 10]))
def test_merge_counts_and_closure(train_entries, gram_entries, factor):
    train_t = table_of(3, train_entries)
    gram_t = table_of(3, gram_entries)
    part = classify_events(train_t, gram_t, 3)
    merged = merge_tables(train_t, gram_t, factor)
    merged.validate()
    for gram in part.usual:
        assert merged.count(gram) == train_t.count(gram) * factor
    for gram in part.rare:
        assert merged.count(gram) == train_t.count(gram)
    for gram in part.unknown:
        assert merged.count(gram) == factor


def assert_merge_matches_oracle(train_t, gram_t, factor, weight_unknown):
    merged = merge_tables(train_t, gram_t, factor, weight_unknown)
    expected = oracle.naive_merge(
        dict(train_t), dict(gram_t), train_t.order, factor, weight_unknown
    )
    assert dict(merged) == expected
    merged.validate()


@pytest.mark.parametrize("weight_unknown", [True, False])
@pytest.mark.parametrize("factor", DEFAULT_GRID)
def test_merge_matches_naive_oracle(table_small, table_full, grammar_table, factor, weight_unknown):
    for train_t in (table_small, table_full):
        assert_merge_matches_oracle(train_t, grammar_table, factor, weight_unknown)


_corpus_strategy = st.lists(st.lists(st.sampled_from("abc"), max_size=4).map(tuple), max_size=5)


@settings(max_examples=100, deadline=None)
@given(_corpus_strategy, _corpus_strategy, st.sampled_from(DEFAULT_GRID), st.booleans())
def test_merge_matches_naive_oracle_random(train_corpus, gram_corpus, factor, weight_unknown):
    assert_merge_matches_oracle(
        extract(train_corpus, 3), extract(gram_corpus, 3), factor, weight_unknown
    )


def test_merge_documented_counts():
    train_t = table_of(3, [(("u", "u", "u"), 5), (("r", "r", "r"), 3)])
    gram_t = table_of(3, [(("u", "u", "u"), 1), (("k", "k", "k"), 1)])
    merged = merge_tables(train_t, gram_t, 2)
    assert merged.count(("u", "u", "u")) == 10
    assert merged.count(("r", "r", "r")) == 3
    merged4 = merge_tables(train_t, gram_t, 4)
    assert merged4.count(("k", "k", "k")) == 4
    unweighted = merge_tables(train_t, gram_t, 4, weight_unknown=False)
    assert unweighted.count(("k", "k", "k")) == 1


def test_merge_identity_cases():
    train_t = extract([("a", "b"), ("a", "c")], 3)
    empty_gram = NGramTable(3)
    assert merge_tables(train_t, empty_gram, 7) == train_t
    same_gram = extract([("a", "b"), ("a", "c")], 3)
    assert merge_tables(train_t, same_gram, 1) == train_t  # factor 1, no unknown


def test_merge_rejects_nonpositive_factor():
    table = table_of(3, [(("a", "b", "c"), 1)])
    with pytest.raises(DataError):
        merge_tables(table, NGramTable(3), 0)


def test_baseline_reproduced_bit_exactly(tmp_path, table_small, lexicon, splits):
    # factor 1 with no unknown events: identical table, identical export bytes
    same_grammar = extract(sorted(set(splits["nus"]["train"][:1000])), 3)
    part = classify_events(table_small, same_grammar, 3)
    assert part.unknown == frozenset()
    merged = merge_tables(table_small, same_grammar, 1)
    assert merged == table_small
    base_path = tmp_path / "base.arpa"
    merged_path = tmp_path / "merged.arpa"
    export_model(train(table_small, lexicon), base_path)
    export_model(train(merged, lexicon), merged_path)
    assert base_path.read_bytes() == merged_path.read_bytes()


def test_naive_sentence_table_is_concatenation():
    nus = [("a", "b")]
    sentences = [("c",)]
    assert naive_sentence_table(nus, sentences, 2) == extract([("a", "b"), ("c",)], 2)


# -- factor tuning ---------------------------------------------------------------


def test_tune_singleton_grid():
    lexicon = ClassLexicon({})
    train_t = extract([("x", "y")] * 10, 2)
    gram_t = extract([("x", "y")], 2)
    result = tune_balance_factor(train_t, gram_t, [("x", "y")], [1], lexicon)
    assert result.value == 1
    assert len(result.curve) == 1
    assert result.objective_pp == result.curve[0][1]


def test_tune_input_validation():
    lexicon = ClassLexicon({})
    table = extract([("x", "y")], 2)
    with pytest.raises(DataError):
        tune_balance_factor(table, table, [("x", "y")], [], lexicon)
    with pytest.raises(DataError):
        tune_balance_factor(table, table, [], [1], lexicon)
    with pytest.raises(DataError):
        tune_balance_factor(table, table, [("x", "y")], [0, 1], lexicon)


def test_tune_prefers_large_factor_when_grammar_matches_tuning():
    lexicon = ClassLexicon({})
    train_nus = [("x", "y")] * 30 + [("p", "q")]
    tuning = [("p", "q")] * 20
    train_t = extract(train_nus, 2)
    gram_t = extract([("p", "q")], 2)
    result = tune_balance_factor(train_t, gram_t, tuning, [Fraction(1, 2), 1, 2, 4], lexicon)
    assert result.value > 1


def test_tune_prefers_grid_minimum_for_irrelevant_grammar():
    lexicon = ClassLexicon({})
    train_nus = [("x", "y")] * 30
    tuning = [("x", "y")] * 10
    train_t = extract(train_nus, 2)
    gram_t = extract([("noise1", "noise2")], 2)
    result = tune_balance_factor(train_t, gram_t, tuning, [Fraction(1, 2), 1, 2, 4], lexicon)
    assert result.value == Fraction(1, 2)


def test_tuned_factor_beats_every_grid_point(generalization_runs, splits, lexicon):
    run = generalization_runs["small"]
    factor = run.balance_factor
    # independent re-evaluation of each curve point
    train_t = extract(splits["nus"]["train"][:1000], 3)
    gram_t = extract(run.sentence_nus, 3)
    for candidate, recorded_pp in factor.curve:
        model = train(merge_tables(train_t, gram_t, candidate), lexicon)
        again = perplexity(model, splits["nus"]["tune"]).pp
        assert again == pytest.approx(recorded_pp, rel=1e-12)
        assert factor.objective_pp <= recorded_pp
    assert DEFAULT_GRID == (Fraction(1, 2), 1, 2, 4, 8, 10, 16)


# -- end-to-end pipeline -----------------------------------------------------------


def test_pipeline_result_shape(generalization_runs):
    run = generalization_runs["small"]
    assert run.mode == "ngram-injection"
    assert run.partition.summary()["unknown"] > 0
    assert set(run.perplexities) == {"tuning", "test", "grammar"}
    assert run.balance_factor.value in {f for f, _ in run.balance_factor.curve}


def test_pipeline_generalization_property(generalization_runs):
    # the grammar-sentence corpus contains unknown events, so the
    # generalized model must beat the baseline there
    for name in ("small", "full"):
        base_pp, gen_pp = generalization_runs[name].perplexities["grammar"]
        assert gen_pp < base_pp


def test_pipeline_requires_tuning_corpus(splits, grammar_obj, lexicon):
    with pytest.raises(DataError):
        build_generalized_lm(
            splits["nus"]["train"][:100], grammar_obj, lexicon, 3, tuning_corpus=None
        )


def test_pipeline_rejects_unknown_mode(splits, grammar_obj, lexicon):
    with pytest.raises(DataError):
        build_generalized_lm(
            splits["nus"]["train"][:100], grammar_obj, lexicon, 3,
            tuning_corpus=splits["nus"]["tune"], mode="telepathy",
        )


def test_exact_cover_grammar_reproduces_baseline(lexicon):
    nus = [("from", "CITY-NAME", "to", "CITY-NAME")] * 5 + [("WEEK-DAY",)] * 3
    grammar = parse_grammar_text(
        'start S; S -> "from CITY-NAME to CITY-NAME" | "WEEK-DAY";'
    )
    run = build_generalized_lm(
        nus, grammar, lexicon, 3, grid=[1], tuning_corpus=nus,
    )
    assert run.partition.unknown == frozenset()
    assert run.model == run.baseline


def assert_close(actual, expected):
    assert math.isclose(actual, expected, rel_tol=1e-9, abs_tol=0.0)


# alternatives put first in CityRequest, so even the first few generated
# sentences hold them: case variants, and a member spelled out in one terminal
# or across two; each normalizes like the alternative "from CITY-NAME"
_CITY_VARIANTS = ["", '"From CITY-NAME" | "FROM" "CITY-NAME" | ',
                  '"from monte bianco" | "from monte" "bianco" | ']


@settings(max_examples=10, deadline=None)
@given(
    size=st.integers(min_value=200, max_value=1000),
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=2, max_value=4),
    grid=st.lists(st.sampled_from([1, Fraction(3, 2), 2, 4, 10]), max_size=3),
    max_sentences=st.sampled_from([20, 150, 600]),
    emission=st.booleans(),
    mode=st.sampled_from(["ngram-injection", "naive-sentences"]),
    weight_unknown=st.booleans(),
    variant=st.sampled_from(_CITY_VARIANTS),
)
def test_pipeline_matches_naive_generalize(size, seed, n, grid, max_sentences, emission,
                                           mode, weight_unknown, variant):
    world = generate_world(SynthConfig(size=size, seed=seed))
    assert "monte_bianco" in world.lexicon.classes["CITY-NAME"]
    train_nus, tune_nus, test_nus = (
        nus_of(label_nus(world.lexicon, rows)) for rows in world.splits())
    assert world.grammar_text.count("CityRequest -> ") == 1
    grammar = parse_grammar_text(
        world.grammar_text.replace("CityRequest -> ", "CityRequest -> " + variant),
        source="bundled-grammar")
    grid = [Fraction(1, 2)] + grid
    kwargs = dict(max_depth=12, max_sentences=max_sentences, emission=emission, mode=mode,
                  weight_unknown=weight_unknown)
    result = build_generalized_lm(train_nus, grammar, world.lexicon, n, grid=grid,
                                  tuning_corpus=tune_nus, test_corpus=test_nus, **kwargs)
    expected = oracle.naive_generalize(train_nus, grammar, world.lexicon, n, grid,
                                       tune_nus, test_nus, **kwargs)
    assert result.report_fields() == expected["fields"]
    assert result.sentence_nus == expected["sentence_nus"]
    for got, want in ((result.model, expected["model"]),
                      (result.baseline, expected["baseline"])):
        assert got.probs10 == want.probs10
        assert got.bows10 == want.bows10
    if mode == "naive-sentences":
        assert result.balance_factor is None and expected["factor"] is None
    else:
        assert result.balance_factor.value == expected["factor"]
        assert [f for f, _ in result.balance_factor.curve] == [f for f, _ in expected["curve"]]
        for (_, pp), (_, want) in zip(result.balance_factor.curve, expected["curve"]):
            assert_close(pp, want)
    assert list(result.perplexities) == list(expected["perplexities"])
    for label, (base_pp, gen_pp) in result.perplexities.items():
        want_base, want_gen = expected["perplexities"][label]
        assert_close(base_pp, want_base)
        assert_close(gen_pp, want_gen)


def test_naive_mode_has_no_factor(generalization_runs):
    run = generalization_runs["naive-small"]
    assert run.mode == "naive-sentences"
    assert run.balance_factor is None
    assert run.report_fields()["balance_factor"] == ""


def test_write_report_deterministic(tmp_path, generalization_runs):
    run = generalization_runs["small"]
    first = tmp_path / "first"
    second = tmp_path / "second"
    first.mkdir()
    second.mkdir()
    names = write_report(run, first)
    assert names == ["report.csv", "pp.csv", "curve.csv"]
    write_report(run, second)
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    header = (first / "report.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "mode,used,rare,unknown,balance_factor"


def test_write_report_tsv(tmp_path, generalization_runs):
    names = write_report(generalization_runs["small"], tmp_path, fmt="tsv")
    assert names == ["report.tsv", "pp.tsv", "curve.tsv"]
    assert "\t" in (tmp_path / "report.tsv").read_text(encoding="utf-8").splitlines()[0]
    with pytest.raises(DataError):
        write_report(generalization_runs["small"], tmp_path, fmt="xml")
