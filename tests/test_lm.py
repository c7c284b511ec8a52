import math
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from classlm.errors import ModelError
from classlm.generalize import DEFAULT_GRID, merge_tables
from classlm.lm import export_model, import_model, log_prob, perplexity, train
from classlm.ngrams import NGramTable, extract, window_types
from classlm.vocab import SENT_START, ClassLexicon, UNK

import oracle


@pytest.fixture()
def empty_lexicon():
    return ClassLexicon({})


def test_train_rejects_empty_table(empty_lexicon):
    with pytest.raises(ModelError):
        train(NGramTable(2), empty_lexicon)


def test_single_symbol_unigram_sanity(empty_lexicon):
    model = train(extract([("a", "a", "a")], 1), empty_lexicon)
    p_a = 10.0 ** model.probs10[("a",)]
    p_unk = 10.0 ** model.probs10[(UNK,)]
    assert p_a > 0.5
    assert p_unk > 0.0
    total = sum(10.0 ** model.probs10[(w,)] for w in model.vocab)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_uniform_unigram_perplexity_near_vocab_size(empty_lexicon):
    rng = random.Random(5)
    symbols = [f"s{i}" for i in range(10)]
    corpus = [tuple(rng.choice(symbols) for _ in range(100)) for _ in range(100)]
    held_out = [tuple(rng.choice(symbols) for _ in range(100)) for _ in range(20)]
    model = train(extract(corpus, 1), empty_lexicon)
    report = perplexity(model, held_out)
    assert report.pp == pytest.approx(10.0, rel=0.05)


def test_contexts_normalize_exhaustively(splits, lexicon):
    model = train(extract(splits["nus"]["train"][:500], 3), lexicon)
    contexts = sorted(model.bows10)
    assert contexts, "expected backoff contexts"
    for context in contexts:
        total = oracle.context_prob_sum(model, context)
        assert total == pytest.approx(1.0, abs=1e-6), context


def test_log_prob_matches_oracle(model_small, splits):
    for nu in splits["nus"]["test"][:50]:
        for emission in (False, True):
            fast = log_prob(model_small, nu, emission)
            naive = oracle.nu_log_prob(model_small, nu, emission)
            assert fast == pytest.approx(naive, rel=1e-9)


def test_emission_adds_class_mass(model_small):
    nu = ("from", "CITY-NAME", "to", "CITY-NAME")
    gap = log_prob(model_small, nu, False) - log_prob(model_small, nu, True)
    assert gap == pytest.approx(2 * math.log(3000), rel=1e-9)


def test_emission_off_is_pure_class_sequence(model_small):
    nu = ("CITY-NAME",)
    assert log_prob(model_small, nu, False) > log_prob(model_small, nu, True)


def test_memorized_corpus_perplexity_near_one(empty_lexicon):
    corpus = [("a", "b", "c")] * 200
    model = train(extract(corpus, 3), empty_lexicon)
    assert perplexity(model, corpus).pp < 1.2


def test_more_data_lowers_perplexity(splits, lexicon):
    train_nus = splits["nus"]["train"]
    test_nus = splits["nus"]["test"]
    pp_100 = perplexity(train(extract(train_nus[:100], 3), lexicon), test_nus).pp
    pp_1000 = perplexity(train(extract(train_nus[:1000], 3), lexicon), test_nus).pp
    assert pp_100 > pp_1000


def test_perplexity_report_invariants(model_small, splits):
    report = perplexity(model_small, splits["nus"]["tune"], emission=True)
    assert report.pp >= 1.0
    assert report.pp == pytest.approx(
        math.exp(-report.log_prob_total / report.token_count), rel=1e-12
    )
    assert report.token_count == sum(len(nu) + 1 for nu in splits["nus"]["tune"])


def test_perplexity_rejects_empty_corpus(model_small):
    with pytest.raises(ModelError):
        perplexity(model_small, [])


def test_oov_maps_to_unk(model_small):
    nu = ("from", "zzz-never-seen")
    _, scored, oov = model_small.scorer().score_utterance(nu, False)
    assert (scored, oov) == (3, 1)
    assert log_prob(model_small, nu) == pytest.approx(
        oracle.nu_log_prob(model_small, nu), rel=1e-9
    )


def test_word_pp_at_least_class_pp(model_small, splits):
    corpus = splits["nus"]["tune"]
    assert perplexity(model_small, corpus, True).pp >= perplexity(model_small, corpus, False).pp


def test_every_vocab_token_scorable(model_small):
    for word in model_small.vocab:
        assert (word,) in model_small.probs10
        assert model_small.probs10[(word,)] < 0.0  # prob strictly below 1


def test_export_import_round_trip(tmp_path, model_small):
    path = tmp_path / "model.arpa"
    export_model(model_small, path)
    loaded = import_model(path)
    assert loaded == model_small
    again = tmp_path / "again.arpa"
    export_model(loaded, again)
    assert path.read_bytes() == again.read_bytes()


def test_export_is_deterministic(tmp_path, table_small, sentence_nus, lexicon):
    # a table's iteration order is unspecified: the model and its file must
    # not depend on the order its counts were inserted in
    grammar_table = window_types(sentence_nus, table_small.order)
    tables = [table_small, grammar_table] + [
        merge_tables(table_small, grammar_table, factor) for factor in (Fraction(1, 2), 2)
    ]
    expected, rebuilt_file = tmp_path / "expected.arpa", tmp_path / "rebuilt.arpa"
    rng = random.Random(11)
    for table in tables:
        model = train(table, lexicon)
        export_model(model, expected)
        shuffled = list(table)
        rng.shuffle(shuffled)
        for grams in (list(table)[::-1], shuffled):
            rebuilt = train(NGramTable.from_counts(table.order, dict(grams)), lexicon)
            assert rebuilt == model
            export_model(rebuilt, rebuilt_file)
            assert rebuilt_file.read_bytes() == expected.read_bytes()


def test_import_rejects_undeclared_section(tmp_path):
    # a section the header does not declare would be stored and never scored
    path = tmp_path / "model.arpa"
    path.write_text(
        "# classlm model format v1\n\n\\data\\\nngram 1=3\n\n\\class-sizes:\n\n"
        "\\1-grams:\n-0.5\t<s>\t-0.3\n-0.5\t</s>\n-0.5\t<unk>\n\n"
        "\\2-grams:\n-0.1\t<s> </s>\n\n\\end\\\n",
        encoding="utf-8",
    )
    with pytest.raises(ModelError, match=f"{path}:13: section .*2-grams.* not declared"):
        import_model(path)


def test_import_rejects_truncated_file(tmp_path, model_small):
    path = tmp_path / "model.arpa"
    export_model(model_small, path)
    text = path.read_text(encoding="utf-8")
    truncated = tmp_path / "cut.arpa"
    truncated.write_text(text[: len(text) // 2].rsplit("\n", 1)[0], encoding="utf-8")
    with pytest.raises(ModelError):
        import_model(truncated)


def test_import_rejects_version_mismatch(tmp_path, model_small):
    path = tmp_path / "model.arpa"
    export_model(model_small, path)
    text = path.read_text(encoding="utf-8").replace("format v1", "format v9")
    bad = tmp_path / "bad.arpa"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ModelError, match="version"):
        import_model(bad)


def test_import_rejects_header_mismatch(tmp_path, model_small):
    path = tmp_path / "model.arpa"
    export_model(model_small, path)
    text = path.read_text(encoding="utf-8").replace("ngram 1=", "ngram 1=9")
    bad = tmp_path / "bad.arpa"
    bad.write_text(text, encoding="utf-8")
    with pytest.raises(ModelError):
        import_model(bad)


@pytest.mark.parametrize("token", ["<s>", "</s>", UNK])
def test_import_rejects_missing_reserved_unigram(model_file_without, token):
    bad = model_file_without(token)
    with pytest.raises(ModelError, match=f"{bad}: missing unigram for {token}"):
        import_model(bad)


def test_import_rejects_missing_prefix(model_file_without, model_small):
    trigram = min(g for g in model_small.probs10 if len(g) == 3)
    bad = model_file_without(" ".join(trigram[:2]))
    with pytest.raises(ModelError, match=f"{bad}: 3-gram .* has no stored prefix"):
        import_model(bad)


@pytest.mark.parametrize("field,value", [
    (0, "nan"), (0, "inf"), (0, "-inf"), (2, "nan"), (2, "inf"), (0, "0.25"),
])
def test_import_rejects_bad_values(tmp_path, model_small, field, value):
    path = tmp_path / "model.arpa"
    export_model(model_small, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    # the first line that carries a backoff weight
    at = next(i for i, line in enumerate(lines) if line.count("\t") == 2)
    fields = lines[at].split("\t")
    fields[field] = value
    lines[at] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ModelError, match=f"{path}:{at + 1}: "):
        import_model(path)


def test_imported_model_scores_identically(tmp_path, model_small, splits):
    path = tmp_path / "model.arpa"
    export_model(model_small, path)
    loaded = import_model(path)
    for nu in splits["nus"]["test"][:20]:
        assert log_prob(loaded, nu, True) == log_prob(model_small, nu, True)


# -- exact division against the Fraction-built oracle ---------------------------

_train_lexicon = ClassLexicon({"CITY": {"rome", "oslo", "new_york"}, "DAY": {"monday"}})
_train_nus = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "CITY", SENT_START]), max_size=6).map(tuple),
    min_size=1, max_size=8,
)


def assert_train_matches_oracle(table):
    model = train(table, _train_lexicon)
    naive = oracle.naive_train(table, _train_lexicon)
    assert model.probs10 == naive.probs10
    assert model.bows10 == naive.bows10


@settings(max_examples=150, deadline=None)
@given(_train_nus, st.integers(min_value=1, max_value=4))
def test_train_matches_fraction_oracle_on_extracted_tables(corpus, n):
    assert_train_matches_oracle(extract(corpus, n))


@settings(max_examples=150, deadline=None)
@given(_train_nus, _train_nus, st.sampled_from(DEFAULT_GRID),
       st.integers(min_value=1, max_value=4), st.booleans(),
       st.sampled_from([extract, window_types]))
def test_train_matches_fraction_oracle_on_merged_tables(corpus, sentences, factor, n,
                                                        weight_unknown, grammar_table):
    # factor 1/2 leaves Fraction counts, which train divides as Fractions
    merged = merge_tables(extract(corpus, n), grammar_table(sentences, n), factor,
                          weight_unknown)
    assert_train_matches_oracle(merged)


@settings(max_examples=100, deadline=None)
@given(_train_nus, st.integers(min_value=2**53, max_value=2**80),
       st.integers(min_value=1, max_value=4))
def test_train_matches_fraction_oracle_past_float_precision(corpus, factor, n):
    # context masses past 2**53 have no exact float; int true division still
    # rounds the exact quotient once
    table = extract(corpus, n)
    table.scale(factor, selector=lambda gram: len(gram) % 2 == 1)
    assert_train_matches_oracle(table)


def test_train_overflow_names_the_smallest_context():
    # contexts c and b sum past the float range, a does not; the message
    # names the same context whatever order the table iterates in
    big = 10**400
    table = NGramTable.from_counts(2, {
        ("c", "x"): big, ("a", "x"): 1, ("b", "x"): big,
        ("c",): big, ("a",): 1, ("b",): big, ("x",): 2 * big + 1,
    })
    table.validate()
    with pytest.raises(ModelError, match="counts of context 'b' sum past the float range"):
        train(table, _train_lexicon)


def test_train_rounds_a_backoff_weight_once():
    # 1 / float(mass + 1) rounds twice and lands one ulp off this weight,
    # far enough that its log10 differs too
    mass = 1332507270757778810
    assert math.log10(1 / float(mass + 1)) != math.log10(Fraction(1, mass + 1))
    table = NGramTable.from_counts(2, {("a",): mass, ("a", "b"): mass, ("b",): mass})
    assert_train_matches_oracle(table)
    assert train(table, _train_lexicon).bows10[("a",)] == math.log10(Fraction(1, mass + 1))


# -- tables built in the package train without validation ----------------------

def assert_export_round_trip(model, directory):
    first, second = directory / "first.arpa", directory / "second.arpa"
    export_model(model, first)
    loaded = import_model(first)
    export_model(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    assert loaded == model


def built_tables(corpus, sentences, n):
    """Every kind of table the package trains on without validating it."""
    train_table = extract(corpus, n)
    grammar_table = window_types(sentences, n)
    return [train_table, grammar_table] + [
        merge_tables(train_table, grammar_table, factor, weight_unknown)
        for factor in DEFAULT_GRID for weight_unknown in (True, False)]


# train does not validate; import_model rejects a k-gram whose prefix is not
# stored, which is what a table breaking closure would train into
def test_models_of_built_tables_round_trip(tmp_path, splits, sentence_nus, lexicon):
    for table in built_tables(splits["nus"]["train"][:1000], sentence_nus, 3):
        table.validate()
        assert_export_round_trip(train(table, lexicon), tmp_path)


@settings(max_examples=60, deadline=None)
@given(_train_nus, _train_nus, st.integers(min_value=1, max_value=4))
def test_models_of_built_tables_round_trip_random(corpus, sentences, n):
    with tempfile.TemporaryDirectory() as directory:
        for table in built_tables(corpus, sentences, n):
            table.validate()
            assert_export_round_trip(train(table, _train_lexicon), Path(directory))
