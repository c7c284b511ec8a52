import hashlib
import math
import random

import pytest

from classlm.errors import ModelError
from classlm.lm import export_model, import_model, log_prob, perplexity, train
from classlm.ngrams import NGramTable, extract
from classlm.vocab import ClassLexicon, UNK

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
    _, scored, oov = model_small.score_nu(nu)
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


def test_export_is_deterministic(tmp_path, table_small, lexicon):
    a = tmp_path / "a.arpa"
    b = tmp_path / "b.arpa"
    export_model(train(table_small, lexicon), a)
    export_model(train(table_small.copy(), lexicon), b)
    assert hashlib.sha256(a.read_bytes()).hexdigest() == hashlib.sha256(
        b.read_bytes()
    ).hexdigest()


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
