"""Shared fixtures: the seeded synthetic world and models derived from it.

Heavy artifacts (tables, trained models, generalization runs) are session
scoped so the whole suite stays fast.
"""

import pytest

from classlm.analysis import label_nus
from classlm.generalize import build_generalized_lm
from classlm.grammar import generate, parse_grammar_text
from classlm.lm import export_model, train
from classlm.ngrams import extract
from classlm.normalize import normalize
from classlm.synth import generate_world
from classlm.vocab import ClassLexicon

import oracle

ORDER = 3
SMALL_SIZE = 1000


@pytest.fixture(scope="session")
def world():
    return generate_world()


@pytest.fixture(scope="session")
def lexicon(world):
    return world.lexicon


@pytest.fixture(scope="session")
def splits(world):
    """Normalized corpus splits keyed train/tune/test, labeled and plain."""
    train_rows, tune_rows, test_rows = world.splits()
    labeled = {
        "train": label_nus(world.lexicon, train_rows),
        "tune": label_nus(world.lexicon, tune_rows),
        "test": label_nus(world.lexicon, test_rows),
    }
    plain = {name: oracle.nus_of(rows) for name, rows in labeled.items()}
    return {"labeled": labeled, "nus": plain}


@pytest.fixture(scope="session")
def grammar_obj(world):
    return parse_grammar_text(world.grammar_text, source="bundled-grammar")


@pytest.fixture(scope="session")
def sentences(grammar_obj):
    return generate(grammar_obj, max_depth=12, max_sentences=100000)


@pytest.fixture(scope="session")
def sentence_nus(sentences, lexicon):
    return sorted({normalize(lexicon, s) for s in sentences if s})


@pytest.fixture(scope="session")
def table_small(splits):
    return extract(splits["nus"]["train"][:SMALL_SIZE], ORDER)


@pytest.fixture(scope="session")
def table_full(splits):
    return extract(splits["nus"]["train"], ORDER)


@pytest.fixture(scope="session")
def grammar_table(sentence_nus):
    return extract(sentence_nus, ORDER)


@pytest.fixture(scope="session")
def model_small(table_small, lexicon):
    return train(table_small, lexicon)


@pytest.fixture()
def model_file_without(tmp_path, model_small):
    """Writer of model_small's file minus one gram line, header count adjusted."""

    def write(gram):
        k = len(gram.split())
        path = tmp_path / f"without-{gram.strip('<>/').replace(' ', '_')}.arpa"
        export_model(model_small, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [line for line in lines if line.split("\t")[1:2] != [gram]]
        lines = [f"ngram {k}={int(line[8:]) - 1}" if line.startswith(f"ngram {k}=") else line
                 for line in lines]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    return write


@pytest.fixture(scope="session")
def model_full(table_full, lexicon):
    return train(table_full, lexicon)


@pytest.fixture(scope="session")
def generalization_runs(splits, grammar_obj, lexicon):
    """Injection pipelines at both scales plus the naive-sentence baseline."""
    tune = splits["nus"]["tune"]
    test = splits["nus"]["test"]
    train_nus = splits["nus"]["train"]
    runs = {}
    for name, nus in (("small", train_nus[:SMALL_SIZE]), ("full", train_nus)):
        runs[name] = build_generalized_lm(
            nus, grammar_obj, lexicon, ORDER,
            tuning_corpus=tune, test_corpus=test,
        )
    runs["naive-small"] = build_generalized_lm(
        train_nus[:SMALL_SIZE], grammar_obj, lexicon, ORDER,
        tuning_corpus=tune, test_corpus=test, mode="naive-sentences",
    )
    return runs


@pytest.fixture()
def tiny_lexicon():
    return ClassLexicon(
        {
            "CITY-NAME": {"naples", "rome", "new_york"},
            "WEEK-DAY": {"monday", "tuesday"},
            "HOUR-NUMBER": {"five", "seven"},
        }
    )
