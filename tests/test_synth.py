import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from classlm.cli import main
from classlm.normalize import GROUPS
from classlm.grammar import parse_grammar_text
from classlm.synth import (
    build_lexicon,
    generate_world,
    time_templates,
)


def test_same_seed_same_corpus():
    first = generate_world(size=300, seed=42)
    second = generate_world(size=300, seed=42)
    assert first.labeled_rows == second.labeled_rows
    assert first.grammar_text == second.grammar_text


def test_different_seed_differs():
    a = generate_world(size=300, seed=1)
    b = generate_world(size=300, seed=2)
    assert a.labeled_rows != b.labeled_rows


def test_world_shape(world):
    assert len(world.labeled_rows) == 5000
    groups = {group for group, _ in world.labeled_rows}
    assert groups == {"City", "Date", "Time"}
    assert groups <= set(GROUPS)
    train, tune, test = world.splits()
    assert len(train) == 4000 and len(tune) == 500 and len(test) == 500
    assert train + tune + test == world.labeled_rows


def test_lexicon_shape():
    lexicon = build_lexicon()
    assert lexicon.class_size("CITY-NAME") == 3000
    assert lexicon.class_size("WEEK-DAY") == 7
    assert lexicon.class_size("MONTH-NAME") == 12
    assert lexicon.class_size("HOUR-NUMBER") == 24
    assert lexicon.class_size("DAY-NUMBER") == 31
    assert max(map(max, lexicon.member_lengths.values())) >= 2  # multi-word city names


def test_time_template_variety():
    templates = time_templates()
    assert len(templates) == len(set(templates))
    assert len(templates) > 1000
    # every shape ends in an identifier, a part of day, or a hedge tail
    assert "in the morning before HOUR-NUMBER" in templates


def test_grammar_parses_and_mentions_tags(world):
    grammar = parse_grammar_text(world.grammar_text)
    assert grammar.start == "Request"
    assert "CITY-NAME" in world.grammar_text
    assert "HOUR-NUMBER" in world.grammar_text


def test_corpus_contains_multiword_cities_and_noise(world):
    texts = [text for _, text in world.labeled_rows]
    assert any("porta nova" in t or "villa rosa" in t for t in texts)
    assert any(t == "can you repeat that please" for t in texts)
    fillers = [t for t in texts if t.startswith("yes ")]
    assert fillers, "expected filler-prefixed utterances"


def test_generation_is_fast(world):
    import time

    start = time.perf_counter()
    generate_world()
    assert time.perf_counter() - start < 5.0


@settings(max_examples=40, deadline=None)
@given(size=st.integers(0, 3000), seed=st.integers(0, 10**6))
def test_generate_world_matches_naive_oracle(size, seed):
    world = generate_world(size=size, seed=seed)
    naive = oracle.naive_generate_world(size=size, seed=seed)
    assert world.labeled_rows == naive.labeled_rows
    assert world.grammar_text == naive.grammar_text


@pytest.mark.parametrize("seed", [11, 13])
def test_generate_world_matches_naive_oracle_at_full_size(seed):
    # every member pool, from the 3,000 cities to the 7 week days, is drawn
    # thousands of times here against the oracle's Random.choice
    world = generate_world(size=50000, seed=seed)
    assert world == oracle.naive_generate_world(size=50000, seed=seed)


@pytest.mark.parametrize("workload,size", [
    pytest.param("corpus-50k", 50000, id="corpus-50k"),
    pytest.param("grammar-5k", 5000, id="grammar-5k"),
])
def test_seed7_bundle_matches_recorded_digests(tmp_path, workload, size):
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "expected_seed7.json")
        .read_text(encoding="utf-8")
    )[workload]["digests"]
    bundle = {
        name.split("/", 1)[1]: digest
        for name, digest in expected.items() if name.startswith("bundle/")
    }
    assert len(bundle) == 6
    assert main(["synth", "--size", str(size), "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    for name, digest in sorted(bundle.items()):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
