from classlm.normalize import GROUPS
from classlm.grammar import parse_grammar_text
from classlm.synth import (
    SynthConfig,
    build_lexicon,
    generate_world,
    time_templates,
)


def test_same_seed_same_corpus():
    first = generate_world(SynthConfig(size=300, seed=42))
    second = generate_world(SynthConfig(size=300, seed=42))
    assert first.labeled_rows == second.labeled_rows
    assert first.grammar_text == second.grammar_text


def test_different_seed_differs():
    a = generate_world(SynthConfig(size=300, seed=1))
    b = generate_world(SynthConfig(size=300, seed=2))
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
    assert lexicon.max_member_words >= 2  # multi-word city names present


def test_time_template_variety():
    templates = time_templates()
    assert len(templates) == len(set(templates))
    assert len(templates) > 1000
    # every shape ends in an identifier, a part of day, or a hedge tail
    assert "in the morning before HOUR-NUMBER" in templates


def test_grammar_parses_and_mentions_tags(world):
    grammar = parse_grammar_text(world.grammar_text)
    assert grammar.start == "Request"
    assert grammar.recursive == frozenset()
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
    generate_world(SynthConfig())
    assert time.perf_counter() - start < 5.0
