import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from classlm.analysis import (
    coverage_curve,
    frequency_overlap,
    label_nus,
    nus_of,
    partial_training_sweep,
    read_labeled_corpus,
    saturation_table,
    unseen_split,
    write_coverage_csv,
    write_labeled_corpus,
    write_overlap_csv,
    write_saturation_csv,
    write_sweep_csv,
    write_unseen_csv,
)
from classlm.errors import CorpusError
from classlm.lm import perplexity, train
from classlm.ngrams import extract
from classlm.normalize import normalize, nu_histogram, read_nus
from classlm.synth import SynthConfig, generate_world

import oracle


def test_read_labeled_corpus(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("City\tfrom naples\n\nOther\t   \nTime\tat five\n", encoding="utf-8")
    assert read_labeled_corpus(path) == [("City", "from naples"), ("Time", "at five")]


def test_read_labeled_corpus_rejects_unknown_group(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("Weather\tsunny\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=":1:"):
        read_labeled_corpus(path)


def test_read_labeled_corpus_requires_tab(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text("City from naples\n", encoding="utf-8")
    with pytest.raises(CorpusError):
        read_labeled_corpus(path)


@pytest.mark.parametrize("text", ["hello <s> roma", "to </s>.", "back to <S>"])
def test_read_labeled_corpus_rejects_boundary_tags(tmp_path, text):
    path = tmp_path / "tags.tsv"
    path.write_text(f"City\tto rome\nOther\t{text}\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"{path}:2: reserved tag"):
        read_labeled_corpus(path)


def test_read_labeled_corpus_allows_unk_and_embedded_tags(tmp_path):
    path = tmp_path / "unk.tsv"
    path.write_text("Other\tfrom <unk> to a<s>b\n", encoding="utf-8")
    assert read_labeled_corpus(path) == [("Other", "from <unk> to a<s>b")]


def test_read_labeled_corpus_drops_byte_order_mark(tmp_path):
    path = tmp_path / "bom.tsv"
    path.write_text("\ufeffCity\tto rome\n", encoding="utf-8")
    assert read_labeled_corpus(path) == [("City", "to rome")]


def test_coverage_single_repeated_nu():
    nu = ("a", "b")
    curve = coverage_curve([nu] * 7, [nu] * 7)
    assert curve.points[0] == (1, 1.0)


def test_coverage_self_final_point_is_one(splits):
    nus = splits["nus"]["tune"]
    curve = coverage_curve(nus, nus)
    assert curve.points[-1][1] == pytest.approx(1.0)
    ranks = [r for r, _ in curve.points]
    assert ranks == list(range(1, len(set(nus)) + 1))


def test_coverage_monotone_and_matches_recount(splits):
    ranking = splits["nus"]["train"]
    measured = splits["nus"]["test"]
    curve = coverage_curve(ranking, measured)
    values = [cov for _, cov in curve.points]
    assert all(b >= a for a, b in zip(values, values[1:]))
    # independent recount: sort by (-count, nu) and accumulate by hand
    counts = Counter(ranking)
    order = sorted(counts, key=lambda nu: (-counts[nu], nu))
    measured_counts = Counter(measured)
    running = 0
    for rank, nu in enumerate(order, start=1):
        running += measured_counts.get(nu, 0)
        assert curve.points[rank - 1] == (rank, running / len(measured))


def test_coverage_rejects_empty_ranking():
    with pytest.raises(CorpusError):
        coverage_curve([], [("a",)])


def test_coverage_at_helper():
    curve = coverage_curve([("a",), ("a",), ("b",)], [("a",), ("b",)])
    assert curve.coverage_at(1) == pytest.approx(0.5)
    assert curve.coverage_at(99) == pytest.approx(1.0)
    assert curve.coverage_at(0) == 0.0


def test_sweep_deterministic_and_validated(splits, lexicon):
    labeled = splits["labeled"]["train"][:400]
    test = splits["labeled"]["test"]
    rows = partial_training_sweep(labeled, [200, 400], test, lexicon, 3)
    again = partial_training_sweep(labeled, [200, 400], test, lexicon, 3)
    assert [(s, {g: r.pp for g, r in per.items()}) for s, per in rows] == [
        (s, {g: r.pp for g, r in per.items()}) for s, per in again
    ]
    repeated = partial_training_sweep(labeled, [400, 400], test, lexicon, 3)
    assert {g: r.pp for g, r in repeated[0][1].items()} == {
        g: r.pp for g, r in repeated[1][1].items()
    }
    with pytest.raises(CorpusError):
        partial_training_sweep(labeled, [400, 200], test, lexicon, 3)
    with pytest.raises(CorpusError):
        partial_training_sweep(labeled, [401], test, lexicon, 3)
    with pytest.raises(CorpusError):
        partial_training_sweep(labeled, [], test, lexicon, 3)
    with pytest.raises(CorpusError, match="training corpus is empty"):
        partial_training_sweep([], [1], test, lexicon, 3)


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(min_value=200, max_value=1000),
    seed=st.integers(min_value=0, max_value=2**16),
    n=st.integers(min_value=2, max_value=4),
    emission=st.booleans(),
    data=st.data(),
)
def test_sweep_matches_naive_sweep(size, seed, n, emission, data):
    world = generate_world(SynthConfig(size=size, seed=seed))
    labeled_train, _, labeled_test = (label_nus(world.lexicon, rows) for rows in world.splits())
    sizes = sorted(data.draw(st.lists(st.integers(min_value=1, max_value=len(labeled_train)),
                                      min_size=1, max_size=3), label="sizes"))
    rows = partial_training_sweep(labeled_train, sizes, labeled_test, world.lexicon, n,
                                  emission)
    expected = oracle.naive_sweep(labeled_train, sizes, labeled_test, world.lexicon, n,
                                  emission)
    assert [size for size, _ in rows] == [size for size, _ in expected] == sizes
    for (_, per_group), (_, want) in zip(rows, expected):
        assert list(per_group) == list(want)
        for group, report in per_group.items():
            pp, tokens, oov = want[group]
            assert (report.token_count, report.oov_count) == (tokens, oov)
            assert math.isclose(report.pp, pp, rel_tol=1e-9, abs_tol=0.0)


@settings(max_examples=50, deadline=None)
@given(
    size=st.integers(min_value=200, max_value=1000),
    seed=st.integers(min_value=0, max_value=2**16),
    min_count=st.integers(min_value=0, max_value=6),
    threshold=st.floats(min_value=0.0, max_value=0.2),
    emission=st.booleans(),
    data=st.data(),
)
def test_studies_on_read_corpora_match_naive_twins(tmp_path_factory, size, seed, min_count,
                                                   threshold, emission, data):
    world = generate_world(SynthConfig(size=size, seed=seed))
    train_rows, _, test_rows = world.splits()
    directory = tmp_path_factory.mktemp("studies")
    write_labeled_corpus(directory / "train.tsv", train_rows)
    write_labeled_corpus(directory / "test.tsv", test_rows)
    train_corpus = read_nus(directory / "train.tsv", True, world.lexicon)
    test_corpus = read_nus(directory / "test.tsv", True, world.lexicon)
    labeled_train = label_nus(world.lexicon, train_rows)
    labeled_test = label_nus(world.lexicon, test_rows)
    train_nus, test_nus = nus_of(labeled_train), nus_of(labeled_test)
    sizes = sorted(data.draw(st.lists(st.integers(min_value=1, max_value=len(train_nus)),
                                      min_size=1, max_size=4), label="sizes"))

    for measured, measured_nus in ((train_corpus, train_nus), (test_corpus, test_nus)):
        curve = coverage_curve(train_corpus, measured)
        assert list(curve.points) == oracle.naive_coverage(train_nus, measured_nus)
    assert saturation_table(train_corpus, sizes, min_count) == \
        oracle.naive_saturation(labeled_train, sizes, min_count)
    assert frequency_overlap(train_corpus, test_corpus, threshold) == \
        oracle.naive_overlap(labeled_train, labeled_test, threshold)
    split = unseen_split(train_corpus, test_corpus)
    assert (split.seen, split.unseen) == oracle.naive_unseen(train_nus, test_nus)

    # each group's test utterances are scored in corpus order, so the float
    # sums, and the reports, are exactly those of the group's row list
    groups = sorted({group for group, _ in labeled_test})
    rows = partial_training_sweep(train_corpus, sizes, test_corpus, world.lexicon, 2, emission)
    for (swept, per_group), size in zip(rows, sizes):
        model = train(extract(train_nus[:size], 2), world.lexicon)
        assert swept == size and list(per_group) == groups
        for group in groups:
            group_nus = [nu for g, nu in labeled_test if g == group]
            assert per_group[group] == perplexity(model, group_nus, emission)


def test_unseen_split_edges():
    train = [("a",), ("b",)]
    assert unseen_split(train, [("a",), ("b",), ("a",)]).unseen == ()
    split = unseen_split(train, [("c",), ("c",), ("d",)])
    assert split.seen == ()
    assert split.unseen_types == 2
    assert len(split.unseen) == 3


def test_unseen_part_scores_worse(model_full, splits):
    split = unseen_split(splits["nus"]["train"], splits["nus"]["test"])
    assert split.seen and split.unseen
    pp_seen = perplexity(model_full, list(split.seen)).pp
    pp_unseen = perplexity(model_full, list(split.unseen)).pp
    assert pp_unseen > pp_seen


def test_saturation_full_size_row(splits):
    labeled = splits["labeled"]["train"]
    sizes = [500, len(labeled)]
    table = saturation_table(labeled, sizes, min_count=3)
    counts = {}
    for group, nu in labeled:
        counts.setdefault(group, Counter())[nu] += 1
    for group, row in table.items():
        frequent = {nu for nu, c in counts[group].items() if c > 3}
        assert row[-1] == len(frequent)
        assert row == sorted(row)  # prefix property: non-decreasing


def test_saturation_min_count_strictness():
    labeled = [("City", ("a",))] * 4 + [("City", ("b",))] * 3
    table = saturation_table(labeled, [7], min_count=3)
    assert table["City"] == [1]  # count > 3 means four occurrences or more


def test_frequency_overlap_identical_corpora():
    labeled = [("City", ("a",))] * 5 + [("City", ("b",))] * 5
    assert frequency_overlap(labeled, labeled) == {"City": 1.0}


def test_frequency_overlap_threshold_one_excludes_everything():
    labeled = [("City", ("a",))] * 5
    assert frequency_overlap(labeled, labeled, threshold=1.0) == {"City": 0.0}


def test_frequency_overlap_groups_independent():
    train = [("City", ("a",))] * 10 + [("Time", ("b",))]
    test = [("City", ("a",)), ("Time", ("b",)), ("Time", ("c",))]
    overlap = frequency_overlap(train, test)
    assert overlap["City"] == 1.0
    assert overlap["Time"] == 0.5


def test_csv_writers_are_deterministic(tmp_path, splits, lexicon):
    labeled = splits["labeled"]["train"][:300]
    test = splits["labeled"]["test"]
    curve = coverage_curve(nus_of(labeled), nus_of(test))
    rows = partial_training_sweep(labeled, [150, 300], test, lexicon, 2)
    sat = saturation_table(labeled, [150, 300])
    overlap = frequency_overlap(labeled, test)
    split = unseen_split(nus_of(labeled), nus_of(test))
    for name, writer, payload in (
        ("coverage", write_coverage_csv, curve),
        ("sweep", write_sweep_csv, rows),
        ("overlap", write_overlap_csv, overlap),
        ("unseen", write_unseen_csv, split),
    ):
        first, second = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
        writer(first, payload)
        writer(second, payload)
        assert first.read_bytes() == second.read_bytes(), name
    a, b = tmp_path / "sat1.csv", tmp_path / "sat2.csv"
    write_saturation_csv(a, [150, 300], sat)
    write_saturation_csv(b, [150, 300], sat)
    assert a.read_bytes() == b.read_bytes()


def test_label_nus_applies_lexicon(tiny_lexicon):
    rows = [("City", "from naples to new york")]
    labeled = label_nus(tiny_lexicon, rows)
    assert labeled == [("City", ("from", "CITY-NAME", "to", "CITY-NAME"))]


def test_label_nus_with_repeated_lines_matches_per_row_normalize(world, lexicon):
    rows = world.splits()[0]
    rows = rows + rows[::-1]
    assert len({text for _, text in rows}) * 2 < len(rows)
    labeled = label_nus(lexicon, rows)
    assert labeled == [(group, normalize(lexicon, text)) for group, text in rows]


def test_label_nus_shares_one_tuple_per_distinct_nu(world, lexicon):
    rows = world.splits()[0]
    labeled = label_nus(lexicon, rows)
    nus = nus_of(labeled)
    assert nus == [normalize(lexicon, text) for _, text in rows]
    # distinct raw lines that normalize alike share one tuple too
    assert len(set(nus)) < len({text for _, text in rows})
    first = {}
    assert all(first.setdefault(nu, nu) is nu for nu in nus)
    fresh = [tuple(list(nu)) for nu in nus]
    assert not any(a is b for a, b in zip(nus, fresh))
    shared_hist, fresh_hist = nu_histogram(nus), nu_histogram(fresh)
    assert shared_hist == fresh_hist
    assert list(shared_hist.items()) == list(fresh_hist.items())
