import csv
import filecmp
import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import classlm
import classlm.score
from classlm.analysis import read_labeled_corpus
from classlm.cli import build_parser, main
from classlm.errors import (
    CorpusError, DataError, GrammarError, LexiconError, ModelError,
)
from classlm.grammar import generate, parse_grammar
from classlm.lm import export_model, import_model
from classlm.normalize import read_nus
from classlm.vocab import ClassLexicon, load_lexicon


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small synthetic bundle shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "world"
    assert main(["synth", "--out-dir", str(out), "--size", "600", "--seed", "7"]) == 0
    return out


def test_synth_writes_bundle(workspace):
    for name in (
        "lexicon.lex", "grammar.bnf", "corpus.tsv",
        "corpus_train.tsv", "corpus_tune.tsv", "corpus_test.tsv",
    ):
        assert (workspace / name).exists(), name


def test_synth_deterministic(tmp_path, workspace):
    again = tmp_path / "again"
    assert main(["synth", "--out-dir", str(again), "--size", "600", "--seed", "7"]) == 0
    for name in ("corpus.tsv", "lexicon.lex", "grammar.bnf"):
        assert filecmp.cmp(workspace / name, again / name, shallow=False), name


def test_normalize_roundtrip(tmp_path, workspace):
    out = tmp_path / "train.nus"
    code = main([
        "normalize", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_train.tsv"), "--labeled",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines and all("\t" in line for line in lines)
    assert any("CITY-NAME" in line for line in lines)


def test_train_perplexity_cycle(tmp_path, workspace, capsys):
    model = tmp_path / "model.arpa"
    assert main([
        "train", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_train.tsv"), "--labeled",
        "--order", "3", "--out", str(model),
    ]) == 0
    capsys.readouterr()
    assert main([
        "perplexity", "--model", str(model),
        "--corpus", str(workspace / "corpus_test.tsv"), "--labeled", "--emission",
    ]) == 0
    output = capsys.readouterr().out
    assert output.startswith("pp=")
    pp = float(output.splitlines()[0].split()[0].split("=")[1])
    assert pp >= 1.0
    assert "pp[City]=" in output


def test_perplexity_without_lexicon_drops_punctuation(tmp_path, workspace, capsys):
    # NU input is split like any corpus text: `.,;:!?` are no part of a token
    model = tmp_path / "model.arpa"
    assert main(["train", "--lexicon", str(workspace / "lexicon.lex"),
                 "--corpus", str(workspace / "corpus_train.tsv"), "--labeled",
                 "--out", str(model)]) == 0
    punctuated, plain = tmp_path / "punctuated.nus", tmp_path / "plain.nus"
    punctuated.write_text("from CITY-NAME, to CITY-NAME.\nto CITY-NAME!\n", encoding="utf-8")
    plain.write_text("from CITY-NAME to CITY-NAME\nto CITY-NAME\n", encoding="utf-8")
    outputs = []
    for corpus in (punctuated, plain):
        capsys.readouterr()
        assert main(["perplexity", "--model", str(model), "--corpus", str(corpus)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and " oov=0" in outputs[1]


def test_generate_deterministic(tmp_path, workspace):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main([
            "generate", "--grammar", str(workspace / "grammar.bnf"),
            "--out", str(out),
        ]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(a.read_text(encoding="utf-8").splitlines()) > 1000


def test_generalize_writes_report(tmp_path, workspace, capsys):
    out = tmp_path / "gen"
    argv = [
        "generalize", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_train.tsv"),
        "--grammar", str(workspace / "grammar.bnf"), "--labeled",
        "--tune-corpus", str(workspace / "corpus_tune.tsv"),
        "--test-corpus", str(workspace / "corpus_test.tsv"),
        "--grid", "0.5,1,2",
    ]
    assert main(argv + ["--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "events used=" in stdout
    names = ("model.arpa", "baseline.arpa", "report.csv", "pp.csv", "curve.csv")
    for name in names:
        assert (out / name).exists(), name
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()
    assert report[0] == "mode,used,rare,unknown,balance_factor"
    pp_lines = (out / "pp.csv").read_text(encoding="utf-8").splitlines()
    assert pp_lines[0] == "corpus,pp_baseline,pp_generalized"
    assert {line.split(",")[0] for line in pp_lines[1:]} == {"tuning", "test", "grammar"}
    # a second identical run produces byte-identical artifacts
    again = tmp_path / "gen2"
    assert main(argv + ["--out-dir", str(again)]) == 0
    for name in names:
        assert (out / name).read_bytes() == (again / name).read_bytes(), name


def test_generalize_on_seed7_bundle_matches_recorded_outputs(tmp_path):
    # the benchmark's grammar-5k record: digests for the model files and the
    # event report, tables for the perplexities, which may move in the last bits
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "expected_seed7.json")
        .read_text(encoding="utf-8")
    )["grammar-5k"]
    bundle, out = tmp_path / "bundle", tmp_path / "out"
    assert main(["synth", "--size", "5000", "--seed", "7", "--out-dir", str(bundle)]) == 0
    assert main([
        "generalize", "--labeled", "--lexicon", str(bundle / "lexicon.lex"),
        "--corpus", str(bundle / "corpus_train.tsv"), "--grammar", str(bundle / "grammar.bnf"),
        "--tune-corpus", str(bundle / "corpus_tune.tsv"),
        "--test-corpus", str(bundle / "corpus_test.tsv"), "--out-dir", str(out),
    ]) == 0
    for name in ("model.arpa", "baseline.arpa", "report.csv"):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == expected["digests"][f"out/generalize/{name}"], name
    for name in ("pp.csv", "curve.csv"):
        with open(out / name, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        want = expected["tables"][f"generalize/{name}"]
        assert [row[0] for row in rows] == [row[0] for row in want] and rows[0] == want[0]
        for row, want_row in zip(rows[1:], want[1:]):
            assert len(row) == len(want_row)
            for got, value in zip(row[1:], want_row[1:]):
                assert math.isclose(float(got), float(value), rel_tol=1e-9, abs_tol=0.0), row


# sha256 of model.arpa and curve.csv from `generalize --grid <factor>` on the
# seed-7 5k bundle, recorded when merged counts were still Fractions: a model
# trained at a fractional factor stays byte for byte what it was
FRACTIONAL_GRID_DIGESTS = {
    "1/2": ("ba4cae9a20bb0d32c656abc5c4072a6434b6676c7bc7d8396ead32e2b52fc10d",
            "3139132b43c4883b759d8b2a07274f57d06d321f74c5885934019754d6179484"),
    "7/3": ("95386081a3d92a4ef97a08bfc18fdf889316b0fc25c61f2b33a28b39158b1ca2",
            "282ec0a70dd4765da34056bd1d482c4397100cf400f43337b89f24764fd6af49"),
}


def test_generalize_at_fractional_factors_matches_recorded_digests(tmp_path):
    bundle = tmp_path / "bundle"
    assert main(["synth", "--size", "5000", "--seed", "7", "--out-dir", str(bundle)]) == 0
    for factor, (model_digest, curve_digest) in FRACTIONAL_GRID_DIGESTS.items():
        out = tmp_path / factor.replace("/", "_")
        assert main([
            "generalize", "--labeled", "--lexicon", str(bundle / "lexicon.lex"),
            "--corpus", str(bundle / "corpus_train.tsv"),
            "--grammar", str(bundle / "grammar.bnf"),
            "--tune-corpus", str(bundle / "corpus_tune.tsv"),
            "--test-corpus", str(bundle / "corpus_test.tsv"),
            "--grid", factor, "--out-dir", str(out),
        ]) == 0
        assert hashlib.sha256((out / "model.arpa").read_bytes()).hexdigest() == model_digest
        assert hashlib.sha256((out / "curve.csv").read_bytes()).hexdigest() == curve_digest


def test_generalize_naive_mode(tmp_path, workspace):
    out = tmp_path / "naive"
    assert main([
        "generalize", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_tune.tsv"),
        "--grammar", str(workspace / "grammar.bnf"), "--labeled",
        "--mode", "naive-sentences", "--out-dir", str(out),
    ]) == 0
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1]
    assert report.startswith("naive-sentences,")
    assert report.endswith(",")  # no balance factor in naive mode


def test_generalize_tune_on_test(tmp_path, workspace):
    out = tmp_path / "tot"
    test_corpus = str(workspace / "corpus_test.tsv")
    assert main([
        "generalize", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_tune.tsv"),
        "--grammar", str(workspace / "grammar.bnf"), "--labeled",
        "--tune-corpus", test_corpus, "--test-corpus", test_corpus,
        "--grid", "1,2", "--out-dir", str(out),
    ]) == 0
    assert (out / "model.arpa").exists()
    lines = (out / "pp.csv").read_text(encoding="utf-8").splitlines()
    rows = dict(line.split(",", 1) for line in lines)
    assert rows["tuning"] == rows["test"]


@pytest.mark.parametrize("mode, empty, role", [
    ("ngram-injection", "--corpus", "training"),
    ("ngram-injection", "--tune-corpus", "tuning"),
    ("naive-sentences", "--tune-corpus", "tuning"),
    ("ngram-injection", "--test-corpus", "test"),
], ids=["injection-train", "injection-tune", "naive-tune", "injection-test"])
def test_generalize_given_empty_corpus_is_data_error(tmp_path, workspace, capsys,
                                                     mode, empty, role):
    # a corpus that is given but empty fails naming its file, instead of
    # dropping its row from pp.csv
    (tmp_path / "empty.tsv").write_text("\n \n", encoding="utf-8")
    corpora = {"--corpus": workspace / "corpus_train.tsv",
               "--tune-corpus": workspace / "corpus_tune.tsv",
               "--test-corpus": workspace / "corpus_test.tsv",
               empty: tmp_path / "empty.tsv"}
    assert main([
        "generalize", "--lexicon", str(workspace / "lexicon.lex"),
        "--grammar", str(workspace / "grammar.bnf"), "--labeled", "--mode", mode,
        *(str(arg) for pair in corpora.items() for arg in pair),
        "--grid", "1,2", "--out-dir", str(tmp_path / "gen"),
    ]) == 1
    assert capsys.readouterr().err == f"error: {tmp_path / 'empty.tsv'}: {role} corpus is empty\n"
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("command, flag, role", [
    ("train", "--corpus", "training"),
    ("perplexity", "--corpus", "test"),
    ("analyze", "--corpus", "training"),
], ids=["train", "perplexity", "analyze"])
def test_an_empty_corpus_file_is_named(tmp_path, workspace, capsys, command, flag, role):
    # a file of blank lines holds no utterance: the error names the file, as
    # for analyze's test corpus, instead of failing later with the library's
    # unnamed message
    empty = tmp_path / "empty.tsv"
    empty.write_text("\n\t\n  \r\n", encoding="utf-8")
    model = tmp_path / "model.arpa"
    args = {
        "train": ["--lexicon", workspace / "lexicon.lex", "--labeled",
                  "--corpus", workspace / "corpus_train.tsv", "--out", model],
        "perplexity": ["--lexicon", workspace / "lexicon.lex", "--labeled",
                       "--corpus", workspace / "corpus_test.tsv", "--model", model],
        "analyze": ["--lexicon", workspace / "lexicon.lex",
                    "--corpus", workspace / "corpus_train.tsv",
                    "--test-corpus", workspace / "corpus_test.tsv",
                    "--out-dir", tmp_path / "out"],
    }[command]
    args[args.index(flag) + 1] = empty
    if command == "perplexity":
        assert main(["train", "--lexicon", str(workspace / "lexicon.lex"), "--labeled",
                     "--corpus", str(workspace / "corpus_train.tsv"), "--out", str(model)]) == 0
    assert main([command, *map(str, args)]) == 1
    assert capsys.readouterr().err == f"error: {empty}: {role} corpus is empty\n"
    assert not (tmp_path / "out").exists()


def test_analyze_rejects_an_empty_test_corpus(tmp_path, workspace, capsys):
    # like perplexity and generalize, instead of writing tables of zeros
    # and headers only
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    assert main([
        "analyze", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_train.tsv"), "--test-corpus", str(empty),
        "--out-dir", str(tmp_path / "out"),
    ]) == 1
    assert capsys.readouterr().err == f"error: {empty}: test corpus is empty\n"
    assert not (tmp_path / "out").exists()


def test_analyze_outputs_deterministic(tmp_path, workspace):
    first, second = tmp_path / "a", tmp_path / "b"
    argv = [
        "analyze", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_train.tsv"),
        "--test-corpus", str(workspace / "corpus_test.tsv"),
        "--sizes", "100,200,all",
    ]
    assert main(argv + ["--out-dir", str(first)]) == 0
    assert main(argv + ["--out-dir", str(second)]) == 0
    names = [
        "coverage_train.csv", "coverage_test.csv", "pp_sweep.csv",
        "saturation.csv", "frequency_overlap.csv", "unseen_split.csv",
    ]
    for name in names:
        assert (first / name).exists(), name
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_analyze_studies_read_the_row_indices(tmp_path, workspace, monkeypatch):
    # the sweep and the saturation table read each corpus's row indices, so
    # no study lists the rows of either corpus
    read = []

    def read_nus(*args):
        read.append(real(*args))
        return read[-1]

    real = classlm.normalize.read_nus
    monkeypatch.setattr(classlm.normalize, "read_nus", read_nus)
    assert main([
        "analyze", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_train.tsv"),
        "--test-corpus", str(workspace / "corpus_test.tsv"),
        "--sizes", "100,200,all", "--out-dir", str(tmp_path),
    ]) == 0
    assert len(read) == 2 and all(len(corpus) for corpus in read)
    assert all("rows" not in vars(corpus) for corpus in read)


def test_outdir_env_override(tmp_path, workspace, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("CLASSLM_OUTDIR", str(target))
    assert main(["synth", "--size", "50", "--seed", "3"]) == 0
    assert (target / "corpus.tsv").exists()


def test_tsv_format(tmp_path, workspace):
    out = tmp_path / "tsv"
    assert main([
        "analyze", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_train.tsv"),
        "--test-corpus", str(workspace / "corpus_test.tsv"),
        "--sizes", "100,all", "--format", "tsv", "--out-dir", str(out),
    ]) == 0
    header = (out / "saturation.tsv").read_text(encoding="utf-8").splitlines()[0]
    assert "\t" in header


# -- exit codes -------------------------------------------------------------------


def test_missing_file_is_data_error(tmp_path, capsys):
    code = main([
        "train", "--lexicon", str(tmp_path / "nope.lex"),
        "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "m.arpa"),
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def run_cli(*argv, cwd=None, timeout=60, env=None):
    """``python -m classlm argv`` in a subprocess, with ``env`` added to the
    environment; it must not print a traceback."""
    src = str(Path(classlm.__file__).resolve().parent.parent)
    env = dict(os.environ, **(env or {}), PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "classlm", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=timeout, cwd=cwd,
    )
    assert "Traceback" not in proc.stderr
    return proc


def run_data_error(*argv):
    """stderr of ``python -m classlm argv``, which must exit 1 without a traceback."""
    proc = run_cli(*argv)
    assert proc.returncode == 1
    return proc.stderr


@pytest.mark.parametrize("mode", ["ngram-injection", "naive-sentences"])
def test_generalize_bytes_do_not_depend_on_string_hashing(tmp_path, workspace, mode):
    # the grammar's windows are collected in a set, whose order follows
    # the string hash seed
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / f"hash-seed-{seed}"
        proc = run_cli(
            "generalize", "--labeled", "--lexicon", workspace / "lexicon.lex",
            "--corpus", workspace / "corpus_train.tsv", "--grammar", workspace / "grammar.bnf",
            "--tune-corpus", workspace / "corpus_tune.tsv",
            "--test-corpus", workspace / "corpus_test.tsv", "--mode", mode,
            "--out-dir", out, env={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout, {path.name: path.read_bytes()
                                      for path in sorted(out.iterdir())}))
    assert outputs[0] == outputs[1]
    assert "model.arpa" in outputs[0][1]


def test_ambiguous_grammar_generates_quickly(tmp_path):
    grammar = tmp_path / "ambiguous.bnf"
    grammar.write_text('start S; S -> A A A A A A A A; A -> A A | "x" | ;\n',
                       encoding="utf-8")
    out = tmp_path / "sentences.txt"
    proc = run_cli("generate", "--grammar", grammar, "--max-depth", "6", "--out", out)
    assert proc.returncode == 0
    assert proc.stdout.endswith(f"generated 128 sentences (truncated) -> {out}\n")
    assert len(out.read_text(encoding="utf-8").splitlines()) == 128


_DEEP_CHAIN = "start N0;\n" + "".join(
    f'N{i} -> N{i + 1} "a" | "b";\n' for i in range(19)) + 'N19 -> "b";\n'


@pytest.mark.parametrize("text,argv,note,count,flag", [
    (_DEEP_CHAIN, [], True, 12, " (truncated)"),
    ('start S; S -> "a"; T -> T "b";\n', [], False, 1, ""),
    ('start S; S -> S "a" | "a";\n', [], True, 12, " (truncated)"),
    ('start S; S -> "a" | "b" | "c";\n', ["--max-sentences", "2"], False, 2, " (truncated)"),
    # the empty derivation is no corpus line, so the file reads back whole
    ('start S; S -> "a" | ;\n', [], False, 1, ""),
    # the one sentence is the whole language, but the depth bound still pruned
    ('start S; S -> "a" | S;\n', ["--max-sentences", "1"], True, 1, " (truncated)"),
    # both bounds cut
    ('start S; S -> S "a" | "a";\n', ["--max-sentences", "1"], True, 1, " (truncated)"),
], ids=["deep-chain", "unreachable-recursion", "left-recursion", "sentence-cap",
        "empty-derivation", "depth-cut-at-the-cap", "both-bounds"])
def test_generate_counts_its_lines_and_notes_exactly_a_depth_cut(tmp_path, text, argv, note,
                                                                 count, flag):
    grammar = tmp_path / "g.bnf"
    grammar.write_text(text, encoding="utf-8")
    out = tmp_path / "sentences.txt"
    proc = run_cli("generate", "--grammar", grammar, *argv, "--out", out)
    assert proc.returncode == 0
    assert proc.stdout == ("note: --max-depth 12 cut the expansion\n" * note
                           + f"generated {count} sentences{flag} -> {out}\n")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(read_nus(out).rows) == count


def test_deep_left_recursion_generates_without_traceback(tmp_path):
    grammar = tmp_path / "left.bnf"
    grammar.write_text('start S; S -> S "a" | "a";\n', encoding="utf-8")
    out = tmp_path / "sentences.txt"
    proc = run_cli("generate", "--grammar", grammar, "--max-depth", "5000",
                   "--max-sentences", "10", "--out", out)
    assert proc.returncode == 0
    assert proc.stdout.endswith(f"generated 10 sentences (truncated) -> {out}\n")
    lengths = sorted(len(line.split()) for line in out.read_text(encoding="utf-8").splitlines())
    assert lengths == list(range(4991, 5001))


# T alone takes minutes at the default --max-depth 12, so it must never be
# expanded: an empty Z stops its alternative, or B's 1,000 strings fill the cap.
@pytest.mark.parametrize("text,argv,count", [
    ('start S; S -> "a" | Z T; Z -> Z; T -> A A A A A A A A; A -> A A | "x" | ;\n',
     [], 1),
    ('start S; S -> B | T; B -> C C C; C -> "0" | "1" | "2" | "3" | "4" | "5" | "6" | "7"'
     ' | "8" | "9"; T -> A A A A A A A A; A -> A A | "x" | ;\n', ["--max-sentences", "999"], 999),
], ids=["empty-item", "cap-filled"])
def test_generate_skips_what_the_derivation_never_reaches(tmp_path, text, argv, count):
    grammar = tmp_path / "skip.bnf"
    grammar.write_text(text, encoding="utf-8")
    out = tmp_path / "sentences.txt"
    proc = run_cli("generate", "--grammar", grammar, *argv, "--out", out, timeout=20)
    assert proc.returncode == 0
    assert proc.stdout.endswith(f"generated {count} sentences (truncated) -> {out}\n")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == count and "x" not in " ".join(lines).split()


def test_grammar_terminal_spelling_a_boundary_tag_is_data_error(tmp_path, workspace):
    grammar = tmp_path / "boundary.bnf"
    grammar.write_text('start S;\nS -> "from CITY-NAME </s> to" | "hello <s>";\n',
                       encoding="utf-8")
    expected = f"error: {grammar}:2: reserved tag </s> in a terminal\n"
    assert run_data_error("generate", "--grammar", grammar,
                          "--out", tmp_path / "sentences.txt") == expected
    assert run_data_error(
        "generalize", "--lexicon", workspace / "lexicon.lex",
        "--corpus", workspace / "corpus_train.tsv", "--labeled", "--grammar", grammar,
        "--tune-corpus", workspace / "corpus_tune.tsv", "--out-dir", tmp_path / "gen",
    ) == expected
    assert not (tmp_path / "sentences.txt").exists() and not (tmp_path / "gen").exists()


def test_balance_factor_past_float_range_is_data_error(tmp_path, workspace):
    # 1e307 fits a float, but a context seen 18 times or more sums past it
    stderr = run_data_error(
        "generalize", "--lexicon", workspace / "lexicon.lex",
        "--corpus", workspace / "corpus_train.tsv", "--labeled",
        "--grammar", workspace / "grammar.bnf",
        "--tune-corpus", workspace / "corpus_tune.tsv",
        "--grid", "1" + "0" * 307, "--out-dir", tmp_path / "gen",
    )
    assert "sum past the float range" in stderr
    # the run failed inside the pipeline, before it had anything to write
    assert not (tmp_path / "gen").exists()


def test_grid_in_exponent_notation_exits_two(tmp_path, workspace):
    proc = run_cli(
        "generalize", "--lexicon", workspace / "lexicon.lex",
        "--corpus", workspace / "corpus_train.tsv", "--labeled",
        "--grammar", workspace / "grammar.bnf",
        "--tune-corpus", workspace / "corpus_tune.tsv",
        "--grid", "1e400", "--out-dir", tmp_path / "gen",
    )
    assert proc.returncode == 2
    assert "bad grid value" in proc.stderr


def test_grid_with_spaces_exits_two(tmp_path, workspace):
    # a grid count is read like an integer flag: no surrounding spaces
    proc = run_cli(
        "generalize", "--lexicon", workspace / "lexicon.lex",
        "--corpus", workspace / "corpus_train.tsv", "--labeled",
        "--grammar", workspace / "grammar.bnf",
        "--tune-corpus", workspace / "corpus_tune.tsv",
        "--grid", "1, 2", "--out-dir", tmp_path / "gen",
    )
    assert proc.returncode == 2
    assert "bad grid value" in proc.stderr
    assert not (tmp_path / "gen").exists()


@pytest.mark.parametrize("flag,value", [
    ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-0.1"),
    ("--threshold", "1.5"), ("--threshold", "half"),
    ("--threshold", "\u0660.\u0665"), ("--threshold", "0_0.5"), ("--threshold", " 0.5 "),
    ("--min-count", "-1"), ("--min-count", "2.5"), ("--min-count", "\u0663"),
    ("--min-count", "1_0"), ("--min-count", " 3"),
])
def test_analyze_bad_bound_exits_two(tmp_path, workspace, flag, value):
    # a nan threshold used to exit 0 with an overlap of 0.0 for every group
    proc = run_cli(
        "analyze", "--lexicon", workspace / "lexicon.lex",
        "--corpus", workspace / "corpus_train.tsv",
        "--test-corpus", workspace / "corpus_test.tsv",
        f"{flag}={value}", "--out-dir", tmp_path / "an",
    )
    assert proc.returncode == 2
    assert f"argument {flag}" in proc.stderr
    assert not (tmp_path / "an").exists()


_BOUND_COMMANDS = {
    "train": "train --labeled --lexicon {w}/lexicon.lex --corpus {w}/corpus_train.tsv "
             "--out out/model.arpa",
    "analyze": "analyze --lexicon {w}/lexicon.lex --corpus {w}/corpus_train.tsv "
               "--test-corpus {w}/corpus_test.tsv --out-dir out",
    "generate": "generate --grammar {w}/grammar.bnf --out out/sentences.txt",
    "generalize": "generalize --labeled --lexicon {w}/lexicon.lex "
                  "--corpus {w}/corpus_train.tsv --grammar {w}/grammar.bnf "
                  "--tune-corpus {w}/corpus_tune.tsv --out-dir out",
}


def _bound_command(command, workspace):
    return [part.format(w=workspace) for part in _BOUND_COMMANDS[command].split()]


@pytest.mark.parametrize("command,flag,value", [
    ("train", "--order", "0"), ("analyze", "--order", "0"),
    ("generalize", "--order", "0"), ("generalize", "--order", "-1"),
    ("analyze", "--sizes", "0"), ("analyze", "--sizes", "0,all"),
    ("analyze", "--sizes", "\u0663"), ("analyze", "--sizes", "100, all"),
    ("train", "--order", "\u0663"), ("generate", "--max-depth", "+3"),
    ("generate", "--max-depth", "0"), ("generate", "--max-sentences", "0"),
    ("generalize", "--max-depth", "0"), ("generalize", "--max-sentences", "0"),
])
def test_bound_below_one_exits_two_before_any_work(tmp_path, workspace, command, flag, value):
    # these used to exit 1 as data errors, analyze --sizes 0 after writing
    # its coverage tables
    (tmp_path / "out").mkdir()
    proc = run_cli(*_bound_command(command, workspace), f"{flag}={value}", cwd=tmp_path)
    assert proc.returncode == 2
    assert f"argument {flag}" in proc.stderr
    assert list((tmp_path / "out").iterdir()) == []


def test_analyze_size_past_corpus_writes_nothing(tmp_path, workspace):
    # the 600-utterance bundle trains on 480; the check used to run after
    # the coverage tables were written
    proc = run_cli(*_bound_command("analyze", workspace), "--sizes", "100,481", cwd=tmp_path)
    assert proc.returncode == 1
    assert "training size 481 outside 1..480" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_analyze_default_sizes_fit_a_short_corpus(tmp_path, workspace):
    # the default steps 500, 1000 and 2000 lie past the 480 training lines;
    # they used to end the run with "training size 500 outside 1..480"
    proc = run_cli(*_bound_command("analyze", workspace), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "out" / "pp_sweep.csv").read_text(encoding="utf-8").splitlines()
    assert sorted({int(row.split(",")[0]) for row in rows[1:]}) == [100, 480]
    header = (tmp_path / "out" / "saturation.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "group,100,480"


@pytest.mark.parametrize("flag", ["--size", "--seed"])
def test_synth_negative_bound_exits_two(tmp_path, flag):
    # --size -5 used to write an empty bundle, --seed -5 the bundle of --seed 5
    proc = run_cli("synth", flag, "-5", "--out-dir", tmp_path / "bundle")
    assert proc.returncode == 2
    assert f"argument {flag}" in proc.stderr
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("flag,value", [
    ("--size", "\u0662\u0660"), ("--seed", "1_0"), ("--seed", "+1"),
])
def test_synth_bound_not_ascii_digits_exits_two(tmp_path, flag, value):
    # --size ٢٠ --seed 1_0 used to write 20 utterances at seed 10
    proc = run_cli("synth", flag, value, "--out-dir", tmp_path / "bundle")
    assert proc.returncode == 2
    assert f"argument {flag}: bad integer" in proc.stderr
    assert not (tmp_path / "bundle").exists()


def test_synth_accepts_size_zero(tmp_path):
    assert main(["synth", "--size", "0", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "corpus.tsv").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("size,lines", [(7, (5, 0, 2)), (0, (0, 0, 0))], ids=["size-7", "size-0"])
def test_synth_corpus_is_the_splits_concatenated(tmp_path, size, lines):
    # size 7 splits 5/0/2: an empty split in the middle of the whole corpus
    assert main(["synth", "--size", str(size), "--seed", "7", "--out-dir", str(tmp_path)]) == 0
    splits = [(tmp_path / f"corpus_{name}.tsv").read_bytes() for name in ("train", "tune", "test")]
    assert tuple(split.count(b"\n") for split in splits) == lines
    assert (tmp_path / "corpus.tsv").read_bytes() == b"".join(splits)


def test_analyze_accepts_bound_edges(tmp_path, workspace):
    proc = run_cli(
        "analyze", "--lexicon", workspace / "lexicon.lex",
        "--corpus", workspace / "corpus_train.tsv",
        "--test-corpus", workspace / "corpus_test.tsv",
        "--threshold", "0", "--min-count", "0", "--sizes", "all",
        "--out-dir", tmp_path / "an",
    )
    assert proc.returncode == 0
    rows = (tmp_path / "an" / "frequency_overlap.csv").read_text(encoding="utf-8")
    # threshold 0 selects every training NU, so some test NU of each group is covered
    assert all(float(line.split(",")[1]) > 0 for line in rows.splitlines()[1:])


def test_threshold_in_exponent_shape_runs_like_the_default(tmp_path, workspace):
    # 1e-3 is the shape export writes for a float, and the default's value
    argv = ["analyze", "--lexicon", str(workspace / "lexicon.lex"),
            "--corpus", str(workspace / "corpus_train.tsv"),
            "--test-corpus", str(workspace / "corpus_test.tsv"), "--sizes", "all"]
    assert main(argv + ["--threshold", "1e-3", "--out-dir", str(tmp_path / "e")]) == 0
    assert main(argv + ["--out-dir", str(tmp_path / "default")]) == 0
    written = [{path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
               for name in ("e", "default")]
    assert written[0] == written[1] and "frequency_overlap.csv" in written[0]


def test_model_without_unk_is_data_error(tmp_path, model_file_without):
    model = model_file_without("<unk>")
    corpus = tmp_path / "oov.txt"
    corpus.write_text("from zzyzx to rome\n", encoding="utf-8")
    stderr = run_data_error("perplexity", "--model", model, "--corpus", corpus)
    assert f"{model}: missing unigram for <unk>" in stderr


def test_model_without_prefix_is_data_error(tmp_path, model_file_without, model_small):
    trigram = min(g for g in model_small.probs10 if len(g) == 3)
    model = model_file_without(" ".join(trigram[:2]))
    corpus = tmp_path / "c.txt"
    corpus.write_text("from rome to naples\n", encoding="utf-8")
    stderr = run_data_error("perplexity", "--model", model, "--corpus", corpus)
    assert f"{model}: 3-gram" in stderr and "has no stored prefix" in stderr


def write_unigram_model(path, header_lines, class_lines=()):
    """A model file of three unigrams under the given ``ngram k=count`` and
    ``TAG size`` lines."""
    path.write_text(
        "# classlm model format v1\n\n\\data\\\n" + "\n".join(header_lines)
        + "\n\n\\class-sizes:\n" + "".join(line + "\n" for line in class_lines)
        + "\n\\1-grams:\n"
        "-0.5\t<s>\t-0.3\n-0.5\t</s>\n-0.5\t<unk>\n\n\\end\\\n",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("top", [10**20, 10**6])
def test_model_header_with_a_gap_is_data_error(tmp_path, top):
    # an order past any index, and one that would cost a window of that size
    model = write_unigram_model(tmp_path / "gap.arpa", ["ngram 1=3", f"ngram {top}=0"])
    corpus = tmp_path / "c.txt"
    corpus.write_text("from rome\n", encoding="utf-8")
    stderr = run_data_error("perplexity", "--model", model, "--corpus", corpus)
    assert stderr == f"error: {model}: header declares order {top} but not order 2\n"


@pytest.mark.parametrize("size", ["\u00b2", "9" * 5000, "+3", "\u0663", "3 4"],
                         ids=["superscript", "past-int-digit-limit", "sign",
                              "arabic-indic", "two-sizes"])
def test_model_class_size_not_ascii_digits_is_data_error(tmp_path, size):
    # "²" passes str.isdigit() and int() refuses it; int() also refuses
    # more than 4,300 digits
    model = write_unigram_model(tmp_path / "sizes.arpa", ["ngram 1=3"],
                                ["CITY 3", f"TOWN {size}"])
    corpus = tmp_path / "c.txt"
    corpus.write_text("from rome\n", encoding="utf-8")
    stderr = run_data_error("perplexity", "--model", model, "--corpus", corpus)
    assert stderr == f"error: {model}:8: expected 'TAG size'\n"


@pytest.mark.parametrize("old,new,lineno,message", [
    ("ngram 1=3", "ngram 0_1=3", 4, "bad header line"),
    ("ngram 1=3", "ngram \u0661=3", 4, "bad header line"),
    ("ngram 1=3", "ngram 1=+3", 4, "bad header line"),
    ("\\1-grams:", "\\0_1-grams:", 8, "bad section '\\\\0_1-grams:'"),
    ("\\1-grams:", "\\ 1-grams:", 8, "bad section '\\\\ 1-grams:'"),
    ("\\1-grams:", "\\\u0661-grams:", 8, "bad section '\\\\\u0661-grams:'"),
    ("-0.5\t<s>", "-0_0.5\t<s>", 9, "bad float"),
    ("-0.5\t<s>", "-\u0660.5\t<s>", 9, "bad float"),
], ids=["header-order-underscore", "header-order-arabic-indic", "header-count-sign",
        "section-underscore", "section-space", "section-arabic-indic",
        "log-prob-underscore", "log-prob-arabic-indic"])
def test_model_number_not_ascii_is_data_error(tmp_path, old, new, lineno, message):
    # each of these models used to be read, int() and float() taking "_",
    # signs, spaces and non-ASCII digits
    model = write_unigram_model(tmp_path / "numbers.arpa", ["ngram 1=3"])
    text = model.read_text(encoding="utf-8")
    assert text.count(old) == 1
    model.write_text(text.replace(old, new), encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("from rome\n", encoding="utf-8")
    stderr = run_data_error("perplexity", "--model", model, "--corpus", corpus)
    assert stderr == f"error: {model}:{lineno}: {message}\n"


def test_model_float_shapes_that_export_writes_are_read(tmp_path):
    model = write_unigram_model(tmp_path / "floats.arpa", ["ngram 1=3"])
    text = model.read_text(encoding="utf-8")
    for prob in ("-1e-05", "-2.5e+20", "0.0", "-0.0", "-3"):
        model.write_text(text.replace("-0.5\t</s>", f"{prob}\t</s>"), encoding="utf-8")
        assert import_model(model).probs10[("</s>",)] == float(prob)


def test_model_declared_far_above_its_grams_scores_quickly(tmp_path):
    # the <s> unigram carries a backoff weight, so every window longer than
    # two tokens scores like its last two
    corpus = tmp_path / "c.txt"
    corpus.write_text("from rome to naples\nfrom oslo\n", encoding="utf-8")
    outputs = []
    for order in (2, 20000):
        header = ["ngram 1=3"] + [f"ngram {k}=0" for k in range(2, order + 1)]
        model = write_unigram_model(tmp_path / f"order{order}.arpa", header)
        start = time.perf_counter()
        proc = run_cli("perplexity", "--model", model, "--corpus", corpus)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    assert elapsed < 2.0  # of the order-20000 run
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("log_prob", ["-400", "-1.7e+308"],
                         ids=["pp-past-float-range", "total-past-float-range"])
def test_perplexity_past_float_range_is_data_error(tmp_path, log_prob):
    # a valid model: at -400 the perplexity 10**400 used to end in an
    # OverflowError traceback, and at -1.7e+308 the log total overflowed and
    # pp=inf was printed with exit 0
    model = tmp_path / "far.arpa"
    model.write_text(
        "# classlm model format v1\n\n\\data\\\nngram 1=4\n\n\\class-sizes:\n\n"
        "\\1-grams:\n" + "".join(f"{log_prob}\t{token}\n" for token in ("<s>", "</s>", "<unk>", "a"))
        + "\n\\end\\\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("a a a\n", encoding="utf-8")
    proc = run_cli("perplexity", "--model", model, "--corpus", corpus)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: perplexity past the float range\n"


@pytest.mark.parametrize("log_prob", ["-1e+308", "-0.5"], ids=["inf-meets-minus-inf", "total-inf"])
def test_perplexity_total_past_float_range_is_data_error(tmp_path, log_prob):
    # a valid model whose backoff weight on a overflows the total: with a at
    # -1e+308 the fsum of -inf and inf used to raise ValueError in a
    # traceback, and with a at -0.5 the total was inf and pp=0.0000 was
    # printed with exit 0
    model = tmp_path / "far.arpa"
    model.write_text(
        "# classlm model format v1\n\n\\data\\\nngram 1=5\nngram 2=0\n\n\\class-sizes:\n\n"
        "\\1-grams:\n" + "".join(f"-0.5\t{token}\n" for token in ("<s>", "</s>", "<unk>", "b"))
        + f"{log_prob}\ta\t1e+308\n\n\\end\\\n", encoding="utf-8")
    corpus = tmp_path / "c.txt"
    corpus.write_text("a b\na b\n", encoding="utf-8")
    proc = run_cli("perplexity", "--model", model, "--corpus", corpus)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: perplexity past the float range\n"


@pytest.mark.parametrize("command", ["train", "analyze", "generalize"])
def test_order_above_ceiling_exits_two_before_any_work(tmp_path, workspace, command):
    # train --order 400 on the 5k bundle used to run for 89 s in 5 GB
    (tmp_path / "out").mkdir()
    proc = run_cli(*_bound_command(command, workspace), "--order=11", cwd=tmp_path)
    assert proc.returncode == 2
    assert "argument --order/-n: '11' is above the largest order, 10" in proc.stderr
    assert list((tmp_path / "out").iterdir()) == []


def test_order_at_ceiling_trains(tmp_path, workspace):
    (tmp_path / "out").mkdir()
    proc = run_cli(*_bound_command("train", workspace), "--order=10", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert import_model(tmp_path / "out" / "model.arpa").order == 10


def load_benchmark_tracer():
    """perfbench/tracing.py as a fresh module, compiled in memory so that no
    bytecode is written next to it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    module = types.ModuleType("benchmark_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_benchmark_tracer_wraps_the_scoring_names(tmp_path, workspace):
    # the benchmark wraps these names; a rename of score_corpus would drop
    # their spans
    model = tmp_path / "m.arpa"
    corpus = workspace / "corpus_train.tsv"
    lexicon = workspace / "lexicon.lex"
    assert main(["train", "--lexicon", str(lexicon), "--corpus", str(corpus),
                 "--labeled", "--out", str(model)]) == 0
    tracer = load_benchmark_tracer().Tracer()
    tracer.install()
    try:
        assert main(["perplexity", "--model", str(model), "--corpus", str(corpus),
                     "--labeled", "--lexicon", str(lexicon)]) == 0
    finally:
        tracer.remove()
    names = {span[0] for span in tracer.spans}
    assert {"lm.import_model", "lm.perplexity", "score.score_corpus"} <= names


def test_benchmark_tracer_sees_the_grammar_side(tmp_path, workspace):
    # the grammar's terminals go through the traced normalize, so the
    # benchmark's normalize metrics cover the grammar side of generalize
    grammar = parse_grammar(workspace / "grammar.bnf")
    terminals = {item for alts in grammar.productions.values() for alt in alts
                 for item in alt if isinstance(item, tuple) and item}
    tracer = load_benchmark_tracer().Tracer()
    tracer.install()
    try:
        assert main(["generalize", "--labeled", "--lexicon", str(workspace / "lexicon.lex"),
                     "--corpus", str(workspace / "corpus_train.tsv"),
                     "--grammar", str(workspace / "grammar.bnf"),
                     "--tune-corpus", str(workspace / "corpus_tune.tsv"),
                     "--out-dir", str(tmp_path / "gen")]) == 0
    finally:
        tracer.remove()
    spans = [span for span in tracer.spans if span[0] == "normalize.normalize"]
    assert len(spans) >= len(terminals) > 0


def test_benchmark_pinned_names_resolve(tmp_path, model_small):
    # the benchmark wraps every TARGETS name and writes the scoring backend
    # into its manifest; a deleted name breaks its runs, not the commands
    targets = load_benchmark_tracer().TARGETS
    for short, names in targets.items():
        module = importlib.import_module(f"classlm.{short}")
        for name in names:
            owner = module
            for attr in name.split("."):
                owner = getattr(owner, attr)
            assert callable(owner), f"classlm.{short}.{name}"
    # the tracer looks each module up in sys.modules after importing only
    # classlm.cli, and wraps the one model class's score_corpus
    src = str(Path(classlm.__file__).resolve().parent.parent)
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, classlm.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
    ).stdout.split()
    assert sorted({f"classlm.{short}" for short in targets} - set(loaded)) == []
    assert classlm.score.Scorer is classlm.lm.ClassNGramLM
    # the pinned writers are the ones the commands call, so the tracer's
    # wrapper lands on them
    assert classlm.analysis.write_labeled_corpus is classlm.normalize.write_labeled_corpus
    assert classlm.grammar.write_sentences is classlm.normalize.write_sentences
    assert isinstance(classlm.score.extension_available(), bool)
    export_model(model_small, tmp_path / "m.arpa")
    assert import_model(tmp_path / "m.arpa").scorer().backend == "python"


# runs ``python -m classlm`` with the given arguments and prints its exit
# code, the classlm modules it executed (a lazily registered module that no
# code used is not a plain module) and whether it loaded fractions, csv and
# dataclasses
RUN_AS_MAIN = """
import json, runpy, sys, types
sys.argv[0] = "classlm"
try:
    runpy.run_module("classlm", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
executed = sorted(name for name, module in sys.modules.items()
                  if name.startswith("classlm.") and type(module) is types.ModuleType)
print(json.dumps([code, executed] + [name in sys.modules
                                      for name in ("fractions", "csv", "dataclasses")]))
"""


@pytest.mark.parametrize("command, executed", [
    ("generate", ["cli", "errors", "grammar", "normalize", "vocab"]),
    ("train", ["cli", "errors", "lm", "ngrams", "normalize", "vocab"]),
    ("perplexity", ["cli", "errors", "lm", "ngrams", "normalize", "vocab"]),
    # reading the bounds runs no module of counts and loads no fractions
    pytest.param("generate --max-depth 12 --max-sentences 100000",
                 ["cli", "errors", "grammar", "normalize", "vocab"], id="generate-bounds"),
    pytest.param("synth", ["cli", "errors", "normalize", "synth", "vocab"], id="synth"),
    pytest.param("normalize --labeled", ["cli", "errors", "normalize", "vocab"],
                 id="normalize"),
    pytest.param("normalize", ["cli", "errors", "normalize", "vocab"], id="normalize-plain"),
    pytest.param("generalize", ["cli", "errors", "generalize", "grammar", "lm", "ngrams",
                                "normalize", "vocab"], id="generalize"),
    pytest.param("analyze", ["analysis", "cli", "errors", "lm", "ngrams", "normalize",
                             "vocab"], id="analyze"),
])
def test_each_command_runs_only_the_modules_it_calls(tmp_path, workspace, model_small,
                                                     command, executed):
    # -X dev -W error: a warning from the lazy loader, on any Python the CI
    # matrix runs, fails the command
    name, *flags = command.split()
    model = tmp_path / "m.arpa"
    if name == "perplexity":
        export_model(model_small, model)
    lexicon, train = workspace / "lexicon.lex", workspace / "corpus_train.tsv"
    args = {
        "synth": ["--size", "50", "--out-dir", tmp_path / "bundle"],
        "normalize": ["--lexicon", lexicon, "--corpus", train, "--out", tmp_path / "n.tsv"],
        "generate": ["--grammar", workspace / "grammar.bnf", "--out", tmp_path / "s.txt"],
        "train": ["--labeled", "--lexicon", lexicon, "--corpus", train,
                  "--out", tmp_path / "t.arpa"],
        "perplexity": ["--labeled", "--emission", "--model", model, "--lexicon", lexicon,
                       "--corpus", workspace / "corpus_test.tsv"],
        "generalize": ["--labeled", "--lexicon", lexicon, "--corpus", train,
                       "--grammar", workspace / "grammar.bnf",
                       "--tune-corpus", workspace / "corpus_tune.tsv",
                       "--out-dir", tmp_path / "gen"],
        "analyze": ["--lexicon", lexicon, "--corpus", train,
                    "--test-corpus", workspace / "corpus_test.tsv",
                    "--out-dir", tmp_path / "analysis"],
    }[name] + flags
    src = str(Path(classlm.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", RUN_AS_MAIN, name, *map(str, args)],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert out.stderr == ""
    code, modules, fractions, csv_loaded, dataclasses = json.loads(out.stdout.splitlines()[-1])
    assert code == 0
    assert modules == [f"classlm.{module}" for module in executed]
    # counts are ints: only generalize, whose grid holds 1/2, loads fractions
    assert fractions == (name == "generalize")
    # the commands that write no report load no csv
    if name in ("generate", "synth", "normalize"):
        assert not csv_loaded
    # the records are plain classes: no command pays for dataclasses and inspect
    assert not dataclasses


def test_readme_library_example_scores_like_the_cli(tmp_path, workspace, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    shutil.copytree(workspace, tmp_path / "work")
    texts = [line.split("\t", 1)[1] for line in
             (workspace / "corpus_train.tsv").read_text(encoding="utf-8").splitlines()]
    # blank lines between utterances, which the CLI skips
    (tmp_path / "corpus.txt").write_text("\n\n".join(texts) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})
    pp = float(capsys.readouterr().out)
    assert main(["train", "--lexicon", "work/lexicon.lex", "--corpus", "corpus.txt",
                 "--order", "3", "--out", "m.arpa"]) == 0
    capsys.readouterr()
    assert main(["perplexity", "--model", "m.arpa", "--corpus", "corpus.txt",
                 "--lexicon", "work/lexicon.lex", "--emission"]) == 0
    assert capsys.readouterr().out.split()[0] == f"pp={pp:.4f}"


def test_readme_quickstart_runs_and_writes_the_listed_files(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    block, prose = quickstart.split("```\n", 1)[1].split("```", 1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    assert [argv[:2] for argv in commands] == [
        ["classlm", command] for command in
        ("synth", "train", "perplexity", "generalize", "analyze")]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    capsys.readouterr()
    # the files the prose after the block lists for each command
    generalize_prose, analyze_prose = prose.split("`analyze` writes", 1)
    listed = {
        "generalize": ["model.arpa", "baseline.arpa"]
        + re.findall(r"`(\w+\.csv)`", generalize_prose),
        "analyze": re.findall(r"`(\w+\.csv)`", analyze_prose),
    }
    for argv in commands:
        if argv[1] in listed:
            out_dir = Path(argv[argv.index("--out-dir") + 1])
            assert sorted(path.name for path in out_dir.iterdir()) == sorted(listed[argv[1]])


def test_boundary_tag_in_corpus_is_data_error(tmp_path, workspace):
    corpus = tmp_path / "tags.txt"
    corpus.write_text("to rome\nhello <s> roma\n", encoding="utf-8")
    stderr = run_data_error(
        "train", "--lexicon", workspace / "lexicon.lex", "--corpus", corpus,
        "--out", tmp_path / "m.arpa",
    )
    assert f"{corpus}:2: reserved tag <s>" in stderr
    assert not (tmp_path / "m.arpa").exists()


def test_non_utf8_corpus_is_data_error(tmp_path, workspace):
    corpus = tmp_path / "latin1.txt"
    corpus.write_bytes("to rome\nto cefal\u00f9\n".encode("latin-1"))
    stderr = run_data_error(
        "train", "--lexicon", workspace / "lexicon.lex", "--corpus", corpus,
        "--out", tmp_path / "m.arpa",
    )
    assert f"{corpus}: not UTF-8 text" in stderr


# every reader of user files, with the DataError subclass it raises
READERS = [
    (load_lexicon, LexiconError),
    (read_labeled_corpus, CorpusError),
    (read_nus, CorpusError),
    pytest.param(functools.partial(read_nus, labeled=True,
                                   lexicon=ClassLexicon({"CITY-NAME": {"rome", "new_york"}})),
                 CorpusError, id="read_nus_labeled-CorpusError"),
    (parse_grammar, GrammarError),
    (import_model, ModelError),
]


@pytest.mark.parametrize("reader,error", READERS)
def test_every_reader_rejects_non_utf8(tmp_path, reader, error):
    path = tmp_path / "input.bin"
    path.write_bytes(b"first line\n\xff\xfe\n")
    with pytest.raises(error, match=f"{path}: not UTF-8 text"):
        reader(path)


# pieces of every file format, so random text reaches past the first check
_FRAGMENTS = st.sampled_from([
    "\n", "\t", " ", "#", ":", ";", "|", "->", '"', "/", ".", "-", "0", "1", "-0.5",
    "7/2", "nan", "inf", "City", "Other", "Weather", "CITY-NAME", "rome", "<s>",
    "</s>", "<unk>", "start", "S", "\\data\\", "ngram 1=", "ngram 2=",
    "\\class-sizes:", "\\1-grams:", "\\2-grams:", "\\end\\",
    "# classlm model format v1", "3\tto rome\n", "-0.5\t<s>\t-0.3\n", "-0.5\t</s>\n",
    "-0.5\t<unk>\n", "start S;\n", 'S -> "a" B | ;\n', "CITY-NAME: rome\n",
])
_TEXT = st.lists(st.one_of(_FRAGMENTS, st.text(max_size=3)), max_size=40).map("".join)


@pytest.mark.parametrize("reader,error", READERS)
@settings(max_examples=60, deadline=None)
@given(text=_TEXT)
def test_every_reader_returns_or_raises_data_error(tmp_path_factory, reader, error, text):
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_text(text, encoding="utf-8")
    try:
        reader(path)
    except DataError as exc:
        assert isinstance(exc, error)


@pytest.fixture(scope="module")
def fuzz_bundle(workspace, tmp_path_factory):
    """The CLI bundle plus a model trained on its tuning split."""
    bundle = tmp_path_factory.mktemp("fuzz") / "bundle"
    shutil.copytree(workspace, bundle)
    assert main(["train", "--lexicon", str(bundle / "lexicon.lex"), "--labeled",
                 "--corpus", str(bundle / "corpus_tune.tsv"),
                 "--out", str(bundle / "model.arpa")]) == 0
    return bundle


# (bundle file to mutate, command run in a copy of the bundle)
FUZZ_CASES = [
    ("lexicon.lex", "normalize --lexicon lexicon.lex --corpus corpus_test.tsv --labeled "
                    "--out out.tsv"),
    ("lexicon.lex", "train --lexicon lexicon.lex --corpus corpus_tune.tsv --labeled "
                    "--out out.arpa"),
    ("grammar.bnf", "generate --grammar grammar.bnf --max-depth 8 --out out.txt"),
    ("grammar.bnf", "generalize --lexicon lexicon.lex --corpus corpus_tune.tsv --labeled "
                    "--grammar grammar.bnf --tune-corpus corpus_test.tsv --grid 1,2 "
                    "--out-dir out"),
    ("corpus_tune.tsv", "train --lexicon lexicon.lex --corpus corpus_tune.tsv --labeled "
                        "--out out.arpa"),
    ("corpus_tune.tsv", "analyze --lexicon lexicon.lex --corpus corpus_tune.tsv "
                        "--test-corpus corpus_test.tsv --sizes 10,all --out-dir out"),
    ("model.arpa", "perplexity --model model.arpa --corpus corpus_test.tsv "
                   "--lexicon lexicon.lex --labeled --emission"),
]
_EDITS = st.lists(st.tuples(
    st.sampled_from(["drop", "duplicate", "swap", "truncate", "change", "insert"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.one_of(st.sampled_from(b'\n\t :;|"#-./019'), st.integers(0, 255)),
), min_size=1, max_size=3)


def mutate(data: bytes, edits) -> bytes:
    """Apply (kind, i, j, byte) edits: drop, duplicate or swap lines i and j,
    or truncate at, change or insert ``byte`` at position i."""
    for kind, i, j, byte in edits:
        lines = data.splitlines(keepends=True)
        if kind in ("drop", "duplicate", "swap"):
            if not lines:
                continue
            i, j = i % len(lines), j % len(lines)
            if kind == "drop":
                del lines[i]
            elif kind == "duplicate":
                lines.insert(i, lines[i])
            else:
                lines[i], lines[j] = lines[j], lines[i]
            data = b"".join(lines)
            continue
        i %= len(data) + 1
        if kind == "truncate":
            data = data[:i]
        elif kind == "change":
            data = data[:i] + bytes([byte]) + data[i + 1:]
        else:
            data = data[:i] + bytes([byte]) + data[i:]
    return data


@pytest.mark.parametrize("name,command", FUZZ_CASES,
                         ids=[f"{name}-{command.split()[0]}" for name, command in FUZZ_CASES])
@settings(max_examples=8, deadline=None)
@given(edits=_EDITS)
def test_cli_on_mutated_bundle_file(fuzz_bundle, tmp_path_factory, name, command, edits):
    bundle = tmp_path_factory.mktemp("mutated") / "bundle"
    shutil.copytree(fuzz_bundle, bundle)
    path = bundle / name
    path.write_bytes(mutate(path.read_bytes(), edits))
    proc = run_cli(*command.split(), cwd=bundle)
    assert proc.returncode in (0, 1, 2), proc.stderr


def test_read_corpus_rejects_boundary_tags(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("from <unk> to rome\n\nback </s>\n", encoding="utf-8")
    with pytest.raises(CorpusError, match=f"{path}:3: reserved tag </s>"):
        read_nus(path)


def test_blank_labeled_row_trains_like_plain_corpus(tmp_path, workspace):
    labeled = tmp_path / "labeled.tsv"
    labeled.write_text("City\tto rome\nOther\t   \nTime\tat five\n", encoding="utf-8")
    plain = tmp_path / "plain.txt"
    plain.write_text("to rome\n   \nat five\n", encoding="utf-8")
    lexicon = str(workspace / "lexicon.lex")
    for corpus, flags in ((labeled, ["--labeled"]), (plain, [])):
        assert main(["train", "--lexicon", lexicon, "--corpus", str(corpus),
                     "--out", str(tmp_path / f"{corpus.stem}.arpa"), *flags]) == 0
    assert (tmp_path / "labeled.arpa").read_bytes() == (tmp_path / "plain.arpa").read_bytes()


@pytest.mark.parametrize("labeled, text", [
    pytest.param(False, "to rome\n...\nat five\n", id="plain"),
    pytest.param(True, "City\tto rome\nOther\t?!\nTime\tat five\n", id="labeled"),
])
def test_normalize_then_train_gives_the_model_of_the_raw_corpus(tmp_path, workspace,
                                                                labeled, text):
    # a punctuation-only text holds no utterance, so normalize writes no line
    # for it and train counts no <s> </s> for it, on either file
    raw = tmp_path / "raw.txt"
    raw.write_text(text, encoding="utf-8")
    lexicon = str(workspace / "lexicon.lex")
    flags = ["--labeled"] if labeled else []
    assert main(["normalize", "--lexicon", lexicon, "--corpus", str(raw),
                 "--out", str(tmp_path / "nus.txt"), *flags]) == 0
    for corpus in ("raw", "nus"):
        assert main(["train", "--lexicon", lexicon, "--corpus", str(tmp_path / f"{corpus}.txt"),
                     "--out", str(tmp_path / f"{corpus}.arpa"), *flags]) == 0
    assert (tmp_path / "nus.arpa").read_bytes() == (tmp_path / "raw.arpa").read_bytes()


def test_malformed_lexicon_is_data_error(tmp_path, workspace, capsys):
    bad = tmp_path / "bad.lex"
    bad.write_text("CITY-NAME naples\n", encoding="utf-8")
    code = main([
        "train", "--lexicon", str(bad),
        "--corpus", str(workspace / "corpus_tune.tsv"), "--labeled",
        "--out", str(tmp_path / "m.arpa"),
    ])
    assert code == 1
    assert "bad.lex" in capsys.readouterr().err


def test_generalize_options_are_the_documented_ones():
    # one balance-factor rule: no flag switches how unknown events are weighted
    parser = build_parser()
    generalize = parser._subparsers._group_actions[0].choices["generalize"]
    options = {option for action in generalize._actions for option in action.option_strings}
    assert options == {
        "-h", "--help", "--lexicon", "--corpus", "--grammar", "--order", "-n", "--grid",
        "--tune-corpus", "--test-corpus", "--mode", "--emission", "--labeled",
        "--max-depth", "--max-sentences", "--out-dir", "-o", "--format",
    }


# the parser reads no constant of generalize or grammar, so that building it
# runs neither module; these pin its defaults and choices to theirs


def test_mode_choices_are_the_generalize_modes():
    generalize = build_parser()._subparsers._group_actions[0].choices["generalize"]
    mode = next(action for action in generalize._actions if action.dest == "mode")
    assert mode.choices == (classlm.generalize.MODE_INJECTION, classlm.generalize.MODE_NAIVE)


@pytest.mark.parametrize("option", ["grid", "max_depth", "max_sentences", "mode"])
def test_generalize_defaults_are_the_pipeline_defaults(monkeypatch, workspace, tmp_path, option):
    passed = {}

    def build(*args, **kwargs):
        passed.update(kwargs)
        raise DataError("stop before the work")

    defaults = inspect.signature(classlm.generalize.build_generalized_lm).parameters
    monkeypatch.setattr(classlm.generalize, "build_generalized_lm", build)
    assert main([
        "generalize", "--labeled", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_train.tsv"),
        "--grammar", str(workspace / "grammar.bnf"),
        "--tune-corpus", str(workspace / "corpus_tune.tsv"), "--out-dir", str(tmp_path),
    ]) == 1
    assert passed[option] == defaults[option].default


@pytest.mark.parametrize("bound", ["_MAX_DEPTH", "_MAX_SENTENCES"])
def test_generate_bounds_default_to_the_grammar_modules(monkeypatch, workspace, tmp_path,
                                                        bound):
    passed = {}

    def bounded(gram, *bounds):
        passed.update(zip(("_MAX_DEPTH", "_MAX_SENTENCES"), bounds))
        return generate(gram, *bounds)

    monkeypatch.setattr(classlm.grammar, "generate", bounded)
    assert main(["generate", "--grammar", str(workspace / "grammar.bnf"),
                 "--out", str(tmp_path / "s.txt")]) == 0
    assert passed[bound] == getattr(classlm.grammar, bound)


def test_missing_tune_source_is_usage_error(tmp_path, workspace, capsys):
    # the flag is checked before any input is read or the output made
    for lexicon in ("lexicon.lex", "missing.lex"):
        code = main([
            "generalize", "--lexicon", str(workspace / lexicon),
            "--corpus", str(workspace / "corpus_tune.tsv"),
            "--grammar", str(workspace / "grammar.bnf"), "--labeled",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "usage error: need --tune-corpus for the factor search" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


def test_bad_flag_value_exits_two(workspace):
    with pytest.raises(SystemExit) as exit_info:
        main(["generalize", "--grid", "zero,none",
              "--lexicon", str(workspace / "lexicon.lex"),
              "--corpus", str(workspace / "corpus_tune.tsv"),
              "--grammar", str(workspace / "grammar.bnf")])
    assert exit_info.value.code == 2


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exit_info:
        main(["transmogrify"])
    assert exit_info.value.code == 2


def test_commands_do_not_mutate_inputs(tmp_path, workspace):
    lexicon = workspace / "lexicon.lex"
    corpus = workspace / "corpus_tune.tsv"
    before = (lexicon.read_bytes(), corpus.read_bytes())
    main([
        "train", "--lexicon", str(lexicon), "--corpus", str(corpus),
        "--labeled", "--out", str(tmp_path / "m.arpa"),
    ])
    assert (lexicon.read_bytes(), corpus.read_bytes()) == before
