import filecmp
import functools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import classlm
from classlm.analysis import read_labeled_corpus
from classlm.cli import main
from classlm.errors import (
    CorpusError, DataError, GrammarError, LexiconError, ModelError, TableError,
)
from classlm.grammar import parse_grammar
from classlm.lm import import_model
from classlm.ngrams import load_table
from classlm.normalize import read_corpus, read_nus
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
    assert proc.stdout.endswith(f"generated 129 sentences (truncated) -> {out}\n")
    assert len(out.read_text(encoding="utf-8").splitlines()) == 129


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


@pytest.mark.parametrize("flag,value", [
    ("--threshold", "nan"), ("--threshold", "inf"), ("--threshold", "-0.1"),
    ("--threshold", "1.5"), ("--threshold", "half"),
    ("--min-count", "-1"), ("--min-count", "2.5"),
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


def test_synth_accepts_size_zero(tmp_path):
    assert main(["synth", "--size", "0", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "corpus.tsv").read_text(encoding="utf-8") == ""


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
    (read_corpus, CorpusError),
    pytest.param(functools.partial(read_corpus, labeled=True), CorpusError,
                 id="read_corpus_labeled-CorpusError"),
    (read_labeled_corpus, CorpusError),
    (read_nus, CorpusError),
    pytest.param(functools.partial(read_nus, labeled=True,
                                   lexicon=ClassLexicon({"CITY-NAME": {"rome", "new_york"}})),
                 CorpusError, id="read_nus_labeled-CorpusError"),
    (parse_grammar, GrammarError),
    (load_table, TableError),
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
        read_corpus(path)


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
