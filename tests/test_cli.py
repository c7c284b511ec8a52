import filecmp
import functools
import os
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
from classlm.normalize import read_corpus
from classlm.vocab import load_lexicon


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
    assert main([
        "generalize", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_tune.tsv"),
        "--grammar", str(workspace / "grammar.bnf"), "--labeled",
        "--tune-on-test", "--test-corpus", str(workspace / "corpus_test.tsv"),
        "--grid", "1,2", "--out-dir", str(out),
    ]) == 0
    assert (out / "model.arpa").exists()


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


def run_data_error(*argv):
    """stderr of ``python -m classlm argv``, which must exit 1 without a traceback."""
    src = str(Path(classlm.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "classlm", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    return proc.stderr


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
    code = main([
        "generalize", "--lexicon", str(workspace / "lexicon.lex"),
        "--corpus", str(workspace / "corpus_tune.tsv"),
        "--grammar", str(workspace / "grammar.bnf"), "--labeled",
        "--out-dir", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


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
