"""Command-line entry point.

Exit codes: 0 on success, 1 on data errors (bad corpus/lexicon/grammar/model
files), 2 on usage errors. Commands never mutate their inputs; all artifacts
go to --out-dir (or $CLASSLM_OUTDIR, or the working directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import analysis, generalize, grammar as grammar_mod, synth
from .errors import DataError
from .lm import export_model, import_model, perplexity, train
from .ngrams import extract, parse_count
from .normalize import read_nus
from .vocab import load_lexicon

# analyze's training prefix sizes when --sizes is not given; those below the
# training corpus length are used, then the full corpus
DEFAULT_SIZES = (100, 500, 1000, 2000)


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2 like argparse errors."""


def _out_dir(args) -> Path:
    """--out-dir, else $CLASSLM_OUTDIR, else the working directory; created."""
    out_dir = Path(args.out_dir or os.environ.get("CLASSLM_OUTDIR") or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _grid_arg(text: str) -> list:
    """argparse type for --grid: counts (see :func:`parse_count`); errors exit 2."""
    try:
        grid = [parse_count(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid value in {text!r}") from exc
    if not grid:
        raise argparse.ArgumentTypeError("empty balance-factor grid")
    if any(f <= 0 for f in grid):
        raise argparse.ArgumentTypeError("grid values must be positive")
    return grid


def _sizes_arg(text: str) -> list:
    """argparse type for --sizes: integers >= 1 or 'all', which resolves once
    the corpus is read; errors exit 2."""
    sizes: list = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "all":
            sizes.append("all")
        elif part.isdigit() and int(part) >= 1:
            sizes.append(int(part))
        else:
            raise argparse.ArgumentTypeError(
                f"bad size {part!r} (expected integer >= 1 or 'all')"
            )
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


def _fraction_arg(text: str) -> float:
    """argparse type for --threshold: a finite number in [0, 1]; errors exit 2."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    # a nan would compare false everywhere and give silent all-zero results
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number in [0, 1]")
    return value


def _count_arg(text: str) -> int:
    """argparse type for a non-negative integer; errors exit 2.

    Used by --min-count and by synth's --size and --seed.
    """
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _positive_arg(text: str) -> int:
    """argparse type for --order, --max-depth and --max-sentences: an integer
    >= 1; errors exit 2."""
    value = _count_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _resolve_sizes(sizes: list | None, corpus_len: int) -> list[int]:
    """Sorted distinct sizes, 'all' as ``corpus_len``; each must fit the corpus.

    Without explicit sizes, the default steps below ``corpus_len`` and 'all'.
    """
    if sizes is None:
        sizes = [s for s in DEFAULT_SIZES if s < corpus_len] + ["all"]
    resolved = {corpus_len if s == "all" else s for s in sizes}
    return analysis.check_sizes(sorted(resolved), corpus_len)


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    out_dir = _out_dir(args)
    world = synth.generate_world(synth.SynthConfig(size=args.size, seed=args.seed))
    world.lexicon.save(out_dir / "lexicon.lex")
    (out_dir / "grammar.bnf").write_text(world.grammar_text, encoding="utf-8")
    analysis.write_labeled_corpus(out_dir / "corpus.tsv", world.labeled_rows)
    names = ("corpus_train.tsv", "corpus_tune.tsv", "corpus_test.tsv")
    for name, rows in zip(names, world.splits()):
        analysis.write_labeled_corpus(out_dir / name, rows)
    print(f"wrote {len(world.labeled_rows)} utterances (seed {args.seed}) to {out_dir}")
    return 0


def cmd_normalize(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    corpus = read_nus(args.corpus, args.labeled, lexicon)
    if args.labeled:
        analysis.write_labeled_corpus(args.out, corpus.rows)
    else:
        grammar_mod.write_sentences(args.out, corpus.nus)
    return 0


def cmd_train(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    nus = read_nus(args.corpus, args.labeled, lexicon).nus
    model = train(extract(nus, args.order), lexicon)
    export_model(model, args.out)
    print(f"trained order-{args.order} model on {len(nus)} utterances -> {args.out}")
    return 0


def cmd_perplexity(args) -> int:
    # class sizes travel inside the model file; --lexicon is only needed to
    # normalize raw text (already-normalized corpora score as-is)
    model = import_model(args.model)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    corpus = read_nus(args.corpus, args.labeled, lexicon)
    report = perplexity(model, corpus.nus, args.emission)
    print(
        f"pp={report.pp:.4f} tokens={report.token_count} oov={report.oov_count}"
    )
    groups = corpus.groups if args.labeled else {}
    for group, nus in sorted(groups.items()):
        sub = perplexity(model, nus, args.emission)
        print(f"pp[{group}]={sub.pp:.4f} tokens={sub.token_count} oov={sub.oov_count}")
    return 0


def cmd_generate(args) -> int:
    gram = grammar_mod.parse_grammar(args.grammar)
    if gram.recursive:
        print(f"note: recursive nonterminals {sorted(gram.recursive)}, "
              f"expansion bounded at depth {args.max_depth}")
    sentences = grammar_mod.generate(gram, args.max_depth, args.max_sentences)
    grammar_mod.write_sentences(args.out, sentences)
    flag = " (truncated)" if sentences.truncated else ""
    print(f"generated {len(sentences)} sentences{flag} -> {args.out}")
    return 0


def cmd_generalize(args) -> int:
    if args.mode == generalize.MODE_INJECTION and not args.tune_corpus:
        raise UsageError("need --tune-corpus for the factor search")
    lexicon = load_lexicon(args.lexicon)

    def nus(path):
        return read_nus(path, args.labeled, lexicon).nus if path else None

    train_nus = nus(args.corpus)
    gram = grammar_mod.parse_grammar(args.grammar)
    test_nus = nus(args.test_corpus)
    tuning = nus(args.tune_corpus)
    result = generalize.build_generalized_lm(
        train_nus,
        gram,
        lexicon,
        args.order,
        grid=args.grid,
        tuning_corpus=tuning,
        test_corpus=test_nus,
        max_depth=args.max_depth,
        max_sentences=args.max_sentences,
        emission=args.emission,
        mode=args.mode,
        weight_unknown=not args.unweighted_unknown,
    )
    out_dir = _out_dir(args)
    export_model(result.model, out_dir / "model.arpa")
    export_model(result.baseline, out_dir / "baseline.arpa")
    written = generalize.write_report(result, out_dir, args.format)
    summary = result.report_fields()
    print(
        "events used={used} rare={rare} unknown={unknown} "
        "balance_factor={balance_factor}".format(**summary)
    )
    for label, (base_pp, gen_pp) in result.perplexities.items():
        print(f"pp[{label}] baseline={base_pp:.4f} generalized={gen_pp:.4f}")
    print(f"artifacts: model.arpa baseline.arpa {' '.join(written)}")
    return 0


def cmd_analyze(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    train_corpus = read_nus(args.corpus, True, lexicon)
    test_corpus = read_nus(args.test_corpus, True, lexicon)
    sizes = _resolve_sizes(args.sizes, len(train_corpus))
    out_dir = _out_dir(args)
    fmt = args.format

    curve_train = analysis.coverage_curve(train_corpus, train_corpus)
    curve_test = analysis.coverage_curve(train_corpus, test_corpus)
    analysis.write_coverage_csv(out_dir / f"coverage_train.{fmt}", curve_train, fmt)
    analysis.write_coverage_csv(out_dir / f"coverage_test.{fmt}", curve_test, fmt)

    sweep = analysis.partial_training_sweep(
        train_corpus, sizes, test_corpus, lexicon, args.order, args.emission
    )
    analysis.write_sweep_csv(out_dir / f"pp_sweep.{fmt}", sweep, fmt)

    table = analysis.saturation_table(train_corpus, sizes, args.min_count)
    analysis.write_saturation_csv(out_dir / f"saturation.{fmt}", sizes, table, fmt)

    overlap = analysis.frequency_overlap(train_corpus, test_corpus, args.threshold)
    analysis.write_overlap_csv(out_dir / f"frequency_overlap.{fmt}", overlap, fmt)

    split = analysis.unseen_split(train_corpus, test_corpus)
    analysis.write_unseen_csv(out_dir / f"unseen_split.{fmt}", split, fmt)

    print(f"wrote analysis tables to {out_dir}")
    return 0


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classlm",
        description=(
            "Class-based n-gram language models for task-oriented dialogue, "
            "with grammar-driven generalization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_dir=False, fmt=False):
        if out_dir:
            p.add_argument("--out-dir", "-o", help="output directory "
                           "(default: $CLASSLM_OUTDIR or .)")
        if fmt:
            p.add_argument("--format", choices=("csv", "tsv"), default="csv")

    p = sub.add_parser("synth", help="write the seeded synthetic corpus bundle")
    p.add_argument("--size", type=_count_arg, default=5000)
    p.add_argument("--seed", type=_count_arg, default=7)
    add_common(p, out_dir=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("normalize", help="replace class members with class tags")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labeled", action="store_true",
                   help="corpus lines are 'group<TAB>utterance'")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("train", help="train a smoothed backoff model")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--order", "-n", type=_positive_arg, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--labeled", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("perplexity", help="evaluate a model on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon",
                   help="normalize the corpus first (omit for NU input)")
    p.add_argument("--labeled", action="store_true")
    p.add_argument("--emission", action="store_true",
                   help="word-level scores: add log(1/class size) per tag")
    p.set_defaults(func=cmd_perplexity)

    p = sub.add_parser("generate", help="exhaustively expand a grammar")
    p.add_argument("--grammar", required=True)
    p.add_argument("--max-depth", type=_positive_arg, default=12)
    p.add_argument("--max-sentences", type=_positive_arg, default=100000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "generalize",
        help="inject grammar n-grams under a tuned balance factor",
    )
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--grammar", required=True)
    p.add_argument("--order", "-n", type=_positive_arg, default=3)
    p.add_argument("--grid", type=_grid_arg, default=list(generalize.DEFAULT_GRID),
                   help="comma-separated balance-factor candidates")
    p.add_argument("--tune-corpus")
    p.add_argument("--test-corpus")
    p.add_argument("--mode", choices=(generalize.MODE_INJECTION, generalize.MODE_NAIVE),
                   default=generalize.MODE_INJECTION)
    p.add_argument("--emission", action="store_true")
    p.add_argument("--labeled", action="store_true")
    p.add_argument("--unweighted-unknown", action="store_true",
                   help="add unknown events with count 1 instead of the factor")
    p.add_argument("--max-depth", type=_positive_arg, default=12)
    p.add_argument("--max-sentences", type=_positive_arg, default=100000)
    add_common(p, out_dir=True, fmt=True)
    p.set_defaults(func=cmd_generalize)

    p = sub.add_parser("analyze", help="coverage, sweep, saturation, overlap tables")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True, help="labeled training corpus")
    p.add_argument("--test-corpus", required=True, help="labeled test corpus")
    p.add_argument("--order", "-n", type=_positive_arg, default=3)
    p.add_argument("--sizes", type=_sizes_arg,
                   help="training prefix sizes; 'all' is the full corpus "
                        "(default: 100,500,1000,2000 where below its length, and all)")
    p.add_argument("--min-count", type=_count_arg, default=3)
    p.add_argument("--threshold", type=_fraction_arg, default=0.001)
    emission = p.add_mutually_exclusive_group()
    emission.add_argument("--emission", dest="emission", action="store_true")
    emission.add_argument("--no-emission", dest="emission", action="store_false")
    p.set_defaults(emission=True)
    add_common(p, out_dir=True, fmt=True)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
