"""Command-line entry point.

Exit codes: 0 on success, 1 on data errors (bad corpus/lexicon/grammar/model
files), 2 on usage errors. Commands never mutate their inputs; all artifacts
go to --out-dir (or $CLASSLM_OUTDIR, or the working directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import analysis, generalize, grammar as grammar_mod, synth
from .errors import DataError
from .lm import export_model, import_model, perplexity, train
from .ngrams import extract
from .normalize import read_corpus, write_nu_corpus
from .vocab import load_lexicon

DEFAULT_GRID_TEXT = "0.5,1,2,4,8,10,16"


class UsageError(Exception):
    """Bad flag combination; maps to exit code 2 like argparse errors."""


@dataclass(frozen=True)
class RunConfig:
    out_dir: Path
    fmt: str

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        out_dir = Path(
            getattr(args, "out_dir", None)
            or os.environ.get("CLASSLM_OUTDIR")
            or "."
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        return cls(out_dir=out_dir, fmt=getattr(args, "format", "csv"))


def _grid_arg(text: str) -> list[Fraction]:
    """argparse type for --grid; syntax errors exit 2."""
    try:
        grid = [Fraction(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid value in {text!r}") from exc
    if not grid:
        raise argparse.ArgumentTypeError("empty balance-factor grid")
    if any(f <= 0 for f in grid):
        raise argparse.ArgumentTypeError("grid values must be positive")
    return grid


def _sizes_arg(text: str) -> list:
    """argparse type for --sizes; 'all' resolves once the corpus is read."""
    sizes: list = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "all":
            sizes.append("all")
        elif part.isdigit():
            sizes.append(int(part))
        else:
            raise argparse.ArgumentTypeError(
                f"bad size {part!r} (expected integer or 'all')"
            )
    if not sizes:
        raise argparse.ArgumentTypeError("empty size list")
    return sizes


def _resolve_sizes(sizes: list, corpus_len: int) -> list[int]:
    resolved = {corpus_len if s == "all" else s for s in sizes}
    return sorted(resolved)


def _read_nus(path, labeled: bool, lexicon) -> analysis.LabeledNUs:
    """(group, NU) rows; plain corpora get an empty group.

    Without a lexicon the text is taken as already normalized: normalizing
    it again would lowercase its class tags.
    """
    rows = analysis.read_labeled_corpus(path) if labeled else read_corpus(path)
    if lexicon is None:
        return [(group, tuple(text.split())) for group, text in rows]
    return analysis.label_nus(lexicon, rows)


# -- commands -----------------------------------------------------------------


def cmd_synth(args) -> int:
    config = RunConfig.from_args(args)
    world = synth.generate_world(synth.SynthConfig(size=args.size, seed=args.seed))
    world.lexicon.save(config.out_dir / "lexicon.lex")
    (config.out_dir / "grammar.bnf").write_text(world.grammar_text, encoding="utf-8")
    analysis.write_labeled_corpus(config.out_dir / "corpus.tsv", world.labeled_rows)
    names = ("corpus_train.tsv", "corpus_tune.tsv", "corpus_test.tsv")
    for name, rows in zip(names, world.splits()):
        analysis.write_labeled_corpus(config.out_dir / name, rows)
    print(
        f"wrote {len(world.labeled_rows)} utterances "
        f"(seed {args.seed}) to {config.out_dir}"
    )
    return 0


def cmd_normalize(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    labeled = _read_nus(args.corpus, args.labeled, lexicon)
    if args.labeled:
        analysis.write_labeled_corpus(args.out, labeled)
    else:
        write_nu_corpus(args.out, analysis.nus_of(labeled))
    return 0


def cmd_train(args) -> int:
    lexicon = load_lexicon(args.lexicon)
    nus = analysis.nus_of(_read_nus(args.corpus, args.labeled, lexicon))
    model = train(extract(nus, args.order), lexicon)
    export_model(model, args.out)
    print(f"trained order-{args.order} model on {len(nus)} utterances -> {args.out}")
    return 0


def cmd_perplexity(args) -> int:
    # class sizes travel inside the model file; --lexicon is only needed to
    # normalize raw text (already-normalized corpora score as-is)
    model = import_model(args.model)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else None
    labeled = _read_nus(args.corpus, args.labeled, lexicon)
    report = perplexity(model, analysis.nus_of(labeled), args.emission)
    print(
        f"pp={report.pp:.4f} tokens={report.token_count} oov={report.oov_count}"
    )
    groups = analysis.by_group(labeled) if args.labeled else {}
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
    config = RunConfig.from_args(args)
    lexicon = load_lexicon(args.lexicon)

    def read_nus(path):
        return analysis.nus_of(_read_nus(path, args.labeled, lexicon)) if path else None

    train_nus = read_nus(args.corpus)
    gram = grammar_mod.parse_grammar(args.grammar)
    test_nus = read_nus(args.test_corpus)
    if args.mode == generalize.MODE_INJECTION:
        if args.tune_on_test:
            if test_nus is None:
                raise UsageError("--tune-on-test requires --test-corpus")
            tuning = test_nus
        elif args.tune_corpus:
            tuning = read_nus(args.tune_corpus)
        else:
            raise UsageError("need --tune-corpus or --tune-on-test for the factor search")
    else:
        tuning = read_nus(args.tune_corpus)
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
    export_model(result.model, config.out_dir / "model.arpa")
    export_model(result.baseline, config.out_dir / "baseline.arpa")
    written = generalize.write_report(result, config.out_dir, config.fmt)
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
    config = RunConfig.from_args(args)
    lexicon = load_lexicon(args.lexicon)
    labeled_train = _read_nus(args.corpus, True, lexicon)
    labeled_test = _read_nus(args.test_corpus, True, lexicon)
    train_nus = analysis.nus_of(labeled_train)
    test_nus = analysis.nus_of(labeled_test)
    sizes = _resolve_sizes(args.sizes, len(labeled_train))
    fmt = config.fmt

    curve_train = analysis.coverage_curve(train_nus, train_nus)
    curve_test = analysis.coverage_curve(train_nus, test_nus)
    analysis.write_coverage_csv(config.out_dir / f"coverage_train.{fmt}", curve_train, fmt)
    analysis.write_coverage_csv(config.out_dir / f"coverage_test.{fmt}", curve_test, fmt)

    sweep = analysis.partial_training_sweep(
        labeled_train, sizes, labeled_test, lexicon, args.order, args.emission
    )
    analysis.write_sweep_csv(config.out_dir / f"pp_sweep.{fmt}", sweep, fmt)

    table = analysis.saturation_table(labeled_train, sizes, args.min_count)
    analysis.write_saturation_csv(config.out_dir / f"saturation.{fmt}", sizes, table, fmt)

    overlap = analysis.frequency_overlap(labeled_train, labeled_test, args.threshold)
    analysis.write_overlap_csv(config.out_dir / f"frequency_overlap.{fmt}", overlap, fmt)

    split = analysis.unseen_split(train_nus, test_nus)
    analysis.write_unseen_csv(config.out_dir / f"unseen_split.{fmt}", split, fmt)

    print(f"wrote analysis tables to {config.out_dir}")
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
    p.add_argument("--size", type=int, default=5000)
    p.add_argument("--seed", type=int, default=7)
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
    p.add_argument("--order", "-n", type=int, default=3)
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
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--max-sentences", type=int, default=100000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser(
        "generalize",
        help="inject grammar n-grams under a tuned balance factor",
    )
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--grammar", required=True)
    p.add_argument("--order", "-n", type=int, default=3)
    p.add_argument("--grid", type=_grid_arg, default=DEFAULT_GRID_TEXT,
                   help="comma-separated balance-factor candidates")
    p.add_argument("--tune-corpus")
    p.add_argument("--test-corpus")
    p.add_argument("--tune-on-test", action="store_true",
                   help="tune the factor on the test corpus")
    p.add_argument("--mode", choices=(generalize.MODE_INJECTION, generalize.MODE_NAIVE),
                   default=generalize.MODE_INJECTION)
    p.add_argument("--emission", action="store_true")
    p.add_argument("--labeled", action="store_true")
    p.add_argument("--unweighted-unknown", action="store_true",
                   help="add unknown events with count 1 instead of the factor")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--max-sentences", type=int, default=100000)
    add_common(p, out_dir=True, fmt=True)
    p.set_defaults(func=cmd_generalize)

    p = sub.add_parser("analyze", help="coverage, sweep, saturation, overlap tables")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--corpus", required=True, help="labeled training corpus")
    p.add_argument("--test-corpus", required=True, help="labeled test corpus")
    p.add_argument("--order", "-n", type=int, default=3)
    p.add_argument("--sizes", type=_sizes_arg, default="100,500,1000,2000,all",
                   help="training prefix sizes; 'all' is the full corpus")
    p.add_argument("--min-count", type=int, default=3)
    p.add_argument("--threshold", type=float, default=0.001)
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
