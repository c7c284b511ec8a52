"""Class-based n-gram language models for task-oriented dialogue.

Train smoothed backoff models over class-normalized utterances, generalize
them by injecting n-grams generated from a hand-written grammar under a
perplexity-tuned balance factor, and reproduce the standard corpus studies
(coverage curves, training-size sweeps, rare-event splits) on any labeled
corpus.
"""

from .analysis import (
    CoverageCurve,
    UnseenSplit,
    coverage_curve,
    frequency_overlap,
    partial_training_sweep,
    read_labeled_corpus,
    saturation_table,
    unseen_split,
)
from .errors import (
    CorpusError,
    DataError,
    GrammarError,
    LexiconError,
    ModelError,
    TableError,
)
from .generalize import (
    DEFAULT_GRID,
    BalanceFactor,
    EventPartition,
    GeneralizationResult,
    build_generalized_lm,
    classify_events,
    merge_tables,
    tune_balance_factor,
)
from .grammar import (
    Grammar,
    SentenceSet,
    generate,
    nu_coverage,
    parse_grammar,
    parse_grammar_text,
)
from .lm import (
    ClassNGramLM,
    PerplexityReport,
    export_model,
    import_model,
    log_prob,
    perplexity,
    train,
)
from .ngrams import NGramTable, extract, load_table
from .normalize import (
    NU,
    Corpus,
    normalize_sentences,
    nu_histogram,
    read_nus,
    tokenize,
)
from .synth import SynthConfig, SynthWorld, generate_world
from .vocab import ClassLexicon, load_lexicon

__version__ = "0.1.0"

__all__ = [
    "BalanceFactor",
    "ClassLexicon",
    "ClassNGramLM",
    "Corpus",
    "CorpusError",
    "CoverageCurve",
    "DEFAULT_GRID",
    "DataError",
    "EventPartition",
    "GeneralizationResult",
    "Grammar",
    "GrammarError",
    "LexiconError",
    "ModelError",
    "NGramTable",
    "NU",
    "PerplexityReport",
    "SentenceSet",
    "SynthConfig",
    "SynthWorld",
    "TableError",
    "UnseenSplit",
    "build_generalized_lm",
    "classify_events",
    "coverage_curve",
    "export_model",
    "extract",
    "frequency_overlap",
    "generate",
    "generate_world",
    "import_model",
    "load_lexicon",
    "load_table",
    "log_prob",
    "merge_tables",
    "normalize_sentences",
    "nu_coverage",
    "nu_histogram",
    "parse_grammar",
    "parse_grammar_text",
    "partial_training_sweep",
    "perplexity",
    "read_labeled_corpus",
    "read_nus",
    "saturation_table",
    "tokenize",
    "train",
    "tune_balance_factor",
    "unseen_split",
]
