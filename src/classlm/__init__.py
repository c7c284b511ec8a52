"""Class-based n-gram language models for task-oriented dialogue.

Train smoothed backoff models over class-normalized utterances, generalize
them by injecting n-grams generated from a hand-written grammar under a
perplexity-tuned balance factor, and reproduce the standard corpus studies
(coverage curves, training-size sweeps, rare-event splits) on any labeled
corpus.

The package root re-exports the names the README's library example and the
acceptance suite use; everything else is imported from its module.
"""

from .analysis import (
    coverage_curve,
    frequency_overlap,
    partial_training_sweep,
    saturation_table,
    write_coverage_csv,
)
from .errors import DataError
from .generalize import build_generalized_lm, classify_events, merge_tables
from .grammar import generate, parse_grammar
from .lm import export_model, import_model, log_prob, perplexity, train
from .ngrams import NGramTable, extract
from .normalize import nu_histogram, read_nus
from .vocab import load_lexicon

# loaded for the benchmark's tracer, which looks it up in sys.modules
from . import score as _score

__version__ = "0.1.0"

__all__ = [
    "DataError",
    "NGramTable",
    "build_generalized_lm",
    "classify_events",
    "coverage_curve",
    "export_model",
    "extract",
    "frequency_overlap",
    "generate",
    "import_model",
    "load_lexicon",
    "log_prob",
    "merge_tables",
    "nu_histogram",
    "parse_grammar",
    "partial_training_sweep",
    "perplexity",
    "read_nus",
    "saturation_table",
    "train",
    "write_coverage_csv",
]
