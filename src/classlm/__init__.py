"""Class-based n-gram language models for task-oriented dialogue.

Train smoothed backoff models over class-normalized utterances, generalize
them by injecting n-grams generated from a hand-written grammar under a
perplexity-tuned balance factor, and reproduce the standard corpus studies
(coverage curves, training-size sweeps, rare-event splits) on any labeled
corpus.

The package root re-exports the names the README's library example and the
acceptance suite use; everything else is imported from its module.

``import classlm`` runs no submodule. Each one is registered in
``sys.modules`` and bound as a package attribute by a lazy loader, and runs
on first attribute access, so a command runs only the modules it uses. An
exported name is resolved from its module when it is first read.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "DataError": "errors",
    "NGramTable": "ngrams",
    "build_generalized_lm": "generalize",
    "classify_events": "generalize",
    "coverage_curve": "analysis",
    "export_model": "lm",
    "extract": "ngrams",
    "frequency_overlap": "analysis",
    "generate": "grammar",
    "import_model": "lm",
    "load_lexicon": "vocab",
    "log_prob": "lm",
    "merge_tables": "generalize",
    "nu_histogram": "normalize",
    "parse_grammar": "grammar",
    "partial_training_sweep": "analysis",
    "perplexity": "lm",
    "read_nus": "normalize",
    "saturation_table": "analysis",
    "train": "lm",
    "write_coverage_csv": "analysis",
}

__all__ = sorted(_EXPORTS)


def _register(name: str) -> None:
    """Put a lazy ``classlm.<name>`` in ``sys.modules`` and on the package.

    The package attribute matters: ``from . import name`` finds it and does
    not import, where an import of a lazy module not yet on its package
    reads the module's ``__spec__``, which runs it.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    globals()[name] = module


for _name in ("analysis", "cli", "errors", "generalize", "grammar", "lm", "ngrams",
              "normalize", "score", "synth", "vocab"):
    _register(_name)
del _name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)
