"""In-process tracing of ``classlm`` at its module boundaries.

A :class:`Tracer` replaces each public function listed in :data:`TARGETS`
(and ``Scorer.score_corpus``) with a wrapper, in every ``classlm`` module
that holds a reference to it, so calls made through ``from .lm import
train`` are caught as well as calls made through ``lm.train``. Each call
records one span: name, start, end, parent span, and the (workload,
command, pass) it ran in. Spans stay in memory; :func:`write_spans` writes
them out when the run ends. Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# module -> public callables the workloads reach; spans are named "<module>.<name>"
TARGETS = {
    "vocab": ("load_lexicon",),
    "normalize": ("normalize", "nu_histogram"),
    "ngrams": ("extract",),
    "lm": ("train", "perplexity", "export_model", "import_model"),
    "score": ("Scorer.score_corpus",),
    "grammar": ("parse_grammar", "generate", "write_sentences"),
    "generalize": (
        "build_generalized_lm", "classify_events", "merge_tables",
        "tune_balance_factor", "write_report",
    ),
    "analysis": (
        "read_labeled_corpus", "write_labeled_corpus", "label_nus",
        "coverage_curve", "partial_training_sweep", "saturation_table",
        "frequency_overlap", "unseen_split", "write_coverage_csv",
        "write_sweep_csv", "write_saturation_csv", "write_overlap_csv",
        "write_unseen_csv",
    ),
    "synth": ("generate_world",),
}

# per-layer time metric -> spans whose inclusive durations it sums
TIME_METRICS = {
    "vocab.load_lexicon_s": ("vocab.load_lexicon",),
    "normalize.normalize_s": ("normalize.normalize",),
    "ngrams.extract_s": ("ngrams.extract",),
    "lm.train_s": ("lm.train",),
    "lm.export_s": ("lm.export_model",),
    "lm.import_s": ("lm.import_model",),
    "score.score_corpus_s": ("score.score_corpus",),
    "grammar.parse_s": ("grammar.parse_grammar",),
    "grammar.generate_s": ("grammar.generate",),
    "generalize.classify_s": ("generalize.classify_events",),
    "generalize.merge_s": ("generalize.merge_tables",),
    "generalize.build_s": ("generalize.build_generalized_lm",),
    "analysis.read_s": ("analysis.read_labeled_corpus",),
    "analysis.sweep_s": ("analysis.partial_training_sweep",),
    "analysis.coverage_s": ("analysis.coverage_curve",),
    "analysis.saturation_s": ("analysis.saturation_table",),
    "analysis.overlap_s": ("analysis.frequency_overlap",),
    "analysis.unseen_s": ("analysis.unseen_split",),
    "analysis.write_s": tuple(
        f"analysis.write_{part}_csv"
        for part in ("coverage", "sweep", "saturation", "overlap", "unseen")
    ),
    "synth.generate_world_s": ("synth.generate_world",),
}

# per-layer call-count metric -> span name
CALL_METRICS = {
    "ngrams.extract_calls": "ngrams.extract",
    "lm.train_calls": "lm.train",
    "score.calls": "score.score_corpus",
    "generalize.classify_calls": "generalize.classify_events",
    "generalize.merge_calls": "generalize.merge_tables",
}

# counters filled by observers at the span boundaries
COUNT_METRICS = (
    "normalize.utterances", "ngrams.padded_tokens", "ngrams.grams",
    "score.tokens", "grammar.sentences", "grammar.truncated",
)

RATIO_METRICS = ("normalize.distinct_ratio", "score.distinct_ratio")


class Tracer:
    """Span recorder for the ``classlm`` modules loaded in this process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start_ns, end_ns, parent, context)
        self.counters: dict[str, int] = {}
        self.context: tuple = ()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._command_nus: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "classlm" or n.startswith("classlm.")]
        for short, names in TARGETS.items():
            module = sys.modules[f"classlm.{short}"]
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    original = getattr(owner, attr)
                    self._patch(owner, attr, self._wrap(f"{short}.{attr}", original))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, span_name, fn):
        observe = getattr(self, "_observe_" + span_name.replace(".", "_"), None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (span_name, start, clock(), parent, self.context)
                stack.pop()
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    # -- counters, taken after the span closes -------------------------------

    def start_command(self, context: tuple) -> None:
        self.context = context
        self._command_nus = set()

    def end_command(self) -> None:
        self._bump("normalize.distinct", len(self._command_nus))

    def _bump(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _observe_normalize_normalize(self, nu, lexicon, utterance) -> None:
        self._bump("normalize.utterances", 1)
        self._command_nus.add(nu)

    def _observe_ngrams_extract(self, table, corpus, n) -> None:
        if isinstance(corpus, (list, tuple)):
            self._bump("ngrams.padded_tokens", sum(len(nu) + n for nu in corpus))
        self._bump("ngrams.grams", len(table))

    def _observe_score_score_corpus(self, result, scorer, nus, emission) -> None:
        self._bump("score.tokens", result[1])
        self._bump("score.utterances", len(nus))
        self._bump("score.distinct", len(set(map(tuple, nus))))

    def _observe_grammar_generate(self, sentences, grammar, max_depth, max_sentences) -> None:
        self._bump("grammar.sentences", len(sentences))
        self._bump("grammar.truncated", int(sentences.truncated))


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def pass_metrics(spans, counters, command_ns: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's commands.

    ``command_ns`` maps each command to its in-process wall time; the part of
    it that no top-level span covers is the CLI's own time (``cli.self_s``).
    """
    total: dict[str, int] = {}
    calls: dict[str, int] = {}
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0) + end - start
        calls[name] = calls.get(name, 0) + 1
    metrics = {
        metric: sum(total.get(n, 0) for n in names) / 1e9
        for metric, names in TIME_METRICS.items()
    }
    metrics.update({metric: calls.get(name, 0) for metric, name in CALL_METRICS.items()})
    metrics.update({name: counters.get(name, 0) for name in COUNT_METRICS})
    metrics["normalize.distinct_ratio"] = _ratio(
        counters.get("normalize.distinct", 0), counters.get("normalize.utterances", 0))
    metrics["score.distinct_ratio"] = _ratio(
        counters.get("score.distinct", 0), counters.get("score.utterances", 0))
    selfs = self_times(spans)
    metrics["generalize.tune_self_s"] = sum(
        s for span, s in zip(spans, selfs)
        if span[0] == "generalize.tune_balance_factor") / 1e9
    covered: dict[str, int] = {}
    for name, start, end, parent, context in spans:
        if parent < 0:
            covered[context[1]] = covered.get(context[1], 0) + end - start
    metrics["cli.self_s"] = sum(
        wall - covered.get(command, 0) for command, wall in command_ns.items()) / 1e9
    return metrics


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def span_summary(spans) -> dict[str, dict]:
    """Calls, inclusive and self seconds per span name."""
    summary: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = summary.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += (span[2] - span[1]) / 1e9
        entry["self_s"] += own / 1e9
    return dict(sorted(summary.items()))


def write_spans(path, *span_lists) -> None:
    """One span per line: id, parent, name, start and end (ns from the first
    span), self time (ns), workload, command, pass. Several recordings are
    written one after the other, ids continuing."""
    origin = min((spans[0][1] for spans in span_lists if spans), default=0)
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tname\tstart_ns\tend_ns\tself_ns\tworkload\tcommand\tpass\n")
        for spans in span_lists:
            for sid, (span, own) in enumerate(zip(spans, self_times(spans))):
                name, start, end, parent, (workload, command, pass_no) = span
                parent = parent + offset if parent >= 0 else -1
                fh.write(f"{sid + offset}\t{parent}\t{name}\t{start - origin}\t"
                         f"{end - origin}\t{own}\t{workload}\t{command}\t{pass_no}\n")
            offset += len(spans)
