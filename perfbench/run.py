#!/usr/bin/env python3
"""End-to-end benchmark of the ``classlm`` command-line pipeline.

Run from the root of a source checkout (nothing needs building):

    python3 perfbench/run.py --workload corpus-50k --seed 7 --seconds 50 --trace 0

Set-up writes the workload's bundle with ``classlm synth`` from ``--seed``.
With ``--trace 0`` the workload's commands then run as CLI subprocesses,
one at a time (a closed loop with one client), pass after pass for
``--seconds``, and the end-to-end metrics are medians over the passes of
wall times scaled to a reference host speed (see ``measure_cli``). With
``--trace 1`` the same commands run in this process through
``classlm.cli.main``, alternating untraced and traced passes, and the
per-layer metrics come from spans recorded at the ``classlm`` module
boundaries (see ``tracing.py``).

Every pass is checked (see ``check.py``); a command fails if it exits
non-zero, prints a traceback, or fails an output check. The last line of
stdout is the result as one JSON object; the lines before it are a report
with the run manifest, every metric with its unit and sample count, and the
failures. All files go under ``--workdir``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import check
import tracing

HERE = Path(__file__).resolve().parent
EXPECTED_FILE = HERE / "expected_seed7.json"
EXPECTED_SEED = 7
DEADLINE_S = 170  # the whole run, set-up and checks included
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
ORDER = 3
REFERENCE_S = 0.2  # the host speed end-to-end times are scaled to


@dataclass(frozen=True)
class Workload:
    name: str
    size: int
    commands: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-50k", 50000, ("train", "perplexity", "analyze"),
            # 40,000 training utterances but only ~1,800 distinct NUs: the
            # skewed corpus of the paper. Normalize, count extraction, the
            # prefix-sweep retraining and per-utterance scoring do nearly all
            # the work; grammar and generalize stay idle, so a grammar-side
            # change must show no change here.
            "skewed corpus, 40k train utterances in ~1.8k distinct NUs; runs train "
            "(first_cmd), perplexity, analyze (last_cmd); normalize, extract, sweep "
            "and scoring dominate; grammar idle",
        ),
        Workload(
            "grammar-5k", 5000, ("generate", "generalize"),
            # A small training side (4,000 utterances, ~670 distinct NUs) next
            # to 7,506 all-distinct generated sentences: grammar expansion,
            # normalizing the sentences, extracting the grammar table and the
            # tuning loop (8 merges, 9 classifications, 9 trainings) carry
            # the weight, and the ngrams mutation path (inject, scale,
            # closure repair) runs. Deduplicating repeated utterances has
            # little to remove here, so a histogram-first change that helps
            # corpus-50k should show no gain here, only any cost it adds.
            "7.5k distinct generated sentences vs 4k train utterances; runs generate "
            "(first_cmd), generalize (last_cmd); grammar expansion, grammar-table "
            "extract and the tuning loop dominate",
        ),
    )
}

# files each command writes, relative to the output directory
OUTPUTS = {
    "train": ("train.arpa",),
    "perplexity": (),
    "analyze": tuple(f"analyze/{name}" for name in (
        "coverage_train.csv", "coverage_test.csv", "saturation.csv",
        "frequency_overlap.csv", "unseen_split.csv", "pp_sweep.csv")),
    "generate": ("sentences.txt",),
    "generalize": tuple(f"generalize/{name}" for name in (
        "model.arpa", "baseline.arpa", "report.csv", "pp.csv", "curve.csv")),
}
BUNDLE_FILES = ("lexicon.lex", "grammar.bnf", "corpus.tsv", "corpus_train.tsv",
                "corpus_tune.tsv", "corpus_test.tsv")
# compared by value for the expected seed; every other output by digest
VALUE_FILES = ("analyze/pp_sweep.csv", "generalize/pp.csv", "generalize/curve.csv")

END_TO_END = {
    "setup_s": "s", "first_cmd_s": "s", "last_cmd_s": "s",
    "workload_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = (
    ["cli.import_s", "cli.self_s"] + list(tracing.TIME_METRICS) + list(tracing.CALL_METRICS)
    + list(tracing.COUNT_METRICS) + list(tracing.RATIO_METRICS)
    + ["generalize.tune_self_s", "trace.overhead_s"]
)


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name in tracing.RATIO_METRICS else "count"


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout("run deadline reached")


# -- commands -------------------------------------------------------------


@dataclass
class Outcome:
    """One command's result: exit code, captured output, wall seconds and
    peak RSS in MB (0 for in-process runs)."""
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float = 0.0


class Run:
    """One benchmark run: set-up, measured passes and the checks on them."""

    def __init__(self, root: Path, workload: Workload, seed: int, size: int, work: Path,
                 expected: dict | None):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = size
        self.work = work
        self.bundle = work / "bundle"
        self.out = work / "out"
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.attempted = 0
        self.failures: list[str] = []
        self.first_pass: dict[str, tuple[str, dict]] = {}
        self.first_bundle: dict[str, str] | None = None
        self._ref = None
        self.expected = expected  # recorded digests and tables, or None

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def record(self, command: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{command}: " + "; ".join(problems))

    # -- running -------------------------------------------------------------

    def spawn(self, argv: list[str]) -> Outcome:
        """Run a child to completion; its own rusage gives the peak RSS."""
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)
            signal.alarm(max(1, int(self.remaining())))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except Timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.alarm(0)
                proc.returncode = 0  # reaped by os.wait4; Popen must not wait again
            wall = time.perf_counter() - start
        return Outcome(os.waitstatus_to_exitcode(status), out_path.read_text(encoding="utf-8", errors="replace"),
                       err_path.read_text(encoding="utf-8", errors="replace"),
                       wall, usage.ru_maxrss / 1024)

    def reference(self) -> float:
        """Wall seconds of ``check.reference_work`` on the bundle, as a
        subprocess started like a command."""
        outcome = self.spawn([str(HERE / "check.py"), str(self.bundle)])
        if self.generic_problems(outcome):
            raise RuntimeError(f"reference work failed: {outcome.stderr}")
        return outcome.wall_s

    def cli(self, command: str) -> Outcome:
        return self.spawn(["-m", "classlm"] + self.argv(command))

    def argv(self, command: str) -> list[str]:
        bundle, out = self.bundle, self.out
        lexicon = str(bundle / "lexicon.lex")
        train_split, tune_split, test_split = (
            str(bundle / f"corpus_{part}.tsv") for part in ("train", "tune", "test"))
        return {
            "synth": ["synth", "--size", str(self.size), "--seed", str(self.seed),
                      "--out-dir", str(bundle)],
            "train": ["train", "--order", str(ORDER), "--labeled", "--lexicon", lexicon,
                      "--corpus", train_split, "--out", str(out / "train.arpa")],
            "perplexity": ["perplexity", "--emission", "--labeled",
                           "--model", str(out / "train.arpa"), "--lexicon", lexicon,
                           "--corpus", test_split],
            "analyze": ["analyze", "--lexicon", lexicon, "--corpus", train_split,
                        "--test-corpus", test_split, "--out-dir", str(out / "analyze")],
            "generate": ["generate", "--grammar", str(bundle / "grammar.bnf"),
                         "--out", str(out / "sentences.txt")],
            "generalize": ["generalize", "--labeled", "--lexicon", lexicon,
                           "--corpus", train_split, "--grammar", str(bundle / "grammar.bnf"),
                           "--tune-corpus", tune_split, "--test-corpus", test_split,
                           "--out-dir", str(out / "generalize")],
        }[command]

    def in_process(self, command: str) -> Outcome:
        """Run ``classlm.cli.main`` here, with stdout and stderr captured."""
        import classlm.cli

        stdout, stderr = io.StringIO(), io.StringIO()
        signal.alarm(max(1, int(self.remaining())))
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = classlm.cli.main(self.argv(command))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Timeout:
            raise
        except Exception:  # the command's failure is counted, the run goes on
            code = 1
            stderr.write(traceback.format_exc())
        finally:
            signal.alarm(0)
        wall = (time.perf_counter_ns() - start) / 1e9
        return Outcome(code, stdout.getvalue(), stderr.getvalue(), wall)

    # -- set-up ----------------------------------------------------------------

    def check_setup(self, outcome: Outcome) -> None:
        """Check one set-up ``synth`` run: every run writes the same bundle."""
        digests = self.bundle_digests()
        problems = self.generic_problems(outcome)
        if len(digests) != len(BUNDLE_FILES):
            problems.append("bundle incomplete")
        if self.first_bundle is None:
            self.first_bundle = digests
            if self.expected:
                wrong = [name for name, digest in digests.items()
                         if self.expected["digests"].get(f"bundle/{name}") != digest]
                if wrong:
                    problems.append(f"bundle differs from seed {self.seed} record: "
                                    + ", ".join(wrong))
        elif digests != self.first_bundle:
            problems.append("bundle differs from the first set-up run")
        self.record("synth", problems)

    def bundle_digests(self) -> dict[str, str]:
        return {name: check.sha256(self.bundle / name)
                for name in BUNDLE_FILES if (self.bundle / name).is_file()}

    # -- checks ----------------------------------------------------------------

    @staticmethod
    def generic_problems(outcome: Outcome) -> list[str]:
        problems = []
        if outcome.code != 0:
            problems.append(f"exit code {outcome.code}")
        if "Traceback" in outcome.stderr:
            problems.append("traceback: " + outcome.stderr.strip().splitlines()[-1])
        return problems

    def verify(self, command: str, outcome: Outcome) -> None:
        """Full checks on a command's first run; later runs must reproduce
        its stdout and every output file byte for byte."""
        problems = self.generic_problems(outcome)
        digests = {}
        for rel in OUTPUTS[command]:
            path = self.out / rel
            if path.is_file():
                digests[rel] = check.sha256(path)
            else:
                problems.append(f"missing {rel}")
        if command not in self.first_pass:
            self.first_pass[command] = (outcome.stdout, digests)
            if not problems:
                try:
                    problems += getattr(self, "check_" + command)(outcome.stdout)
                    problems += self.check_expected(command, digests)
                except Exception as exc:  # a check that crashes fails the command
                    problems.append(f"check raised {exc!r}")
        elif self.first_pass[command] != (outcome.stdout, digests):
            problems.append("output differs from the first pass")
        self.record(command, problems)

    def check_expected(self, command: str, digests: dict[str, str]) -> list[str]:
        if not self.expected:
            return []
        problems = []
        for rel, digest in digests.items():
            if rel in VALUE_FILES:
                if not check.cells_match(self.expected["tables"][rel],
                                         check.read_csv(self.out / rel)):
                    problems.append(f"{rel} values differ from seed {self.seed} record")
            elif self.expected["digests"].get(f"out/{rel}") != digest:
                problems.append(f"{rel} differs from seed {self.seed} record")
        return problems

    def ref(self) -> "Reference":
        if self._ref is None:
            self._ref = Reference(self.bundle)
        return self._ref

    def check_train(self, stdout: str) -> list[str]:
        m = re.match(rf"trained order-{ORDER} model on (\d+) utterances", stdout)
        if not m or int(m.group(1)) != len(self.ref().train):
            return [f"unexpected stdout {stdout.strip()!r}"]
        return []

    def check_perplexity(self, stdout: str) -> list[str]:
        model = check.Model(self.out / "train.arpa")
        want = check.grouped_perplexities(model, self.ref().test, emission=True)
        got = {}
        for line in stdout.splitlines():
            m = re.fullmatch(r"pp(?:\[(\w+)\])?=(\S+) tokens=(\d+) oov=(\d+)", line)
            if m:
                got[m.group(1) or ""] = (m.group(2), int(m.group(3)), int(m.group(4)))
        if got.keys() != want.keys():
            return [f"printed groups {sorted(got)} != {sorted(want)}"]
        return [f"pp[{group}] {got[group]} != reference {want[group]}"
                for group in want
                if not (check.printed_close(got[group][0], want[group][0])
                        and got[group][1:] == want[group][1:])]

    def check_analyze(self, stdout: str) -> list[str]:
        """The sweep's full-size rows come from the same model ``train``
        exported, so they must match the reference scorer on it."""
        model = check.Model(self.out / "train.arpa")
        want = check.grouped_perplexities(model, self.ref().test, emission=True)
        want.pop("")
        rows = check.read_csv(self.out / "analyze/pp_sweep.csv")
        full = {row[1]: (float(row[2]), int(row[3]), int(row[4]))
                for row in rows[1:] if row[0] == str(len(self.ref().train))}
        if full.keys() != want.keys():
            return [f"pp_sweep full-size groups {sorted(full)} != {sorted(want)}"]
        return [f"pp_sweep[{group}] {full[group]} != reference {want[group]}"
                for group in want
                if not (check.close(full[group][0], want[group][0])
                        and full[group][1:] == want[group][1:])]

    def check_generate(self, stdout: str) -> list[str]:
        m = re.match(r"generated (\d+) sentences", stdout)
        lines = (self.out / "sentences.txt").read_text(encoding="utf-8").count("\n")
        if not m or int(m.group(1)) != lines:
            return [f"stdout {stdout.strip()!r} but {lines} lines written"]
        return []

    def check_generalize(self, stdout: str) -> list[str]:
        ref = self.ref()
        gen = self.out / "generalize"
        sentences = check.sentence_nus(ref.lexicon, self.out / "sentences.txt")
        corpora = {"tuning": [nu for _, nu in ref.tune], "test": [nu for _, nu in ref.test],
                   "grammar": sentences}
        baseline, model = check.Model(gen / "baseline.arpa"), check.Model(gen / "model.arpa")
        want = {label: (baseline.perplexity(nus, False)[0], model.perplexity(nus, False)[0])
                for label, nus in corpora.items()}
        problems = []
        written = {row[0]: (float(row[1]), float(row[2]))
                   for row in check.read_csv(gen / "pp.csv")[1:]}
        printed = dict(
            (m.group(1), (m.group(2), m.group(3))) for m in re.finditer(
                r"^pp\[(\w+)\] baseline=(\S+) generalized=(\S+)$", stdout, re.M))
        if written.keys() != want.keys() or printed.keys() != want.keys():
            return [f"pp labels {sorted(written)} / {sorted(printed)} != {sorted(want)}"]
        for label, pair in want.items():
            if not all(map(check.close, written[label], pair)):
                problems.append(f"pp.csv {label} {written[label]} != reference {pair}")
            if not all(map(check.printed_close, printed[label], pair)):
                problems.append(f"printed pp[{label}] {printed[label]} != reference {pair}")
        header, values = check.read_csv(gen / "report.csv")
        report = dict(zip(header, values))
        train_types = check.gram_types([nu for _, nu in ref.train], ORDER)[-1]
        grammar_types = check.gram_types(sentences, ORDER)[-1]
        events = {"used": len(train_types & grammar_types),
                  "rare": len(train_types - grammar_types),
                  "unknown": len(grammar_types - train_types)}
        if any(int(report[k]) != v for k, v in events.items()):
            problems.append(f"report {report} != reference events {events}")
        curve = {row[0]: float(row[1]) for row in check.read_csv(gen / "curve.csv")[1:]}
        chosen = curve.get(report["balance_factor"])
        if chosen is None or not check.close(chosen, want["tuning"][1]) \
                or chosen != min(curve.values()):
            problems.append(f"curve {curve} disagrees with the chosen factor "
                            f"{report['balance_factor']}")
        return problems

    # -- manifest ----------------------------------------------------------------

    def corpus_shape(self) -> dict:
        ref = self.ref()
        nus = [nu for _, nu in ref.train]
        model_file = ("train.arpa" if "train" in self.workload.commands
                      else "generalize/baseline.arpa")
        shape = {
            "utterances": len(nus),
            "distinct_nus": len(set(nus)),
            "grams_per_order": [len(types) for types in check.gram_types(nus, ORDER)],
            "vocab_size": None,
            "generated_sentences": None,
        }
        if (self.out / model_file).is_file():
            shape["vocab_size"] = len(check.Model(self.out / model_file).vocab)
        if (self.out / "sentences.txt").is_file():
            text = (self.out / "sentences.txt").read_text(encoding="utf-8")
            shape["generated_sentences"] = text.count("\n")
        return shape


class Reference:
    """The bundle's splits, normalized by the reference normalizer."""

    def __init__(self, bundle: Path):
        self.lexicon = check.Lexicon(bundle / "lexicon.lex")
        self.train, self.tune, self.test = (
            check.labeled_nus(self.lexicon, bundle / f"corpus_{part}.tsv")
            for part in ("train", "tune", "test"))


# -- measurement ----------------------------------------------------------------


def stats(values: list[float], unit: str) -> dict:
    """Median, quartiles and extremes of one metric's samples."""
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"value": statistics.median(values), "unit": unit, "n": len(values),
            "q1": q1, "q3": q3, "min": values[0], "max": values[-1]}


def another_round(begin: float, seconds: float, last_s: float, run: Run) -> bool:
    """Whether a round as long as the last still ends within ``seconds``
    (and well within the run's deadline)."""
    end = time.monotonic() + last_s
    return end - begin <= seconds and run.remaining() > 2 * last_s + 15


def measure_cli(run: Run, seconds: float) -> tuple[dict, dict]:
    """Closed loop of CLI subprocesses, one at a time, pass after pass.

    The host's speed drifts by tens of percent within a minute on a shared
    machine, so the reference work of ``check.reference_work`` runs as a
    subprocess between every two commands, and each command's wall time is
    scaled by ``REFERENCE_S`` over the mean of the two reference times
    around it: seconds on a host that runs the reference in ``REFERENCE_S``.
    The raw wall times go to the report as ``raw_*``.
    """
    commands = run.workload.commands
    # an untimed first synth writes the bundle the reference reads and
    # compiles the bytecode before anything is timed
    run.check_setup(run.cli("synth"))
    refs = [run.reference()]

    def timed(command: str) -> tuple[Outcome, float]:
        """The command's outcome and its wall time at the reference speed."""
        outcome = run.cli(command)
        refs.append(run.reference())
        return outcome, outcome.wall_s * REFERENCE_S * 2 / (refs[-2] + refs[-1])

    raw: dict[str, list[float]] = {c: [] for c in ("synth",) + commands}
    scaled: dict[str, list[float]] = {c: [] for c in ("synth",) + commands}
    for _ in range(SETUP_REPEATS):
        outcome, seconds_at_ref = timed("synth")
        run.check_setup(outcome)
        raw["synth"].append(outcome.wall_s)
        scaled["synth"].append(seconds_at_ref)
    passes: dict[str, list[float]] = {"workload_s": [], "raw_workload_s": [], "peak_rss_mb": []}
    begin = time.monotonic()
    while True:
        shutil.rmtree(run.out, ignore_errors=True)
        run.out.mkdir(parents=True)
        pass_start = time.perf_counter()
        outcomes = {}
        for command in commands:
            outcomes[command], seconds_at_ref = timed(command)
            raw[command].append(outcomes[command].wall_s)
            scaled[command].append(seconds_at_ref)
        pass_s = time.perf_counter() - pass_start
        for command, outcome in outcomes.items():
            run.verify(command, outcome)
        passes["workload_s"].append(sum(scaled[c][-1] for c in commands))
        passes["raw_workload_s"].append(sum(raw[c][-1] for c in commands))
        passes["peak_rss_mb"].append(max(o.rss_mb for o in outcomes.values()))
        if not another_round(begin, seconds, pass_s, run):
            break
    detail = {"setup_s": stats(scaled["synth"], "s"), "raw_setup_s": stats(raw["synth"], "s")}
    for command in commands:
        detail[f"{command}_s"] = stats(scaled[command], "s")
        detail[f"raw_{command}_s"] = stats(raw[command], "s")
    detail.update({name: stats(values, "MB" if name == "peak_rss_mb" else "s")
                   for name, values in passes.items()})
    detail["reference_s"] = stats(refs, "s")
    detail["failed_frac"] = {"value": len(run.failures) / run.attempted, "unit": "ratio",
                             "n": run.attempted}
    metrics = {
        "setup_s": detail["setup_s"]["value"],
        "first_cmd_s": detail[f"{commands[0]}_s"]["value"],
        "last_cmd_s": detail[f"{commands[-1]}_s"]["value"],
        "workload_s": detail["workload_s"]["value"],
        "peak_rss_mb": detail["peak_rss_mb"]["value"],
    }
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in END_TO_END.items()}, detail


def measure_traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced in-process passes, alternating."""
    commands = run.workload.commands
    imports = []
    for _ in range(IMPORT_REPEATS):
        outcome = run.spawn(["-c", "import time; t = time.perf_counter(); "
                             "import classlm.cli; print(time.perf_counter() - t)"])
        run.record("import", run.generic_problems(outcome))
        if outcome.code == 0:
            imports.append(float(outcome.stdout))

    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        setup_tracer.start_command((run.workload.name, "synth", 0))
        run.check_setup(run.in_process("synth"))
    finally:
        setup_tracer.remove()

    traced_samples, overheads = [], []
    last = None
    begin = time.monotonic()
    pass_no = 0
    while True:
        walls = {}
        for traced in (False, True) if len(overheads) % 2 == 0 else (True, False):
            pass_no += 1
            shutil.rmtree(run.out, ignore_errors=True)
            run.out.mkdir(parents=True)
            tracer = tracing.Tracer()
            if traced:
                tracer.install()
            gc.collect()
            try:
                outcomes = {}
                for command in commands:
                    tracer.start_command((run.workload.name, command, pass_no))
                    outcomes[command] = run.in_process(command)
                    tracer.end_command()
            finally:
                tracer.remove()
            for command, outcome in outcomes.items():
                run.verify(command, outcome)
            walls[traced] = {c: o.wall_s for c, o in outcomes.items()}
            if traced:
                command_ns = {c: round(w * 1e9) for c, w in walls[True].items()}
                traced_samples.append(tracing.pass_metrics(tracer.spans, tracer.counters,
                                                         command_ns))
                last = tracer
        overheads.append(sum(walls[True].values()) - sum(walls[False].values()))
        pair_s = sum(walls[True].values()) + sum(walls[False].values())
        if not another_round(begin, seconds, pair_s, run):
            break

    layer = tracing.medians(traced_samples)
    layer["synth.generate_world_s"] = tracing.pass_metrics(
        setup_tracer.spans, {}, {})["synth.generate_world_s"]
    layer["cli.import_s"] = statistics.median(imports) if imports else 0.0
    layer["trace.overhead_s"] = statistics.median(overheads)
    spans_file = run.work / f"spans-seed{run.seed}.tsv"
    tracing.write_spans(spans_file, setup_tracer.spans, last.spans)
    detail = {
        "traced_passes": len(traced_samples),
        "spans_file": str(spans_file),
        "span_summary_last_pass": tracing.span_summary(last.spans),
    }
    return {name: {"value": layer[name], "unit": layer_unit(name)}
            for name in PER_LAYER}, detail


# -- manifest and entry point ---------------------------------------------------


def manifest(run: Run) -> dict:
    import classlm.score
    from classlm.lm import import_model

    model_file = next((run.out / rel for rel in ("train.arpa", "generalize/model.arpa")
                       if (run.out / rel).is_file()), None)
    backend = import_model(model_file).scorer().backend if model_file else None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.root, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(run.root.parent)),
        ).stdout.strip() or None
    except OSError:
        sha = None
    sources = hashlib.sha256()
    for path in sorted((run.root / "src/classlm").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "extension_available": classlm.score.extension_available(),
        "scorer_backend": backend,
        "git_sha": sha,
        "source_sha256": sources.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": run.workload.name,
        "seed": run.seed,
        "synth_size": run.size,
        "corpus_shape": run.corpus_shape(),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=EXPECTED_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", default=".perfbench_work",
                        help="where bundles, outputs and spans go")
    parser.add_argument("--size", type=int,
                        help="synth size instead of the workload's (smoke tests); "
                             "the seed-7 record is then not compared")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src/classlm/cli.py").is_file():
        print(f"error: no classlm source tree under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import classlm.cli  # every module tracing patches is loaded before it patches

    if Path(classlm.__file__).resolve().parent != (root / "src/classlm").resolve():
        print(f"error: imported classlm from {classlm.__file__}, not {root}/src",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = Path(args.workdir).resolve() / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    size = args.size or workload.size
    expected = None
    if args.seed == EXPECTED_SEED and size == workload.size:
        expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))[workload.name]
    run = Run(root, workload, args.seed, size, work, expected)
    signal.signal(signal.SIGALRM, _alarm)
    measure = measure_traced if args.trace else measure_cli
    try:
        metrics, detail = measure(run, args.seconds)
    except Timeout:
        print(f"error: run exceeded {DEADLINE_S} s", file=sys.stderr)
        return 1
    report = {"manifest": manifest(run), "detail": detail, "failures": run.failures}
    print(json.dumps(report, indent=1))
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
