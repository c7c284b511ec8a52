"""Smoke test of the benchmark itself, at a tiny corpus size.

Run from the repository root:

    PYTHONDONTWRITEBYTECODE=1 python3 -m pytest -p no:cacheprovider perfbench

Each workload runs once with tracing off and once with it on, on a seed
other than the recorded one, into a temporary directory. The test checks
that every metric named in BENCHMARK.json is emitted with its unit, that
the output checks pass, that span self times are non-negative, and that
the runs wrote nothing into the repository.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMANDS = {"corpus-50k": ("train", "perplexity", "analyze"),
            "grammar-5k": ("generate", "generalize")}


def repository_files() -> set[Path]:
    return {p for p in ROOT.rglob("*") if ".git" not in p.relative_to(ROOT).parts}


def bench(workload: str, trace: int, workdir: Path) -> tuple[dict, dict]:
    before = repository_files()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--size", "3000",
         "--workdir", str(workdir)],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    assert repository_files() == before
    lines = proc.stdout.splitlines()
    report, result = json.loads("\n".join(lines[:-1])), json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        report["failures"]
    return report, result


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_end_to_end_metrics(workload, tmp_path):
    report, result = bench(workload, 0, tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = report["detail"]
    for name in ["setup_s", "workload_s", "peak_rss_mb"] + [
            f"{c}_s" for c in COMMANDS[workload]]:
        assert detail[name]["value"] > 0 and detail[name]["n"] >= 1
        assert detail[name]["unit"] == ("MB" if name == "peak_rss_mb" else "s")
    assert detail["failed_frac"]["value"] == 0
    shape = report["manifest"]["corpus_shape"]
    assert shape["utterances"] == 2400 and 0 < shape["distinct_nus"] < 2400


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_per_layer_metrics(workload, tmp_path):
    report, result = bench(workload, 1, tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    with open(report["detail"]["spans_file"], encoding="utf-8", newline="") as fh:
        spans = list(csv.DictReader(fh, delimiter="\t"))
    assert spans and all(int(span["self_ns"]) >= 0 for span in spans)
    modules = {span["name"].split(".")[0] for span in spans if span["command"] != "synth"}
    if workload == "grammar-5k":
        assert metrics["generalize.classify_calls"]["value"] == 9
        assert metrics["generalize.merge_calls"]["value"] == 8
        assert metrics["lm.train_calls"]["value"] == 9
        assert {"grammar", "generalize"} <= modules
    else:
        assert not {"grammar", "generalize"} & modules
        assert metrics["analysis.sweep_s"]["value"] > 0
