#!/usr/bin/env python3
"""Record the seed-7 outputs that ``run.py`` compares against.

Run from the repository root, and only once the outputs are known to be
right (the benchmark's seed-independent checks pass on them):

    python3 perfbench/record_expected.py

For each workload at its standard size this writes, into
``expected_seed7.json``, the sha256 of every bundle file and every command
output, except the perplexity tables, which are stored as values because
their last bits may change.
"""

import json
import shutil
import sys
from pathlib import Path

import check
import run as bench


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    record = {}
    for workload in bench.WORKLOADS.values():
        work = root / ".perfbench_work" / workload.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        run = bench.Run(root, workload, bench.EXPECTED_SEED, workload.size, work, None)
        run.check_setup(run.cli("synth"))
        run.out.mkdir()
        for command in workload.commands:
            run.verify(command, run.cli(command))
        if run.failures:
            print("\n".join(run.failures), file=sys.stderr)
            return 1
        digests = {f"bundle/{name}": digest for name, digest in run.bundle_digests().items()}
        tables = {}
        for command in workload.commands:
            for rel in bench.OUTPUTS[command]:
                if rel in bench.VALUE_FILES:
                    tables[rel] = check.read_csv(run.out / rel)
                else:
                    digests[f"out/{rel}"] = check.sha256(run.out / rel)
        record[workload.name] = {"digests": digests, "tables": tables}
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    bench.EXPECTED_FILE.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
