"""Record the CSV digests that run.py compares against as output_match.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload for benchmark seeds 0..19 and
writes perfbench/reference_digests.json. Record again, and say so, when a
change alters the output bytes on purpose.
"""

import json
import os
import sys
import tempfile

import run

SEEDS = range(20)


def main():
    run.pin_threads()
    sys.path.insert(0, run.SRC)
    found = {}
    os.makedirs(os.path.join(run.HERE, ".work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(run.HERE, ".work")) \
            as work_dir:
        for name, workload in run.WORKLOADS.items():
            for seed in SEEDS:
                out_dir = os.path.join(work_dir, f"{name}-{seed}")
                record = run.one_pass(workload, seed, out_dir, run.run_pass)
                if record["failed"]:
                    sys.exit(f"{name} seed {seed}: {record['failed']} jobs "
                             "failed their checks; nothing recorded")
                found.setdefault(name, {})[str(seed)] = record["digests"]
                print(name, seed, flush=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"environment": run.environment(), "digests": found}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
