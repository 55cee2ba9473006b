"""Re-record ``expected.json`` from the code in this checkout.

    python3 perfbench/record.py [--seed 0]

Runs each workload's invocations once and stores their digests.  A digest
holds no budget, note or timing, so the record is the same at every seed;
re-record only when a verdict, counterexample or size is meant to change,
and say so in the change that does it.
"""

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    inv = run.load_invsg()
    work = run.OUT / "record"
    work.mkdir(parents=True, exist_ok=True)
    record = {}
    try:
        for name in workloads.WORKLOADS:
            record[name] = {i.label: i.digest(i.call())
                            for i in workloads.build(inv, name, args.seed, work)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
