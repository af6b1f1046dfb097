"""Record the output digests and repeat counts that run.py checks against.

    python3 benchmark/record.py --workload NAME [--entries FIRST-LAST]

For each input entry it runs one untraced and one traced operation, requires
both to succeed with identical outputs, and stores the file digests, the
counts that must repeat exactly, and (for generated inputs) the input digest
in digests.json. Re-record only when a change alters output bytes on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run as bench


def record_entry(workload: str, entry: int) -> tuple[str, dict]:
    work = bench.make_work_dir(f"record-{workload}-{entry}")
    try:
        wl = bench.WORKLOADS[workload](entry, work)
        run = bench.Run(wl, {}, time.monotonic() + 600.0)
        run.check_inputs()
        metrics, _ = bench.trace(run, entry)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.failed or run.problems:
        raise SystemExit(f"{workload} entry {entry}: {run.failed} failed, "
                         f"problems {run.problems}")
    rec = {"files": run.seen[wl.key],
           "counts": {name: metrics[name]["value"] for name in bench.REPEAT_COUNTS}}
    if wl.inputs_digest:
        rec["inputs"] = wl.inputs_digest
    return wl.key, rec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--entries", default=f"0-{bench.ENTRIES - 1}")
    args = parser.parse_args()
    if not bench.configure():
        return 2
    first, last = (int(x) for x in args.entries.split("-"))
    recorded = {}
    for entry in range(first, last + 1):
        key, rec = record_entry(args.workload, entry)
        recorded[key] = rec
        print(f"recorded {args.workload} {key}", flush=True)
    # re-read just before writing, so that records of other workloads made
    # meanwhile are kept
    table = bench.load_recorded()
    table.setdefault(args.workload, {}).update(recorded)
    tmp = bench.DIGESTS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, bench.DIGESTS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
