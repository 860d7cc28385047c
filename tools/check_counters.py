#!/usr/bin/env python3
"""Checks the mrcc_bench smoke run's work counters against a baseline.

Usage:

    tools/check_counters.py [--records DIR] [--baseline FILE] [--update]

Reads every traced record the smoke run wrote (DIR/<workload>.json,
default .bench_build/smoke) and compares the machine-independent work
counters and the labels hash, exactly, against the committed baseline
(default bench/baselines/smoke_counters.json), which is keyed by
workload and then by the record's thread count. Every field is the
same at any thread count: tree.merge_cells_* count the folds of the
window snapshots (stream-window) and of the shard merger
(sharded-4proc), and the batch workloads' partitioned build folds
nothing.

Exits 1 when a field differs, when a record's (workload, threads) has no
baseline entry, or when a baseline workload has no record; prints every
difference. --update writes the records' values into the baseline
instead: run it only when a change is meant to move a counter, and say
why in the change's description.
"""

import argparse
import glob
import json
import os
import sys

FIELDS = (
    "tree.cells",
    "tree.merge_cells_merged",
    "tree.merge_cells_created",
    "beta.cells_convolved",
    "beta.candidates_tested",
    "beta.binomial_tests",
    "beta.accepted",
    "cluster.clusters",
    "labels_hash",
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def counters(record):
    """The compared fields of one mrcc_bench record."""
    out = {}
    for field in FIELDS:
        if field == "labels_hash":
            out[field] = record.get("labels_hash")
        else:
            metric = record.get("metrics", {}).get(field)
            out[field] = None if metric is None else metric.get("value")
    return out


def load_records(directory):
    """{workload: (threads, counters)} for every record in `directory`."""
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        if path.endswith(".trace.json"):
            continue
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
        records[record["workload"]] = (str(record["threads"]),
                                       counters(record))
    return records


def compare(baseline, records):
    """Every difference between `records` and `baseline`, as text lines."""
    problems = []
    for workload, (threads, got) in sorted(records.items()):
        want = baseline.get(workload, {}).get(threads)
        if want is None:
            problems.append("%s threads=%s: no baseline entry"
                            % (workload, threads))
            continue
        for field in FIELDS:
            if got[field] != want.get(field):
                problems.append("%s threads=%s: %s is %r, baseline %r"
                                % (workload, threads, field, got[field],
                                   want.get(field)))
    for workload in sorted(set(baseline) - set(records)):
        problems.append("%s: no record" % workload)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--records",
                        default=os.path.join(ROOT, ".bench_build", "smoke"))
    parser.add_argument("--baseline",
                        default=os.path.join(ROOT, "bench", "baselines",
                                             "smoke_counters.json"))
    parser.add_argument("--update", action="store_true")
    args = parser.parse_args()

    records = load_records(args.records)
    if not records:
        print("check_counters: no records in %s" % args.records)
        return 1
    baseline = {}
    if os.path.exists(args.baseline):
        with open(args.baseline, encoding="utf-8") as f:
            baseline = json.load(f)

    if args.update:
        for workload, (threads, got) in records.items():
            baseline.setdefault(workload, {})[threads] = got
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=2, sort_keys=True)
            f.write("\n")
        print("check_counters: wrote %d records to %s"
              % (len(records), args.baseline))
        return 0

    problems = compare(baseline, records)
    for line in problems:
        print("check_counters: " + line)
    if problems:
        return 1
    print("check_counters: OK (%d records, %d fields each)"
          % (len(records), len(FIELDS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
