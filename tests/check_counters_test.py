#!/usr/bin/env python3
"""Checks that tools/check_counters.py fails on one altered counter.

Usage: check_counters_test.py PATH/TO/check_counters.py

Writes two tiny mrcc_bench records and a baseline that matches them,
then asserts that the script passes on them, and fails (exit 1, naming
the field) when one counter or the labels hash differs, when a record's
thread count has no baseline entry and when a baseline workload has no
record.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile


def record(workload, threads, cells_convolved=9353, labels_hash="ab12"):
    metrics = {
        "tree.cells": 10972,
        "tree.merge_cells_merged": 1813,
        "tree.merge_cells_created": 4595,
        "beta.cells_convolved": cells_convolved,
        "beta.candidates_tested": 21,
        "beta.binomial_tests": 294,
        "beta.accepted": 19,
        "cluster.clusters": 17,
        "run_s": 0.01,
    }
    return {
        "workload": workload,
        "threads": threads,
        "labels_hash": labels_hash,
        "metrics": {k: {"value": v, "unit": "count"}
                    for k, v in metrics.items()},
    }


def run(script, records, baseline, directory, *extra):
    records_dir = os.path.join(directory, "smoke")
    os.makedirs(records_dir, exist_ok=True)
    for name in os.listdir(records_dir):
        os.remove(os.path.join(records_dir, name))
    for rec in records:
        with open(os.path.join(records_dir, rec["workload"] + ".json"), "w",
                  encoding="utf-8") as f:
            json.dump(rec, f)
    # A trace file beside the records must be ignored.
    with open(os.path.join(records_dir, "x.trace.json"), "w",
              encoding="utf-8") as f:
        f.write("[]")
    baseline_path = os.path.join(directory, "baseline.json")
    with open(baseline_path, "w", encoding="utf-8") as f:
        json.dump(baseline, f)
    return subprocess.run([sys.executable, script, "--records", records_dir,
                           "--baseline", baseline_path, *extra],
                          capture_output=True, text=True)


def main():
    script = sys.argv[1]
    good = [record("paper-14d", 2), record("wide-30d", 2)]
    with tempfile.TemporaryDirectory() as directory:
        # --update builds the baseline from the records.
        out = run(script, good, {}, directory, "--update")
        assert out.returncode == 0, out.stdout + out.stderr
        with open(os.path.join(directory, "baseline.json"),
                  encoding="utf-8") as f:
            baseline = json.load(f)
        assert set(baseline) == {"paper-14d", "wide-30d"}, baseline

        same = run(script, good, baseline, directory)
        assert same.returncode == 0, same.stdout + same.stderr
        assert "OK (2 records" in same.stdout, same.stdout

        # One extra convolved cell fails the gate.
        altered = [record("paper-14d", 2, cells_convolved=9354),
                   record("wide-30d", 2)]
        out = run(script, altered, baseline, directory)
        assert out.returncode == 1, out.stdout + out.stderr
        assert ("paper-14d threads=2: beta.cells_convolved is 9354, "
                "baseline 9353") in out.stdout, out.stdout
        assert "wide-30d" not in out.stdout, out.stdout

        relabelled = [record("paper-14d", 2), record("wide-30d", 2,
                                                     labels_hash="ab13")]
        out = run(script, relabelled, baseline, directory)
        assert out.returncode == 1, out.stdout
        assert "labels_hash" in out.stdout, out.stdout

        other_threads = [record("paper-14d", 1), record("wide-30d", 2)]
        out = run(script, other_threads, baseline, directory)
        assert out.returncode == 1, out.stdout
        assert "paper-14d threads=1: no baseline entry" in out.stdout, \
            out.stdout

        out = run(script, good[:1], baseline, directory)
        assert out.returncode == 1, out.stdout
        assert "wide-30d: no record" in out.stdout, out.stdout

        missing_field = copy.deepcopy(good)
        del missing_field[0]["metrics"]["beta.accepted"]
        out = run(script, missing_field, baseline, directory)
        assert out.returncode == 1, out.stdout
        assert "beta.accepted is None" in out.stdout, out.stdout

        out = run(script, [], baseline, directory)
        assert out.returncode == 1, out.stdout
        assert "no records" in out.stdout, out.stdout
    print("check_counters_test: OK")


if __name__ == "__main__":
    main()
