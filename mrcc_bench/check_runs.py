#!/usr/bin/env python3
"""Checks that two mrcc_bench output directories agree.

    python3 mrcc_bench/check_runs.py A_DIR B_DIR

Each directory holds one <workload>.json record per workload, as written by
`mrcc_bench --out_dir=DIR`. For every workload BENCHMARK.json names, and
every end-to-end metric, the check fails when B's value differs from A's by
more than the metric's bound, as a share of A's value. A metric whose
record keeps its samples (run_s) is reported as unresolved instead when the
samples of A or B spread wider than the bound: the distance between their
quartiles, as a share of their median. One pair of runs cannot then tell a
move of the bound's size from noise; it neither passes nor fails.

When both records come from the same thread count and size, the check also
fails when a deterministic work counter (the † metrics of README.md), the
quality or the labels hash differs. The seed only permutes the axes, a
symmetry of MrCC, so these must match across seeds too. It fails when a
workload is missing, when a run recorded a failed operation, and when
paper-14d and sharded-4proc disagree on the labels within one directory:
the repository's bit-identity contract, end to end. Exit status
0 means no check failed.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Work counters and scores that are a pure function of the size and the
# thread count.
EXACT = [
    "quality", "subspace_quality", "data.chunks", "tree.cells",
    "tree.merge_cells_merged", "tree.merge_cells_created",
    "beta.cells_convolved", "beta.candidates_tested", "beta.binomial_tests",
    "beta.accepted", "cluster.clusters", "stream.points_evicted",
    "stream.points_retained", "dist.artifact_mb",
]

# End-to-end metrics whose records keep every sample, by record key.
SAMPLES = {"run_s": "run_s_samples"}

# Workloads that cluster the same points and must label them identically.
SAME_LABELS = ["paper-14d", "sharded-4proc"]


def load(directory, workload):
    path = os.path.join(directory, workload + ".json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def value(record, metric):
    return record["metrics"][metric]["value"]


def spread(samples):
    """Interquartile range of `samples` as a share of their median."""
    if len(samples) < 2:
        return 0.0
    q = statistics.quantiles(samples, n=4)
    return (q[2] - q[0]) / statistics.median(samples)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    a_dir, b_dir = argv[1], argv[2]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    problems = []
    unresolved = 0
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        a, b = load(a_dir, workload), load(b_dir, workload)
        if a is None or b is None:
            problems.append("%s: missing from %s" %
                            (workload, a_dir if a is None else b_dir))
            continue
        for side, record in (("A", a), ("B", b)):
            if record["failed"] != 0:
                problems.append("%s: run %s recorded %d failed operations: %s"
                                % (workload, side, record["failed"],
                                   "; ".join(record["failures"])))
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = value(a, name), value(b, name)
            change = (vb - va) / va if va else float("inf")
            noise = max(spread(a.get(SAMPLES.get(name), [])),
                        spread(b.get(SAMPLES.get(name), [])))
            if noise > bound:
                verdict = "unresolved (samples spread %.0f%%)" % (100 * noise)
                unresolved += 1
            elif abs(change) <= bound:
                verdict = ""
            else:
                verdict = "MOVED"
                problems.append("%s %s moved %+.1f%% (bound %.1f%%)" %
                                (workload, name, 100 * change, 100 * bound))
            rows.append((workload, name, va, vb, change, bound, verdict))
        comparable = all(a[k] == b[k] for k in ("threads", "smoke"))
        if not comparable:
            continue
        if a["labels_hash"] != b["labels_hash"]:
            problems.append("%s: labels hash %s != %s" %
                            (workload, a["labels_hash"], b["labels_hash"]))
        exact = EXACT if a["trace"] and b["trace"] else EXACT[:2]
        for name in exact:
            if value(a, name) != value(b, name):
                problems.append("%s %s: %r != %r" %
                                (workload, name, value(a, name),
                                 value(b, name)))

    for directory in (a_dir, b_dir):
        hashes = {w: load(directory, w)["labels_hash"] for w in SAME_LABELS
                  if load(directory, w) is not None}
        if len(set(hashes.values())) > 1:
            problems.append("%s: labels differ across %s" %
                            (directory, ", ".join(sorted(hashes))))

    print("%-14s %-17s %12s %12s %8s %6s" %
          ("workload", "metric", "A", "B", "change", "bound"))
    for workload, name, va, vb, change, bound, verdict in rows:
        print("%-14s %-17s %12.6g %12.6g %+7.1f%% %5.1f%% %s" %
              (workload, name, va, vb, 100 * change, 100 * bound, verdict))
    for problem in problems:
        print("FAIL:", problem)
    if problems:
        print("%d problems" % len(problems))
    elif unresolved:
        print("agree, except %d unresolved" % unresolved)
    else:
        print("agree")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
