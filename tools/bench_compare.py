#!/usr/bin/env python3
"""Compare two BenchRecord JSON files and flag performance regressions.

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json [options]

Entries are matched by (method, dataset, source, read_ahead, threads,
workers); a field an older record lacks takes its default ("memory" for
source, 0 for the rest), and entries equal on all six are matched by
their order within the record. For each matched pair the per-run wall
time is compared; the record-level totals (wall_seconds, peak_rss_bytes)
are compared as well. A regression is a relative increase
above --threshold (default 25%). Small absolute times are noisy, so pairs
where both sides are under --min-seconds (default 50 ms) are only reported
informationally, never failed on.

Exit codes:
  0  no regressions (or --warn-only), or no usable baseline (a missing or
     unparseable baseline is a warning, not a failure: the first run of a
     new bench has nothing to compare against)
  1  at least one regression above threshold
  2  usage error, or the CURRENT record is missing/unparseable (that one
     is always a hard error — it means the bench itself broke)

The committed baseline lives at bench/baselines/BENCH_baseline.json and is
refreshed deliberately (see README); CI runs this script warn-only until
the runner variance is characterised.
"""

import argparse
import json
import sys

SUPPORTED_SCHEMA = 1


def load_record(path, *, required):
    """Loads a BenchRecord JSON file.

    When required, any problem is fatal (exit 2). Otherwise problems
    print a warning and return None so the caller can skip the
    comparison — a fresh checkout or a renamed bench has no baseline
    yet, and that must not fail CI with a stack trace.
    """
    problem = None
    record = None
    try:
        with open(path, encoding="utf-8") as f:
            record = json.load(f)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as e:
        problem = f"cannot read {path}: {e}"
    if record is not None:
        if not isinstance(record, dict):
            problem = f"{path}: top-level JSON value is not an object"
        else:
            version = record.get("schema_version")
            if version != SUPPORTED_SCHEMA:
                problem = (
                    f"{path}: schema_version {version} != supported "
                    f"{SUPPORTED_SCHEMA}"
                )
    if problem is None:
        return record
    if required:
        print(f"error: {problem}", file=sys.stderr)
        sys.exit(2)
    print(f"warning: {problem}", file=sys.stderr)
    return None


# The axes that tell two entries of one record apart, with the value a
# record written before the axis existed implies.
KEY_FIELDS = (
    ("method", ""),
    ("dataset", ""),
    ("source", "memory"),
    ("read_ahead", 0),
    ("threads", 0),
    ("workers", 0),
)


def keyed_entries(record):
    """Maps each entry's key to the entry.

    Entries that agree on every key axis (a bench may run one cell twice,
    e.g. as part of two sweeps) are told apart by their order within the
    record: the second such entry gets the suffix "#2", and so on.
    """
    entries = {}
    seen = {}
    for entry in record.get("entries", []):
        key = tuple(entry.get(field, default) for field, default in KEY_FIELDS)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            key = key + (f"#{seen[key]}",)
        entries[key] = entry
    return entries


def key_name(key):
    """method/dataset, then every non-default axis as field=value."""
    name = f"{key[0]}/{key[1]}"
    for (field, default), value in zip(KEY_FIELDS[2:], key[2:]):
        if value != default:
            name += f" {field}={value}"
    if len(key) > len(KEY_FIELDS):
        name += f" {key[-1]}"
    return name


def relative_change(base, cur):
    if base <= 0:
        return 0.0
    return (cur - base) / base


def fmt_pct(x):
    return f"{x * +100:+.1f}%"


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BenchRecord JSON files."
    )
    parser.add_argument("baseline", help="baseline BenchRecord JSON")
    parser.add_argument("current", help="current BenchRecord JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative increase that counts as a regression (default 0.25)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        help="ignore per-entry timings where both sides are below this "
        "(default 0.05)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0",
    )
    args = parser.parse_args()

    # The current record is validated first and unconditionally: if the
    # bench run itself produced garbage, that is a failure regardless of
    # the baseline's state.
    cur = load_record(args.current, required=True)
    base = load_record(args.baseline, required=False)
    if base is None:
        print(
            "no usable baseline — skipping comparison (record a baseline "
            f"with: cp {args.current} {args.baseline})"
        )
        return 0

    if base.get("bench") != cur.get("bench"):
        print(
            f"note: comparing different benches "
            f"({base.get('bench')} vs {cur.get('bench')})"
        )
    if base.get("scale") != cur.get("scale"):
        print(
            f"note: scales differ (baseline {base.get('scale')} vs "
            f"current {cur.get('scale')}); timings are not comparable"
        )

    base_entries = keyed_entries(base)
    cur_entries = keyed_entries(cur)

    regressions = []
    infos = []

    for key in sorted(base_entries.keys() - cur_entries.keys(), key=str):
        infos.append(f"entry {key_name(key)}: missing from current run")
    for key in sorted(cur_entries.keys() - base_entries.keys(), key=str):
        infos.append(f"entry {key_name(key)}: new in current run")

    for key in sorted(base_entries.keys() & cur_entries.keys(), key=str):
        b, c = base_entries[key], cur_entries[key]
        name = key_name(key)
        if b.get("completed") and not c.get("completed"):
            regressions.append(
                f"entry {name}: completed in baseline, now fails "
                f"({c.get('error', '')!r})"
            )
            continue
        bs, cs = b.get("seconds", 0.0), c.get("seconds", 0.0)
        change = relative_change(bs, cs)
        line = f"entry {name}: {bs:.3f}s -> {cs:.3f}s ({fmt_pct(change)})"
        if change > args.threshold:
            if bs < args.min_seconds and cs < args.min_seconds:
                infos.append(line + " [below --min-seconds, ignored]")
            else:
                regressions.append(line)
        else:
            infos.append(line)

    for field, unit, minimum in (
        ("wall_seconds", "s", args.min_seconds),
        ("peak_rss_bytes", "B", 0),
    ):
        bv, cv = base.get(field, 0), cur.get(field, 0)
        change = relative_change(bv, cv)
        line = f"total {field}: {bv:g}{unit} -> {cv:g}{unit} ({fmt_pct(change)})"
        if change > args.threshold and not (bv < minimum and cv < minimum):
            regressions.append(line)
        else:
            infos.append(line)

    for line in infos:
        print(f"  ok   {line}")
    for line in regressions:
        print(f"  REG  {line}")

    if regressions:
        print(
            f"\n{len(regressions)} regression(s) above "
            f"{fmt_pct(args.threshold)}"
            + (" (warn-only: not failing)" if args.warn_only else "")
        )
        return 0 if args.warn_only else 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
