#!/usr/bin/env python3
"""Checks that tools/bench_compare.py keeps apart entries that differ only
in an axis other than (method, dataset).

Usage: bench_compare_test.py PATH/TO/bench_compare.py

Writes two tiny BenchRecords whose two entries differ only in `source`
(one entry per record omits the field, so the "memory" default is
exercised too), runs the script on them and asserts that both entries
were compared: a regression planted in the chunked entry must be found
even though the memory entry is unchanged.
"""

import json
import os
import subprocess
import sys
import tempfile


def record(memory_seconds, chunked_seconds):
    def entry(seconds, **axes):
        e = {"method": "MrCC", "dataset": "250k", "completed": True,
             "seconds": seconds}
        e.update(axes)
        return e

    return {
        "schema_version": 1,
        "bench": "scale_points",
        "scale": 1.0,
        "wall_seconds": 1.0,
        "peak_rss_bytes": 1000,
        "entries": [entry(memory_seconds),
                    entry(chunked_seconds, source="chunked", read_ahead=0)],
    }


def run(script, base, cur, directory):
    paths = []
    for name, rec in (("base.json", base), ("cur.json", cur)):
        path = os.path.join(directory, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(rec, f)
        paths.append(path)
    return subprocess.run([sys.executable, script] + paths,
                          capture_output=True, text=True)


def main():
    script = sys.argv[1]
    with tempfile.TemporaryDirectory() as directory:
        same = run(script, record(1.0, 2.0), record(1.0, 2.0), directory)
        out = same.stdout
        assert same.returncode == 0, out + same.stderr
        assert "entry MrCC/250k: 1.000s -> 1.000s" in out, out
        assert "entry MrCC/250k source=chunked: 2.000s -> 2.000s" in out, out

        slower = run(script, record(1.0, 2.0), record(1.0, 4.0), directory)
        out = slower.stdout
        assert slower.returncode == 1, out + slower.stderr
        assert "ok   entry MrCC/250k: 1.000s -> 1.000s" in out, out
        assert "REG  entry MrCC/250k source=chunked: 2.000s -> 4.000s" in out, out
    print("ok")


if __name__ == "__main__":
    main()
