#!/usr/bin/env python3
"""Checks that tools/mrcc_lint.py fails on one seeded violation per check.

Usage: mrcc_lint_test.py PATH/TO/mrcc_lint.py REPO_ROOT

Requires the linter to pass on REPO_ROOT. Then, for each check, copies
the linted part of the tree into a temporary directory, adds one source
file under src/ that breaks that check alone, and requires
`mrcc_lint.py --root <copy>` to exit 1 and name the check. A check whose
body were neutered would let its seed through, and this test would fail.
"""

import os
import shutil
import subprocess
import sys
import tempfile

# What the linter reads: the trees it walks, the failpoint registry under
# src/ and the DESIGN.md span table.
LINTED = ("src", "tests", "bench", "examples", "DESIGN.md")

# One violation per check (and per single-ingest rule), each a file of
# its own under src/ (the src-only checks skip everything else). The code
# is linted, never built.
SEEDS = [
    ("failpoint-site", """
#include "common/failpoint.h"
namespace mrcc {
bool LintSeed() { return fp::MaybeTrue("no.such.site"); }
}  // namespace mrcc
"""),
    ("metric-name", """
#include "common/metrics.h"
namespace mrcc {
void LintSeed() { MetricsRegistry::Global().counter("NotATaxonomyName"); }
}  // namespace mrcc
"""),
    ("span-name", """
#include "common/trace.h"
namespace mrcc {
void LintSeed() { MRCC_TRACE_SPAN("Bad Span"); }
}  // namespace mrcc
"""),
    ("span-documented", """
#include "common/trace.h"
namespace mrcc {
void LintSeed() { MRCC_TRACE_SPAN("tree.undocumented_lint_seed"); }
}  // namespace mrcc
"""),
    ("result-unchecked", """
#include "common/status.h"
namespace mrcc {
int LintSeed(Result<int> r) { return r.value(); }
}  // namespace mrcc
"""),
    ("cell-storage", """
namespace mrcc {
template <typename Arena>
unsigned LintSeed(const Arena& arena) { return arena.half[0]; }
}  // namespace mrcc
"""),
    ("single-ingest", """
#include "core/counting_tree.h"
namespace mrcc {
Status LintSeed(CountingTree& tree) { return tree.DropDeepestLevel(); }
}  // namespace mrcc
"""),
    ("single-ingest", """
#include "data/sanitize.h"
namespace mrcc {
bool LintSeed(std::span<const double> point, std::vector<double>* scratch) {
  return IngestPoint(&point, BadPointPolicy::kSkip, scratch) ==
         PointAction::kKeep;
}
}  // namespace mrcc
"""),
]

SEED_PATH = os.path.join("src", "core", "lint_seed.cc")


def lint(script, root):
    return subprocess.run([sys.executable, script, "--root", root],
                          capture_output=True, text=True)


def copy_tree(root, directory):
    copy = os.path.join(directory, "repo")
    for item in LINTED:
        source = os.path.join(root, item)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(copy, item))
        else:
            shutil.copy(source, os.path.join(copy, item))
    return copy


def main():
    script, root = sys.argv[1], sys.argv[2]
    clean = lint(script, root)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    with tempfile.TemporaryDirectory() as directory:
        copy = copy_tree(root, directory)
        out = lint(script, copy)
        assert out.returncode == 0, out.stdout + out.stderr
        for check, code in SEEDS:
            seed = os.path.join(copy, SEED_PATH)
            with open(seed, "w", encoding="utf-8") as f:
                f.write(code)
            out = lint(script, copy)
            os.remove(seed)
            report = out.stdout + out.stderr
            assert out.returncode == 1, "%s: exit %d\n%s" % (
                check, out.returncode, report)
            assert any("lint_seed.cc" in line and "[%s]" % check in line
                       for line in report.splitlines()), \
                "%s: the seed was not reported\n%s" % (check, report)
    print("mrcc_lint_test: OK (%d seeds)" % len(SEEDS))


if __name__ == "__main__":
    main()
