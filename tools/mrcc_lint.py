#!/usr/bin/env python3
"""mrcc_lint.py — semantic project linter for the MrCC tree.

Supersedes the pure-grep bans of tools/lint.sh for rules that need to
understand the code: every check below runs on a lexed view of each
translation unit (comments and string literals separated from code, with
line numbers), so a site name in a comment never trips a ban and a ban
inside a string never hides.

Checks (names usable in `lint-allow: <check>` suppression comments on the
offending line):

  failpoint-site     Every string literal passed to fp::Maybe, fp::MaybeTrue,
                     fp::HitCount, fp::SiteCode, fp::ScopedArm or fp::Arm
                     must name a site registered in kSites
                     (src/common/failpoint.cc). Arm/ScopedArm specs may
                     carry `=trigger` suffixes and comma/semicolon lists;
                     each site token is checked. The site list is closed —
                     a typo'd site would otherwise silently never fire.

  metric-name        String literals passed to counter()/gauge()/histogram()
  span-name          and to MRCC_TRACE_SPAN[_N]() inside src/ must follow
                     the DESIGN.md §10 taxonomy: dot-separated lowercase
                     path `<stage>.<what>[_<unit>]` with a registered stage
                     prefix. Tests/benches are exempt (they exercise the
                     registries with toy names).

  span-documented    Every MRCC_TRACE_SPAN[_N] literal inside src/ must
                     additionally appear in the DESIGN.md §10 span table —
                     the table is the tracing contract, and an undocumented
                     span would silently widen it. The documented set is
                     parsed from DESIGN.md, so adding a span means adding
                     its table row in the same change.

  result-unchecked   `x.value()` / `std::move(x).value()` on a Result
                     requires a dominating check of the same variable —
                     `x.ok()` or `x.status()` earlier in the same function
                     body. The check is type-aware without a compiler: it
                     only fires on identifiers visibly declared
                     `Result<...> x` (or assigned from a function that
                     src/ headers declare to return Result), and on
                     `.value()` called directly on such a function's
                     temporary — so `Counter::value()` and friends never
                     trip it. Intraprocedural and conservative;
                     genuinely-safe exceptions take a
                     `lint-allow: result-unchecked` comment.

  cell-storage       Raw counting-tree arena access (`.cells[`, `->cells[`,
                     `.half[`, `->half[`) outside src/core/counting_tree.*.
                     All other code reads cells through the sanctioned
                     CountingTree::LevelView / CellRef API so the SoA
                     layout stays an implementation detail. (Moved here
                     from tools/lint.sh ban #5.)

  single-ingest      The pipeline's one-of-each pieces stay one of each
                     (DESIGN.md §13). Inside src/, `ClassifyPoint(` and
                     `SanitizePoint(` appear only in src/data/sanitize.*,
                     `fp::MaybeTrue("source.read.corrupt")` only in
                     src/data/sanitize.cc (all three belong to the one
                     per-point ingest step, IngestPoint), and a
                     `.DropDeepestLevel()` / `->DropDeepestLevel()` call
                     only in src/core/mrcc.cc (the one cluster tail,
                     ClusterTree). A second copy of the scan loop or of
                     the tail trips it; tests and benches are exempt.
                     Likewise a `CountingTree::Fold(` call (the one tree
                     fold) appears in src/ only in
                     src/core/streaming_mrcc.cc (the window snapshot),
                     src/dist/sharded_build.cc (the artifact merger) and
                     src/core/tree_io.cc (MergeTree), so no fold creeps
                     back into the batch build, which partitions by key
                     space instead, or into the tree itself, whose run
                     flushes and build rounds merge key orders. Fold's
                     own definition, `Result<CountingTree>
                     CountingTree::Fold(`, is not a call.
                     Outside tests/, `public DataSource` (a DataSource
                     backend) appears only in src/data/data_source.h, so
                     a new backend lands beside the three existing ones
                     and the every-backend tests in
                     tests/data_source_test.cc.

Exit status: 0 clean, 1 findings, 2 usage/internal error. Run from
anywhere: the repo root is derived from this script's location, or pass
--root. CI runs this in the lint job; locally just `tools/mrcc_lint.py`.
"""

import argparse
import os
import re
import sys

# Stage prefixes of the DESIGN.md §10 taxonomy. A new pipeline stage adds
# its prefix here *and* documents its names in DESIGN.md — the gate exists
# to keep the two in sync.
STAGE_PREFIXES = (
    "mrcc", "tree", "beta", "cluster", "memory", "input", "io",
    "pool", "source", "budget", "result", "report", "bench",
    "shard", "merge", "manifest",
)

NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_<>]+)+$")

SUPPRESS_RE = re.compile(r"lint-allow:\s*([a-z-]+)")

CPP_EXTS = (".cc", ".cpp", ".h", ".hpp")


class Token:
    """One lexed region: kind is 'code', 'string' or 'comment'."""

    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line


def lex(source):
    """Splits C++ source into code/string/comment tokens with line numbers.

    A tiny, deterministic lexer: handles //, /* */, "..." (with escapes),
    '...' char literals and raw strings R"delim(...)delim". That is the
    entire lexical structure the checks need; no preprocessor evaluation.
    """
    tokens = []
    i, n, line = 0, len(source), 1
    code_start, code_line = 0, 1

    def flush_code(end):
        if end > code_start:
            tokens.append(Token("code", source[code_start:end], code_line))

    while i < n:
        c = source[i]
        nxt = source[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            flush_code(i)
            j = source.find("\n", i)
            j = n if j < 0 else j
            tokens.append(Token("comment", source[i:j], line))
            i = j
            code_start, code_line = i, line
        elif c == "/" and nxt == "*":
            flush_code(i)
            j = source.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            tokens.append(Token("comment", source[i:j + 2], line))
            line += source.count("\n", i, j + 2)
            i = j + 2
            code_start, code_line = i, line
        elif c == '"' and source[max(0, i - 1):i + 1] in ('R"', '"') and \
                source[i - 1:i] == "R":
            # Raw string literal R"delim( ... )delim".
            flush_code(i - 1)
            m = re.match(r'R"([^()\s\\]*)\(', source[i - 1:])
            if not m:
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = source.find(close, i - 1 + m.end())
            j = n - len(close) if j < 0 else j
            end = j + len(close)
            tokens.append(Token("string", source[i - 1:end], line))
            line += source.count("\n", i - 1, end)
            i = end
            code_start, code_line = i, line
        elif c == '"':
            flush_code(i)
            j = i + 1
            while j < n and source[j] != '"':
                j += 2 if source[j] == "\\" else 1
            tokens.append(Token("string", source[i:j + 1], line))
            i = j + 1
            code_start, code_line = i, line
        elif c == "'":
            # Char literal (or digit separator context; a lone apostrophe
            # between digits is C++14 grouping — skip it as code).
            if i > 0 and source[i - 1].isdigit() and nxt.isdigit():
                i += 1
                continue
            flush_code(i)
            j = i + 1
            while j < n and source[j] != "'":
                j += 2 if source[j] == "\\" else 1
            tokens.append(Token("string", source[i:j + 1], line))
            i = j + 1
            code_start, code_line = i, line
        else:
            if c == "\n":
                line += 1
            i += 1
    flush_code(n)
    return tokens


def neutralized(source):
    """Source with comments and string contents replaced by spaces
    (newlines kept), so offsets and line numbers are preserved but
    neither can confuse a code-level scan. String tokens keep their
    outermost quote characters so a scan can still locate where a
    literal starts and ends (call_string_literals relies on this)."""
    out = []
    for tok in lex(source):
        if tok.kind == "code":
            out.append(tok.text)
            continue
        blank = "".join(ch if ch == "\n" else " " for ch in tok.text)
        if tok.kind == "string":
            first = tok.text.find('"')
            last = tok.text.rfind('"')
            if 0 <= first < last:
                blank = (blank[:first] + '"' + blank[first + 1:last] + '"' +
                         blank[last + 1:])
        out.append(blank)
    return "".join(out)


def suppressed_lines(source):
    """Line -> set of check names with a lint-allow comment on that line."""
    allow = {}
    for tok in lex(source):
        if tok.kind != "comment":
            continue
        for m in SUPPRESS_RE.finditer(tok.text):
            # A multi-line comment applies to its first line only; the
            # convention is a trailing comment on the offending line.
            allow.setdefault(tok.line, set()).add(m.group(1))
    return allow


def call_string_literals(source, callee_re):
    """Yields (line, literal) for every `callee("literal"...` call in the
    code regions of `source`. Only adjacent plain literals are handled —
    names built at runtime (e.g. "tree.cells.level" + std::to_string(h))
    yield their literal prefix, which is what the taxonomy check wants."""
    clean = neutralized(source)
    pattern = re.compile(callee_re + r"\s*\(")
    for m in pattern.finditer(clean):
        j = m.end()
        while j < len(clean) and clean[j] in " \t\n":
            j += 1
        if j >= len(clean) or clean[j] != '"':
            continue
        k = j + 1
        while k < len(clean) and clean[k] != '"':
            k += 1
        line = clean.count("\n", 0, j) + 1
        yield line, source[j + 1:k]


def load_documented_spans(root):
    """Span names listed in the DESIGN.md §10 span-taxonomy table."""
    path = os.path.join(root, "DESIGN.md")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    m = re.search(r"### Span taxonomy(.*?)(?:\n### |\n## )", text, re.S)
    if not m:
        raise RuntimeError("cannot locate the span-taxonomy table in %s"
                           % path)
    spans = set(re.findall(r"^\|\s*`([a-z0-9_.]+)`", m.group(1), re.M))
    if not spans:
        raise RuntimeError("span-taxonomy table parsed empty in %s" % path)
    return spans


def load_registered_sites(root):
    """Parses the closed kSites list out of src/common/failpoint.cc."""
    path = os.path.join(root, "src", "common", "failpoint.cc")
    with open(path, encoding="utf-8") as f:
        text = f.read()
    m = re.search(r"kSites\[\]\s*=\s*\{(.*?)\n\};", text, re.S)
    if not m:
        raise RuntimeError("cannot locate kSites[] in %s" % path)
    sites = re.findall(r'\{"([^"]+)",', m.group(1))
    if not sites:
        raise RuntimeError("kSites[] parsed empty in %s" % path)
    return set(sites)


class Finding:
    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.check,
                                   self.message)


def check_failpoint_sites(path, source, sites, findings):
    # Single-site callees: the literal is the site name verbatim.
    single = r"(?:fp::|::)?(?:Maybe|MaybeTrue|HitCount|SiteCode)"
    for line, lit in call_string_literals(source, r"\bfp::" +
                                          r"(?:Maybe|MaybeTrue|HitCount|SiteCode)"):
        if lit not in sites:
            findings.append(Finding(
                path, line, "failpoint-site",
                "'%s' is not in fp::AllSites() (kSites, failpoint.cc)" % lit))
    del single
    # Spec callees: "site[=trigger]" lists, comma/semicolon separated.
    for line, lit in call_string_literals(source,
                                          r"\b(?:fp::)?(?:ScopedArm|Arm)"):
        for item in re.split(r"[,;]", lit):
            item = item.strip()
            if not item:
                continue
            site = item.split("=", 1)[0]
            if site not in sites:
                findings.append(Finding(
                    path, line, "failpoint-site",
                    "'%s' is not in fp::AllSites() (kSites, failpoint.cc)"
                    % site))


def check_spans_documented(path, source, spans, findings):
    for line, lit in call_string_literals(source,
                                          r"\bMRCC_TRACE_SPAN(?:_N)?"):
        if lit not in spans:
            findings.append(Finding(
                path, line, "span-documented",
                "span '%s' is missing from the DESIGN.md §10 span table"
                % lit))


def check_metric_and_span_names(path, source, findings):
    specs = [
        (r"\.\s*counter", "metric-name"),
        (r"\.\s*gauge", "metric-name"),
        (r"\.\s*histogram", "metric-name"),
        (r"\bMRCC_TRACE_SPAN(?:_N)?", "span-name"),
    ]
    for callee_re, check in specs:
        for line, lit in call_string_literals(source, callee_re):
            ok = bool(NAME_RE.match(lit)) and lit.split(".")[0] in \
                STAGE_PREFIXES
            # Literal prefixes of runtime-composed names ("tree.cells.level"
            # + to_string(h)) end mid-path; accept a well-formed prefix.
            if not ok and lit and NAME_RE.match(lit.rstrip(".") ) and \
                    lit.split(".")[0] in STAGE_PREFIXES:
                ok = True
            if not ok:
                findings.append(Finding(
                    path, line, check,
                    "'%s' violates the DESIGN.md §10 taxonomy "
                    "(lowercase dot path starting with one of: %s)"
                    % (lit, ", ".join(STAGE_PREFIXES))))


VALUE_CALL_RE = re.compile(
    r"(?:std::move\s*\(\s*(?P<moved>[A-Za-z_]\w*)\s*\)|(?P<ident>[A-Za-z_]\w*))"
    r"\s*(?:\.|->)\s*value\s*\(\s*\)")


def function_start_offsets(clean):
    """For every offset, the offset where the enclosing outermost brace
    block opened (approximates 'start of enclosing function body')."""
    starts = []
    stack = []
    opens = [0] * (len(clean) + 1)
    current = 0
    for i, ch in enumerate(clean):
        opens[i] = stack[0] if stack else 0
        if ch == "{":
            stack.append(i)
        elif ch == "}":
            if stack:
                stack.pop()
    opens[len(clean)] = stack[0] if stack else 0
    del starts, current
    return opens


def load_result_returning_functions(root):
    """Names of functions that src/ headers declare to return Result<T>.

    This is the 'semantic' half of the result-unchecked check: the set of
    producers is read off the library's own API surface, so the linter
    knows `GenerateSynthetic(...)` yields a Result without a compiler.
    """
    names = set()
    decl = re.compile(r"\bResult<[^;{}]*?>\s+([A-Za-z_]\w*)\s*\(")
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if not name.endswith(".h"):
                continue
            with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                clean = neutralized(f.read())
            names.update(decl.findall(clean))
    return names


def is_visible_result(clean, ident, end):
    """True when `ident` is declared as a Result<...> somewhere before
    offset `end` (declaration, reference binding or parameter)."""
    return re.search(
        r"\bResult<[^;{}]*?>\s*&?&?\s*%s\s*[=;,)({]" % re.escape(ident),
        clean[:end]) is not None


def check_result_value(path, source, result_fns, findings):
    clean = neutralized(source)
    opens = function_start_offsets(clean)
    for m in VALUE_CALL_RE.finditer(clean):
        ident = m.group("moved") or m.group("ident")
        assigned_from_result = re.search(
            r"\b%s\s*=\s*(?:\w+::)*(%s)\s*\(" %
            (re.escape(ident), "|".join(map(re.escape, result_fns))),
            clean[:m.start()]) if result_fns else None
        if not is_visible_result(clean, ident, m.start()) and \
                not assigned_from_result:
            continue  # Not provably a Result (Counter::value() etc).
        start = opens[m.start()]
        region = clean[start:m.start()]
        checked = re.search(
            r"\b%s\s*(?:\.|->)\s*(?:ok|status)\s*\(" % re.escape(ident),
            region)
        if not checked:
            line = clean.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                path, line, "result-unchecked",
                "%s.value() without a dominating %s.ok() / %s.status() "
                "check in the same function" % (ident, ident, ident)))
    # Temporaries: .value() directly on the result of a call to a function
    # the src/ headers declare to return Result — nothing ever checked it.
    for m in re.finditer(r"\)\s*\.\s*value\s*\(\s*\)", clean):
        before = clean[max(0, m.start() - 160):m.start() + 1]
        producer = re.search(r"([A-Za-z_]\w*)\s*\((?:[^()]|\([^()]*\))*\)"
                             r"(?:\s*\)\s*)?$", before)
        if not producer:
            continue
        name = producer.group(1)
        if name == "move":
            # std::move(ident).value() is the identifier form (handled
            # above); std::move(Producer(...)).value() is still a
            # temporary — dig out the inner callee.
            inner = re.search(r"move\s*\(\s*([A-Za-z_]\w*)\s*\(",
                              producer.group(0))
            if not inner:
                continue
            name = inner.group(1)
        if name not in result_fns:
            continue
        line = clean.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            path, line, "result-unchecked",
            "%s(...).value() on a temporary Result — bind it and check "
            "ok() first" % name))


CELL_STORAGE_RE = re.compile(r"(?:\.|->)\s*(?:cells|half)\s*\[")


def check_cell_storage(path, source, findings):
    if re.search(r"core/counting_tree\.(h|cc)$", path.replace(os.sep, "/")):
        return
    clean = neutralized(source)
    for m in CELL_STORAGE_RE.finditer(clean):
        line = clean.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            path, line, "cell-storage",
            "raw cell-storage access — use CountingTree::LevelView / "
            "CellRef (tests: CountingTree::TestPeer)"))


# single-ingest: (code pattern, owning path prefixes, the piece it
# belongs to). Patterns run on the neutralized source, so mentions in
# comments and strings never count.
SINGLE_OWNER_RULES = (
    (re.compile(r"\bClassifyPoint\s*\("), ("src/data/sanitize.",),
     "ClassifyPoint(", "the ingest step IngestPoint (data/sanitize.h)"),
    (re.compile(r"\bSanitizePoint\s*\("), ("src/data/sanitize.",),
     "SanitizePoint(", "the ingest step IngestPoint (data/sanitize.h)"),
    (re.compile(r"(?:\.|->)\s*DropDeepestLevel\s*\(\s*\)"),
     ("src/core/mrcc.cc",), "DropDeepestLevel()",
     "the cluster tail ClusterTree (core/mrcc.h)"),
    # A call, not the definition after its return type `Result<...>`.
    (re.compile(r"(?<!>)(?<!>\s)\bCountingTree\s*::\s*Fold\s*\("),
     ("src/core/streaming_mrcc.cc", "src/dist/sharded_build.cc",
      "src/core/tree_io.cc"),
     "CountingTree::Fold(",
     "the partitioned batch build (BuildTree, core/mrcc.h), a key-order "
     "merge inside CountingTree, or one of the existing folds (the window "
     "snapshot, the artifact merger, MergeTree)"),
)


def check_single_ingest(path, source, findings):
    rel = path.replace(os.sep, "/")
    clean = neutralized(source)
    for pattern, owners, what, piece in SINGLE_OWNER_RULES:
        if any(rel.startswith(owner) for owner in owners):
            continue
        for m in pattern.finditer(clean):
            line = clean.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                path, line, "single-ingest",
                "%s outside %s — use %s"
                % (what, ", ".join(owner + "*" if owner.endswith(".")
                                   else owner for owner in owners),
                   piece)))
    if rel != "src/data/sanitize.cc":
        for line, lit in call_string_literals(source, r"\bfp::MaybeTrue"):
            if lit == "source.read.corrupt":
                findings.append(Finding(
                    path, line, "single-ingest",
                    "the source.read.corrupt failpoint outside "
                    "src/data/sanitize.cc — use the ingest step IngestPoint "
                    "(data/sanitize.h)"))


DATA_SOURCE_BACKEND_RE = re.compile(
    r"\bpublic\s+(?:virtual\s+)?(?:(?:::)?mrcc\s*::\s*)?DataSource\b")
DATA_SOURCE_OWNER = "src/data/data_source.h"


def check_data_source_backends(path, source, findings):
    rel = path.replace(os.sep, "/")
    if rel == DATA_SOURCE_OWNER or rel.startswith("tests/"):
        return
    clean = neutralized(source)
    for m in DATA_SOURCE_BACKEND_RE.finditer(clean):
        line = clean.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            path, line, "single-ingest",
            "DataSource backend outside %s — add it there, beside the "
            "every-backend tests" % DATA_SOURCE_OWNER))


def lint_file(path, rel, sites, spans, result_fns, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        source = f.read()
    raw = []
    check_failpoint_sites(rel, source, sites, raw)
    if rel.replace(os.sep, "/").startswith("src/"):
        check_metric_and_span_names(rel, source, raw)
        check_spans_documented(rel, source, spans, raw)
        check_single_ingest(rel, source, raw)
    check_data_source_backends(rel, source, raw)
    check_result_value(rel, source, result_fns, raw)
    check_cell_storage(rel, source, raw)
    allow = suppressed_lines(source)
    # A lint-allow comment suppresses its named check on the same line
    # (trailing comment) or on the following line (comment-above style).
    for f_ in raw:
        names = allow.get(f_.line, set()) | allow.get(f_.line - 1, set())
        if f_.check not in names:
            findings.append(f_)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: derived from script path)")
    parser.add_argument("files", nargs="*",
                        help="lint only these files (default: src/ tests/ "
                             "bench/ examples/)")
    args = parser.parse_args(argv)

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    try:
        sites = load_registered_sites(root)
        spans = load_documented_spans(root)
        result_fns = load_result_returning_functions(root)
    except (OSError, RuntimeError) as e:
        print("mrcc_lint.py: %s" % e, file=sys.stderr)
        return 2

    if args.files:
        paths = [os.path.abspath(p) for p in args.files]
    else:
        paths = []
        for sub in ("src", "tests", "bench", "examples"):
            for dirpath, dirnames, names in os.walk(os.path.join(root, sub)):
                # tests/compile_fail/ holds deliberately-bad fixtures; the
                # harness lints them one at a time expecting failure, so the
                # default full-tree sweep must not visit them.
                dirnames[:] = [d for d in dirnames if d != "compile_fail"]
                for name in sorted(names):
                    if name.endswith(CPP_EXTS):
                        paths.append(os.path.join(dirpath, name))
        paths.sort()

    findings = []
    for path in paths:
        rel = os.path.relpath(path, root)
        lint_file(path, rel, sites, spans, result_fns, findings)

    for f_ in findings:
        print(f_, file=sys.stderr)
    if findings:
        print("mrcc_lint.py: FAILED (%d finding%s)"
              % (len(findings), "" if len(findings) == 1 else "s"),
              file=sys.stderr)
        return 1
    print("mrcc_lint.py: OK (%d files)" % len(paths))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
