#!/usr/bin/env python3
"""hostnet-lint: project-specific static analysis for the hostnet simulator.

The simulator's correctness story rests on two invariants that ordinary
compilers do not enforce (DESIGN.md section 4c):

  * determinism -- identical results for identical seeds, bit-identical
    between serial and parallel sweeps. Wall-clock reads, unseeded RNG and
    iteration order of unordered containers silently break it.
  * allocation discipline -- the event/MC hot paths perform zero steady-state
    allocations. A stray std::deque / std::function / std::map / new in the
    hot-path subsystems silently breaks it.

Checks (ids are stable; use them in suppressions):

  wall-clock      std::chrono::{system,steady,high_resolution}_clock,
                  gettimeofday / clock_gettime / time(NULL): simulated time
                  comes only from sim::Simulator::now().
  raw-rand        rand() / srand() / std::random_device: all randomness must
                  flow from a seeded common/rng.hpp stream.
  unordered-iter  range-for over a std::unordered_{map,set} declared in the
                  same file: iteration order is unspecified and must not
                  feed results or event ordering.
  hot-alloc       std::deque / std::function / std::map / std::list /
                  std::unordered_{map,set} / new-expressions inside the
                  hot-path subsystems (src/sim, src/mc, src/cha, src/cpu,
                  src/iio, src/fleet -- the fleet runner's per-host loop
                  sits inside every shard -- plus src/flow and src/net:
                  CreditPool wait/notify and the NIC/TCP per-packet pumps
                  run once per event). Setup-path allocations that are
                  genuinely
                  one-time (and vector growth, which amortizes out) are
                  fine -- suppress them explicitly with a justification.
  hot-libcall     std::popcount / __builtin_popcount* in the same hot-path
                  subsystems: on baseline x86-64 (no POPCNT) each call is a
                  PLT call into libgcc's __popcountdi2. Walk the set bits
                  with countr_zero and x &= x - 1 instead, or keep a count.
  pragma-once     every header must start its include guard with
                  #pragma once.
  magic-tick      4+-digit decimal literals on Tick-typed lines outside
                  common/units.hpp: tick constants belong in units.hpp or
                  behind its ns()/us()/ms() helpers.
  raw-credit-counter
                  an integral member that looks like an ad-hoc credit pool
                  (*_in_use, *inflight, *_used; a class member's trailing
                  underscore or a State field's bare name) declared in the flow-
                  controlled subsystems (src/cpu, src/cha, src/iio, src/mc,
                  src/net). Credit accounting belongs in flow::CreditPool,
                  which carries the ledger, occupancy telemetry and waiter
                  wakeups; a raw counter silently opts out of all three.
                  Counters that genuinely are not host credit domains (e.g.
                  a TCP sender's wire-side cwnd) get an allow() with a
                  justification.
  handler-static-state
                  a mutable function-local `static` / `thread_local` in the
                  event-handler subsystems (src/sim, src/cpu, src/cha,
                  src/iio, src/mc, src/net). Fork/replay runs the same
                  handler from the same checkpoint twice, and state outside
                  the components' State makes the replays diverge.
                  const/constexpr data is fine.
  handler-global-state
                  a mutable namespace-scope variable in the same
                  subsystems, for the same reason.
  stale-allow     (--stale only) an allow() directive that no longer
                  suppresses any finding. Dead suppressions rot fast: the
                  code they excused is gone, but they still mask the next
                  genuine finding on that line.
  bad-allow       an allow() directive naming an unknown check id (a typo
                  suppresses nothing). Reported at the directive's line; its
                  known ids still apply and the rest of the file is linted.

Suppression: append `// hostnet-lint: allow(<check>[, <check>...])` to the
offending line, or put it alone on the line above. Suppressions are meant to
carry a justification in the surrounding comment; `--list-allows` prints all
of them for audit.

Usage:
    tools/hostnet_lint.py                  # lint src/ bench/ tests/ examples/
    tools/hostnet_lint.py path...          # lint specific files/dirs
    tools/hostnet_lint.py --stale          # also fail on dead allow() directives
    tools/hostnet_lint.py --list-checks
    tools/hostnet_lint.py --list-allows

Exit status: 0 = no unsuppressed findings, 1 = findings, 2 = usage error.
Stdlib only; no compiler needed.
"""

import argparse
import os
import re
import sys

CXX_EXTENSIONS = (".hpp", ".h", ".cpp", ".cc", ".cxx")
DEFAULT_ROOTS = ("src", "bench", "tests", "examples")
# The lint tool's own test corpus: deliberately-bad snippets that must not
# fail a tree-wide run (tests/test_lint.py scans them explicitly).
SKIP_DIR_NAMES = {"lint_fixtures", "build", ".git"}
SKIP_DIR_PREFIXES = ("build-",)

# Subsystems with a zero-steady-state-allocation contract (DESIGN.md 4a/4b).
# src/flow (CreditPool wait/notify rings) and src/net (NIC DMA/TX pumps, the
# DCTCP copy loop) run on every event and joined the set with the same
# contract.
HOT_PATH_DIRS = ("src/sim", "src/mc", "src/cha", "src/cpu", "src/iio", "src/fleet",
                 "src/flow", "src/net")

# Subsystems whose flow control must go through flow::CreditPool
# (DESIGN.md 4d). src/flow itself is exempt: the pool's own in_use_ lives
# there.
CREDIT_POOL_DIRS = ("src/cpu", "src/cha", "src/iio", "src/mc", "src/net")

# Event-handler subsystems with the fork/replay purity contract (DESIGN.md
# 4e): all mutable state lives in a component's State.
HANDLER_DIRS = ("src/sim", "src/cpu", "src/cha", "src/iio", "src/mc", "src/net")

ALLOW_RE = re.compile(r"hostnet-lint:\s*allow\(([^)]*)\)")

CHECKS = {
    "wall-clock": "wall-clock time source (simulated time comes from sim::Simulator::now())",
    "raw-rand": "unseeded/global RNG (use a seeded common/rng.hpp stream)",
    "unordered-iter": "iteration over an unordered container (order is unspecified)",
    "hot-alloc": "allocating/indirect type banned in hot-path subsystems",
    "hot-libcall": "bit-counting builtin that is a libgcc call on baseline x86-64",
    "pragma-once": "header missing #pragma once",
    "magic-tick": "magic tick constant outside common/units.hpp",
    "raw-credit-counter": "ad-hoc credit/occupancy counter outside flow::CreditPool",
    "handler-static-state": "mutable function-local static in a handler subsystem",
    "handler-global-state": "mutable namespace-scope variable in a handler subsystem",
    "stale-allow": "allow() directive that suppresses nothing (reported with --stale)",
    "bad-allow": "allow() directive naming an unknown check id",
}

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|\bgettimeofday\s*\("
    r"|\bclock_gettime\s*\("
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
)
RAW_RAND_RE = re.compile(r"\b(?:rand|srand|drand48|srandom)\s*\(|std::random_device")
# A new-expression allocating an object: `new T`, `::new T` -- but not
# placement new (`new (addr) T`), which allocates nothing.
NEW_EXPR_RE = re.compile(r"\bnew\s+[A-Za-z_:][\w:]*")
HOT_ALLOC_RE = re.compile(
    r"std::deque\s*<|std::function\s*<|std::map\s*<|std::multimap\s*<|std::list\s*<"
    r"|std::unordered_(?:map|set|multimap|multiset)\s*<"
)
HOT_LIBCALL_RE = re.compile(r"\bstd::popcount\b|\b__builtin_popcount(?:ll|l)?\b")
UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)\s*[;={(]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(?:this->)?(\w+)\s*\)")
# A 4+-digit decimal literal (optionally with ' separators), not part of an
# identifier, hex literal, or floating-point number, and not already wrapped
# in a units.hpp helper (ns(2730) is the sanctioned spelling).
MAGIC_INT_RE = re.compile(r"(?<![\w.'])(?<!ns\()(?<!us\()(?<!ms\()\d{4,}(?:'\d+)*(?![\w.'])")
TICK_LINE_RE = re.compile(r"\bTick\b|\bticks\b|_ps\b")
# An integral declaration whose name marks it as tracking credits/occupancy:
# `std::uint32_t wpq_in_use_ = 0;`, `unsigned inflight_;`, or the same
# without the trailing underscore as a field of a component's State struct
# -- but not an accessor (`std::uint32_t read_tor_used() const` has a '('
# after the name).
RAW_CREDIT_RE = re.compile(
    r"\b(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|unsigned(?:\s+(?:int|long))?|int|long)"
    r"\s+(\w*(?:in_use|in_?flight|_used)\w*)\s*(?:=\s*[^;]*)?;"
)
# A variable with this storage class or specifier is a constant, not state.
IMMUTABLE_RE = re.compile(r"\b(?:const|constexpr|constinit)\b")
# Namespace-scope statements that declare no variable.
NOT_A_VARIABLE_RE = re.compile(
    r"\b(?:using|typedef|namespace|class|struct|union|enum|template|friend|static_assert"
    r"|extern|operator|concept|asm|constexpr|constinit|consteval)\b")
FN_QUALS_RE = re.compile(r"(?:\s|\b(?:const|noexcept|override|final)\b|->[^{}]*)*$")
INIT_EQ_RE = re.compile(r"(?<![=!<>+\-*/%&|^])=(?!=)")
PREPROCESSOR_RE = re.compile(r"^[ \t]*#.*(?:\\\n.*)*", re.M)


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure.

    A lightweight scanner (not a real lexer): handles //, /* */, "..." with
    escapes, '...' with escapes, and R"delim(...)delim" raw strings -- enough
    for this codebase. Stripped spans become spaces so column numbers and
    line counts survive.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            span = text[i : j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + 2
        elif c == "R" and text[i : i + 2] == 'R"':
            m = re.match(r'R"([^(]*)\(', text[i:])
            if m is None:
                out.append(c)
                i += 1
                continue
            close = ")" + m.group(1) + '"'
            j = text.find(close, i + m.end())
            j = n - len(close) if j == -1 else j
            span = text[i : j + len(close)]
            out.append("".join(ch if ch == "\n" else " " for ch in span))
            i = j + len(close)
        elif c == '"' or c == "'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + " " * (j - i - 1) + (c if j < n else ""))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def scope_kind(head):
    """Kind of the scope a '{' opens, from the statement text before it."""
    h = head.strip()
    if re.search(r"\benum\b", h):
        return "enum"
    if "(" not in h and re.search(r"\b(?:class|struct|union)\b", h):
        return "class"
    if "(" not in h and re.search(r"(?:\bnamespace\b[\w:\s]*|\bextern\s*\"\s*\")$", h):
        return "namespace"
    return "block"  # function, lambda or control-flow body, or an initializer


def namespace_variable(stmt):
    """Name of the mutable variable a namespace-scope statement declares
    (nested bodies elided to `{}`), or None."""
    s = stmt.strip()
    n = 1
    while n:  # elide parenthesized text (parameter lists, call arguments) to ()
        s, n = re.subn(r"\([^()]*\)", "\0", s)
    s = s.replace("\0", "()")
    if NOT_A_VARIABLE_RE.search(s):
        return None
    eq = INIT_EQ_RE.search(s)
    if eq:
        s = s[:eq.start()]
    s = re.sub(r"(?:\s*\{\})+$", "", s.rstrip())  # a brace initializer
    s = re.sub(r"(?:\s*\[[^\[\]]*\])+$", "", s)  # array bounds
    m = re.search(r"([A-Za-z_]\w*)$", s)
    if s.endswith(")") or not m or not s[:m.start()].strip():
        return None  # a function declaration, a macro call or no declaration
    type_text = s[:m.start()]
    if IMMUTABLE_RE.search(type_text[type_text.rfind("*") + 1:]):
        return None  # `const T x`, `T* const p` (but `const T* p` is mutable)
    return m.group(1)


def check_handler_state(code, report):
    """A brace scan keeps a stack of scope kinds and each scope's pending
    statement text (nested bodies elided to `{}`). A complete statement at
    namespace scope that declares a mutable variable is handler-global-state;
    a mutable `static` / `thread_local` inside a block scope is
    handler-static-state."""
    code = PREPROCESSOR_RE.sub(lambda m: "\n" * m.group(0).count("\n"), code)
    scopes = [["namespace", "", 0]]  # kind, pending statement, its start offset
    blocks = []  # (open, close) offsets of block scopes
    pos = 0
    for m in re.finditer(r"[{};]", code):
        cur = scopes[-1]
        text = code[pos:m.start()]
        if not cur[1].strip() and text.strip():
            cur[2] = pos + len(text) - len(text.lstrip())
        cur[1] += text
        if m.group(0) == "{":
            scopes.append([scope_kind(cur[1]), "", m.end(), m.start()])
        elif m.group(0) == "}":
            if len(scopes) > 1:
                closed = scopes.pop()
                if closed[0] == "block":
                    blocks.append((closed[3], m.start()))
                parent = scopes[-1]
                bare = FN_QUALS_RE.sub("", parent[1]).rstrip()
                if closed[0] == "namespace" or bare.endswith(")"):
                    parent[1] = ""  # a namespace or function body ends its statement
                else:
                    parent[1] += "{}"
        else:
            if cur[0] == "namespace":
                name = namespace_variable(cur[1])
                if name:
                    report(code.count("\n", 0, cur[2]) + 1, "handler-global-state",
                           f"namespace-scope mutable variable '{name}' in a handler "
                           "subsystem; fork/replay would diverge -- make it part of a "
                           "component's State, or const/constexpr")
            cur[1] = ""
        pos = m.end()
    for m in re.finditer(r"\b(?:static|thread_local)\b", code):
        if not any(o < m.start() < c for o, c in blocks):
            continue
        end = code.find(";", m.start())
        decl = code[m.start():end if end != -1 else len(code)]
        if not IMMUTABLE_RE.search(decl):
            report(code.count("\n", 0, m.start()) + 1, "handler-static-state",
                   f"function-local static mutable state ('{' '.join(decl.split())[:60]}') "
                   "in a handler subsystem; fork/replay would diverge -- hoist it into "
                   "the component's State")


def rel(path, root):
    try:
        return os.path.relpath(path, root).replace(os.sep, "/")
    except ValueError:
        return path.replace(os.sep, "/")


class Finding:
    __slots__ = ("path", "line", "check", "message")

    def __init__(self, path, line, check, message):
        self.path = path
        self.line = line
        self.check = check
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def parse_allows(raw_lines):
    """Parse allow() directives out of a file's raw lines.

    Returns (allows, directives, bad): `allows` maps line number -> set of
    check ids suppressed on that line; `directives` lists each directive as
    (directive_line, ids, covered_lines) so --stale can flag the ones that
    no longer suppress anything; `bad` lists (line, unknown_ids) for
    directives naming ids that do not exist, whose known ids still apply.

    A directive suppresses findings on its own line; a directive on an
    otherwise comment-only line also covers the next line.
    """
    allows = {}
    directives = []
    bad = []
    for idx, line in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(line)
        if not m:
            continue
        ids = {s.strip() for s in m.group(1).split(",") if s.strip()}
        unknown = ids - set(CHECKS)
        if unknown:
            bad.append((idx, sorted(unknown)))
            ids -= unknown
            if not ids:
                continue
        covered = {idx}
        if line.split("//")[0].strip() == "":  # comment-only line: covers the next
            covered.add(idx + 1)
        for c in covered:
            allows.setdefault(c, set()).update(ids)
        directives.append((idx, ids, covered))
    return allows, directives, bad


def lint_file(path, display_path, collect_allows=None, stale=False):
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.splitlines()
    allows, directives, bad = parse_allows(raw_lines)
    if collect_allows is not None:
        for dline, ids, _covered in directives:
            collect_allows.append((display_path, dline, sorted(ids)))
    code = strip_comments_and_strings(text)
    code_lines = code.splitlines()

    in_hot_path = any(
        display_path.startswith(d + "/") or ("/" + d + "/") in display_path
        for d in HOT_PATH_DIRS
    )
    in_credit_scope = any(
        display_path.startswith(d + "/") or ("/" + d + "/") in display_path
        for d in CREDIT_POOL_DIRS
    )
    in_handler = any(
        display_path.startswith(d + "/") or ("/" + d + "/") in display_path
        for d in HANDLER_DIRS
    )
    is_header = display_path.endswith((".hpp", ".h"))
    is_units = display_path.endswith("common/units.hpp")
    in_src = display_path.startswith("src/") or "/src/" in display_path

    findings = [
        Finding(display_path, line, "bad-allow",
                f"bad allow() directive: unknown check id(s): {', '.join(ids)}")
        for line, ids in bad
    ]
    suppressed = set()  # (line, check) pairs an allow() actually absorbed

    def report(lineno, check, message):
        if check in allows.get(lineno, set()):
            suppressed.add((lineno, check))
        else:
            findings.append(Finding(display_path, lineno, check, message))

    # -- pragma-once (raw text: it is a preprocessor directive) ---------------
    if is_header and not any("#pragma once" in l for l in raw_lines[:80]):
        report(1, "pragma-once", "header does not contain #pragma once")

    unordered_names = {m.group(1) for m in UNORDERED_DECL_RE.finditer(code)}

    if in_handler:
        check_handler_state(code, report)

    for lineno, line in enumerate(code_lines, start=1):
        m = WALL_CLOCK_RE.search(line)
        if m:
            report(lineno, "wall-clock",
                   f"'{m.group(0).strip()}' reads wall-clock time; results must "
                   "depend only on sim::Simulator::now()")
        m = RAW_RAND_RE.search(line)
        if m:
            report(lineno, "raw-rand",
                   f"'{m.group(0).strip()}' is not seeded from the experiment seed; "
                   "use common/rng.hpp")
        if unordered_names:
            fm = RANGE_FOR_RE.search(line)
            if fm and fm.group(1) in unordered_names:
                report(lineno, "unordered-iter",
                       f"range-for over unordered container '{fm.group(1)}'; "
                       "iteration order is unspecified and must not feed results "
                       "or event ordering")
        if in_hot_path:
            m = HOT_ALLOC_RE.search(line)
            if m:
                report(lineno, "hot-alloc",
                       f"'{m.group(0).rstrip('<').strip()}' is banned in hot-path "
                       "subsystems (allocates per element or per call); use the "
                       "slot arenas / RingBuffer / sim::Event instead")
            m = NEW_EXPR_RE.search(line)
            if m:
                report(lineno, "hot-alloc",
                       f"new-expression '{m.group(0)}' in a hot-path subsystem; "
                       "steady-state paths must not allocate")
            m = HOT_LIBCALL_RE.search(line)
            if m:
                report(lineno, "hot-libcall",
                       f"'{m.group(0)}' is a call into libgcc (__popcountdi2) on "
                       "baseline x86-64; walk the set bits with countr_zero and "
                       "x &= x - 1, or keep a count")
        if in_credit_scope:
            m = RAW_CREDIT_RE.search(line)
            if m:
                report(lineno, "raw-credit-counter",
                       f"'{m.group(1)}' looks like an ad-hoc credit pool; use "
                       "flow::CreditPool (ledger + occupancy telemetry + waiter "
                       "wakeups) or justify with an allow()")
        if in_src and not is_units and TICK_LINE_RE.search(line):
            m = MAGIC_INT_RE.search(line)
            if m:
                report(lineno, "magic-tick",
                       f"magic tick constant {m.group(0)}; name it in "
                       "common/units.hpp or derive it via ns()/us()/ms()")

    if stale:
        for dline, ids, covered in directives:
            if not any((c, i) in suppressed for c in covered for i in ids):
                findings.append(Finding(
                    display_path, dline, "stale-allow",
                    f"allow({', '.join(sorted(ids))}) suppresses nothing; the "
                    "finding it excused is gone -- delete the directive"))
    return findings


def iter_files(paths, root):
    for p in paths:
        ap = os.path.join(root, p) if not os.path.isabs(p) else p
        if os.path.isfile(ap):
            yield ap  # explicit files are always scanned (fixtures rely on this)
        elif os.path.isdir(ap):
            for dirpath, dirnames, filenames in os.walk(ap):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if d not in SKIP_DIR_NAMES and not d.startswith(SKIP_DIR_PREFIXES)
                )
                for fn in sorted(filenames):
                    if fn.endswith(CXX_EXTENSIONS):
                        yield os.path.join(dirpath, fn)
        else:
            raise FileNotFoundError(p)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="hostnet-specific determinism / allocation-discipline lint")
    ap.add_argument("paths", nargs="*",
                    help=f"files or directories to lint (default: {' '.join(DEFAULT_ROOTS)})")
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="repository root used to resolve default paths and hot-path dirs")
    ap.add_argument("--list-checks", action="store_true", help="print check ids and exit")
    ap.add_argument("--list-allows", action="store_true",
                    help="print every allow() suppression in the scanned tree and exit")
    ap.add_argument("--stale", action="store_true",
                    help="also fail on allow() directives that suppress nothing")
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid, desc in CHECKS.items():
            print(f"{cid:<16} {desc}")
        return 0

    root = os.path.abspath(args.root)
    paths = args.paths or [p for p in DEFAULT_ROOTS if os.path.isdir(os.path.join(root, p))]
    try:
        files = sorted(set(iter_files(paths, root)))
    except FileNotFoundError as e:
        print(f"hostnet-lint: no such file or directory: {e}", file=sys.stderr)
        return 2

    all_findings = []
    allow_list = [] if args.list_allows else None
    for f in files:
        all_findings.extend(
            lint_file(f, rel(f, root), collect_allows=allow_list, stale=args.stale))

    if args.list_allows:
        for path, lineno, ids in allow_list:
            print(f"{path}:{lineno}: allow({', '.join(ids)})")
        print(f"{len(allow_list)} suppression(s) in {len(files)} file(s)")
        return 0

    for finding in all_findings:
        print(finding)
    if all_findings:
        print(f"\nhostnet-lint: {len(all_findings)} finding(s) in {len(files)} file(s); "
              "fix them or suppress with '// hostnet-lint: allow(<check>)' plus a "
              "justification", file=sys.stderr)
        return 1
    print(f"hostnet-lint: OK ({len(files)} file(s) clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
