#!/usr/bin/env python3
"""hostnet-audit: whole-program model auditor for the hostnet simulator.

hostnet_lint.py answers "does this line look wrong?"; hostnet_audit.py
answers three *whole-program* questions that line-oriented lint cannot
(DESIGN.md section 4g):

  1. snapshot state -- every class carrying a HOSTNET_SNAPSHOT_COVERS
     descriptor keeps all of its mutable state in one `State st_` member,
     which save_state()/load_state() copy whole (DESIGN.md 4e). Every other
     non-static data member must be
       * `const` (construction config, derived constants),
       * a reference (construction wiring), or
       * an owned checkpointed child: a HOSTNET_SNAPSHOT_COVERS class held
         by value, by std::unique_ptr or in a std::vector of them (its owner
         saves and restores it through its own save_state/load_state).
     A mutable member anywhere else would silently escape checkpointing.
     Deliberate exceptions are annotated in place; an allow() on the class
     head exempts the whole class:

         // hostnet-audit: allow(snapshot-state, why)

  2. pool registration -- every `flow::CreditPool` held by value (directly
     or inside a nested `State`) must surface to the host-wide
     `flow::DomainRegistry`: the member (or an accessor returning it) must
     appear in a `registry.add(...)` / `registry.add_interior(...)` call
     somewhere in the scanned tree. An unregistered pool is invisible to
     `DomainRegistry::observe`, the predictor's spec table and the fleet
     aggregates. Deliberate exceptions:

         // hostnet-audit: allow(pool-unregistered, why)

  3. handler purity -- code in the event-handler subsystems
     (src/{sim,cpu,cha,iio,mc,net}) may not hold function-local `static`
     mutable state or namespace-scope mutable variables: fork/replay runs
     the same handler from the same snapshot twice and hidden state makes
     the replays diverge. `const`/`constexpr` data is fine.

Parsing is the same lightweight-scanner approach as hostnet_lint.py: no
libclang, stdlib only. Comments/strings are blanked, preprocessor lines
are blanked (so `#ifdef HOSTNET_CHECKED` members are audited in every
configuration), and a brace scanner builds a namespace/class/block scope
tree.

Checks (ids are stable; use them in suppressions):

  snapshot-state          mutable data member of a HOSTNET_SNAPSHOT_COVERS
                          class outside its State
  pool-unregistered       by-value flow::CreditPool member never registered
                          in a DomainRegistry
  handler-static-state    function-local static mutable state in a handler
                          subsystem
  handler-global-state    namespace-scope mutable variable in a handler
                          subsystem
  stale-allow             an allow() that no longer suppresses anything
  bad-directive           malformed allow() (missing reason, unknown or
                          non-allowable check id) or an unknown directive

Usage:
    tools/hostnet_audit.py                   # audit src/
    tools/hostnet_audit.py path...           # audit specific files/dirs
    tools/hostnet_audit.py --json            # machine-readable report
    tools/hostnet_audit.py --list-checks

Exit status: 0 = clean, 1 = findings, 2 = usage error.
"""

import argparse
import bisect
import json
import os
import re
import sys

# One scanner, file walk and finding format for both tools.
from hostnet_lint import Finding, iter_files, rel, strip_comments_and_strings

DEFAULT_ROOTS = ("src",)

# Event-handler subsystems with the fork/replay purity contract.
HANDLER_DIRS = ("src/sim", "src/cpu", "src/cha", "src/iio", "src/mc", "src/net")
# src/flow owns the pool/registry implementation itself.
POOL_EXEMPT_DIRS = ("src/flow",)

STATE_MEMBER = "st_"

CHECKS = {
    "snapshot-state": "mutable data member of a checkpointed class outside its State",
    "pool-unregistered": "by-value flow::CreditPool never registered in a DomainRegistry",
    "handler-static-state": "function-local static mutable state in a handler subsystem",
    "handler-global-state": "namespace-scope mutable variable in a handler subsystem",
    "stale-allow": "allow() directive that suppresses nothing",
    "bad-directive": "malformed hostnet-audit directive",
}

# Checks that accept an `// hostnet-audit: allow(<check>, reason)` on the
# finding line (or alone on the line above).
ALLOWABLE = {"snapshot-state", "pool-unregistered", "handler-static-state",
             "handler-global-state"}

ALLOW_RE = re.compile(r"hostnet-audit:\s*allow\(\s*([\w-]+)\s*(?:,\s*([^)]*))?\)")
DIRECTIVE_RE = re.compile(r"hostnet-audit:\s*(\w+)")


def blank_preprocessor(code):
    """Blank preprocessor lines (including \\-continuations).

    Conditional members (`#ifdef HOSTNET_CHECKED ... #endif`) stay visible to
    the audit in every configuration; include guards and macro definitions
    stop confusing the scope scanner.
    """
    out = []
    cont = False
    for line in code.split("\n"):
        if cont or line.lstrip().startswith("#"):
            cont = line.rstrip().endswith("\\")
            out.append(" " * len(line))
        else:
            cont = False
            out.append(line)
    return "\n".join(out)


class Scope:
    __slots__ = ("kind", "name", "head_start", "open_pos", "close_pos", "children")

    def __init__(self, kind, name, head_start, open_pos, close_pos):
        self.kind = kind          # top | namespace | class | enum | block
        self.name = name
        self.head_start = head_start
        self.open_pos = open_pos
        self.close_pos = close_pos
        self.children = []


def classify_head(head):
    """Classify the text between the previous statement boundary and a '{'."""
    h = head.strip()
    if re.search(r"\benum\b", h):
        return "enum", None
    m = None
    for cm in re.finditer(r"\b(?:class|struct|union)\s+([A-Za-z_]\w*)?", h):
        m = cm
    if m is not None and "(" not in h:
        return "class", m.group(1)
    if "(" not in h and re.search(r"\bnamespace(\s+[\w:]+)?\s*$", h):
        nm = re.search(r"\bnamespace\s+([\w:]+)\s*$", h)
        return "namespace", nm.group(1) if nm else None
    return "block", None


def build_scopes(code):
    """Single pass over braces -> scope tree."""
    root = Scope("top", None, 0, -1, len(code))
    stack = [root]
    last_boundary = 0
    for m in re.finditer(r"[{};]", code):
        ch, pos = m.group(0), m.start()
        if ch == "{":
            kind, name = classify_head(code[last_boundary:pos])
            sc = Scope(kind, name, last_boundary, pos, len(code))
            stack[-1].children.append(sc)
            stack.append(sc)
        elif ch == "}":
            if len(stack) > 1:
                stack[-1].close_pos = pos
                stack.pop()
        last_boundary = pos + 1
    return root


def innermost_scope(root, pos):
    sc = root
    while True:
        nxt = next((c for c in sc.children if c.open_pos < pos <= c.close_pos), None)
        if nxt is None:
            return sc
        sc = nxt


def direct_statements(code, scope):
    """(start_pos, text) of the scope's own statements, child scopes elided
    to `{}` so nested bodies/initializers never leak into the split. A
    function body ends its statement (no `;` follows it), so the next
    declaration starts, and is located, on its own."""
    stmts = []
    buf, cur_start = [], None
    i = scope.open_pos + 1
    children = scope.children
    ci = 0
    while i < scope.close_pos:
        if ci < len(children) and i == children[ci].open_pos:
            fn_body = FN_QUALS_RE.sub("", "".join(buf)).rstrip().endswith(")")
            buf.append("{}")
            i = children[ci].close_pos + 1
            ci += 1
            if fn_body:
                stmts.append((cur_start, "".join(buf)))
                buf, cur_start = [], None
            continue
        c = code[i]
        if c == ";":
            text = "".join(buf)
            if text.strip():
                stmts.append((cur_start if cur_start is not None else i, text))
            buf, cur_start = [], None
        else:
            if cur_start is None and not c.isspace():
                cur_start = i
            buf.append(c)
            if c == ":" and ACCESS_RE.fullmatch("".join(buf).strip()):
                buf, cur_start = [], None  # `private:` starts no statement
        i += 1
    text = "".join(buf)
    if text.strip():
        stmts.append((cur_start, text))
    return stmts


def elide_parens(s):
    out, depth = [], 0
    for c in s:
        if c == "(":
            depth += 1
            if depth == 1:
                out.append("(")
        elif c == ")":
            if depth > 0:
                depth -= 1
                if depth == 0:
                    out.append(")")
            else:
                out.append(")")
        elif depth == 0:
            out.append(c)
    return "".join(out)


def strip_angles(s):
    prev = None
    while prev != s:
        prev = s
        s = re.sub(r"<[^<>]*>", "", s)
    return s


def find_init_eq(s):
    """Index of the first initializer '=' (not ==, <=, +=, ...), else None."""
    for i, c in enumerate(s):
        if c != "=":
            continue
        prev = s[i - 1] if i else ""
        nxt = s[i + 1] if i + 1 < len(s) else ""
        if prev in "=!<>+-*/%&|^" or nxt == "=":
            continue
        return i
    return None


ACCESS_RE = re.compile(r"\b(?:public|private|protected)\s*:")
NON_MEMBER_KW_RE = re.compile(
    r"\b(?:using|typedef|friend|static_assert|template|operator|requires|concept"
    r"|namespace|extern|asm)\b")
FN_QUALS_RE = re.compile(r"(?:\b(?:const|noexcept|override|final)\b\s*|->\s*[\w:<>&*\s]+\s*)+$")


def _decl_tail_name(s):
    """Name of a variable declaration statement (parens already elided), or
    None if the statement is a function/type/alias/... instead."""
    cut = find_init_eq(s)
    if cut is not None:
        s = s[:cut]
    s = s.rstrip()
    while s.endswith("{}"):
        s = s[:-2].rstrip()
        bare = FN_QUALS_RE.sub("", s).rstrip()
        if bare.endswith(")"):
            return None  # function definition (body elided to {})
        if re.search(r"\b(?:class|struct|union|enum)\s+[A-Za-z_]\w*\s*(?::[^{}]*)?$", s):
            return None  # nested type definition (body elided to {})
    # Inline function/type bodies end at `}` with no `;`, so the statement
    # split gloms them onto the next declaration. Only the text after the
    # last elided body is this declaration; anything before it (and its
    # `&`/`*`/qualifiers) belongs to the earlier definitions.
    last = s.rfind("{}")
    if last != -1:
        s = s[last + 2:]
        if not s.strip():
            return None
    s = FN_QUALS_RE.sub("", s).rstrip()
    if s.endswith(")"):
        return None  # function declaration (or unsupported fn-pointer decl)
    while re.search(r"\[[^\[\]]*\]$", s):
        s = re.sub(r"\s*\[[^\[\]]*\]$", "", s)
        s = s.rstrip()
    m = re.search(r"([A-Za-z_]\w*)$", s)
    if not m or not s[: m.start()].strip():
        return None
    return m.group(1), s[: m.start()]


def parse_member(stmt):
    """Parse one class-body statement into a member record, or None."""
    s = elide_parens(stmt).strip()
    if not s or NON_MEMBER_KW_RE.search(s):
        return None
    if re.match(r"(?:class|struct|union|enum)\b", s):
        return None
    got = _decl_tail_name(s)
    if got is None:
        return None
    name, pre = got
    if re.search(r"\b(?:static|constexpr|constinit)\b", pre):
        return None  # class-level constants, not instance state
    flat = strip_angles(pre)
    is_ref = "&" in flat
    # `const T x_` and `T* const p_` are immutable; `const T* p_` is not.
    is_const = re.search(r"\bconst\b", flat[flat.rfind("*") + 1:]) is not None
    is_pool = bool(re.search(r"\bCreditPool\b(?!\s*::)", pre)
                   and not is_ref and "*" not in flat)
    return {"name": name, "type": pre, "is_ref": is_ref, "is_const": is_const,
            "is_pool": is_pool}


def owned_child(type_text, covered):
    """Is the member type an owned checkpointed component: `T`,
    `std::unique_ptr<T>` or `std::vector<std::unique_ptr<T>>` (any of them
    namespace-qualified) for a HOSTNET_SNAPSHOT_COVERS class T?"""
    t = re.sub(r"\s+", "", re.sub(r"\b[A-Za-z_]\w*\s*::", "", type_text))
    m = re.fullmatch(r"(?:vector<)?(?:unique_ptr<)?([A-Za-z_]\w*)>*", t)
    return m is not None and m.group(1) in covered and t.count("<") == t.count(">")


COVERS_RE = re.compile(r"\bHOSTNET_SNAPSHOT_COVERS\s*\(\s*([A-Za-z_]\w*)\s*\)")
# `flow::CreditPool& pool() { return pool_; }` or `... { return st_.pool; }`:
# group 1 is the accessor, group 2 the pool member it returns.
ACCESSOR_RE = re.compile(
    r"CreditPool\s*&\s*([A-Za-z_]\w*)\s*\(\s*\)[^{};]*\{\s*return\s+"
    r"(?:[A-Za-z_]\w*\s*\.\s*)*([A-Za-z_]\w*)\s*;")
REG_CALL_RE = re.compile(r"\badd(?:_interior)?\s*\(")
REG_RECEIVER_RE = re.compile(r"(?:registr\w*|domains)\s*(?:\(\s*\))?\s*(?:\.|->)\s*$")
STATIC_RE = re.compile(r"\b(?:static|thread_local)\b")


def balanced_args(code, open_pos):
    """Text inside the parens starting at code[open_pos] == '('."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return code[open_pos + 1 : i]
    return code[open_pos + 1 :]




class FileModel:
    """Parsed view of one file: scopes, classes, directives, purity events."""

    def __init__(self, path, display_path):
        self.path = path
        self.display = display_path
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
        self.raw_lines = text.splitlines()
        self.code = blank_preprocessor(strip_comments_and_strings(text))
        self.nl = [i for i, c in enumerate(self.code) if c == "\n"]
        self.root = build_scopes(self.code)
        self.covers = set(COVERS_RE.findall(self.code))
        self.classes = []       # class records (dicts)
        self.allows = {}        # line -> [(check, reason, directive_line)]
        self.directive_errors = []  # (line, message)
        self._parse_directives()
        self._parse_classes()

    def line_of(self, pos):
        return bisect.bisect_right(self.nl, pos) + 1

    # -- directives -----------------------------------------------------------
    def _parse_directives(self):
        for idx, line in enumerate(self.raw_lines, start=1):
            dm = DIRECTIVE_RE.search(line)
            if not dm:
                continue
            am = ALLOW_RE.search(line)
            if am is None:
                self.directive_errors.append(
                    (idx, f"unrecognized hostnet-audit directive '{dm.group(1)}'; "
                          "expected allow(check, reason)"))
                continue
            check, reason = am.group(1), (am.group(2) or "").strip()
            if check not in CHECKS:
                self.directive_errors.append(
                    (idx, f"allow() names unknown check id '{check}'"))
            elif check not in ALLOWABLE:
                self.directive_errors.append(
                    (idx, f"'{check}' findings cannot be allow()ed; fix the code"))
            elif not reason:
                self.directive_errors.append(
                    (idx, f"allow({check}) has no reason; write allow({check}, why)"))
            else:
                entry = (check, reason, idx)
                self.allows.setdefault(idx, []).append(entry)
                if line.split("//")[0].strip() == "":
                    self.allows.setdefault(idx + 1, []).append(entry)

    # -- classes + members ----------------------------------------------------
    def _parse_classes(self):
        def walk(scope, path, outer):
            for child in scope.children:
                if child.kind == "class":
                    qual = path + [child.name or "<anon>"]
                    self.classes.append(self._class_record(child, qual, outer or child))
                    walk(child, qual, outer or child)
                elif child.kind in ("namespace", "top", "block"):
                    walk(child, path, outer)
        walk(self.root, [], None)

    def _class_record(self, scope, qual, outer):
        members = []
        for spos, stmt in direct_statements(self.code, scope):
            got = parse_member(stmt)
            if got:
                got["line"] = self.line_of(spos)
                members.append(got)
        # Accessors live in the outermost enclosing class, so a pool inside a
        # nested State is matched to `CreditPool& pool() { return st_.pool; }`.
        accessors = {}
        for m in ACCESSOR_RE.finditer(self.code, outer.open_pos, outer.close_pos):
            accessors.setdefault(m.group(2), set()).add(m.group(1))
        head = self.code[scope.head_start:scope.open_pos]
        kw = list(re.finditer(r"\b(?:class|struct|union)\b", head))
        head_pos = scope.head_start + kw[-1].start() if kw else scope.open_pos
        return {
            "name": qual[-1],
            "qual": "::".join(qual),
            "line": self.line_of(head_pos),
            "members": members,
            "accessors": accessors,
        }

    # -- purity events --------------------------------------------------------
    def local_statics(self):
        for m in STATIC_RE.finditer(self.code):
            sc = innermost_scope(self.root, m.start() + 1)
            if sc.kind != "block":
                continue
            stop = self.code.find(";", m.start())
            decl = self.code[m.start(): stop if stop != -1 else m.start() + 160]
            if re.search(r"\b(?:const|constexpr|constinit)\b", decl):
                continue
            yield self.line_of(m.start()), decl.split("\n")[0].strip()

    def namespace_vars(self):
        def walk(scope):
            if scope.kind in ("top", "namespace"):
                for spos, stmt in direct_statements(self.code, scope):
                    name = self._global_var(stmt)
                    if name:
                        yield self.line_of(spos), name
            for child in scope.children:
                if child.kind in ("namespace", "top"):
                    yield from walk(child)
        yield from walk(self.root)

    @staticmethod
    def _global_var(stmt):
        s = elide_parens(stmt).strip()
        if not s:
            return None
        if re.search(r"\b(?:using|typedef|namespace|class|struct|union|enum|template"
                     r"|friend|static_assert|extern|operator|concept|asm)\b", s):
            return None
        if re.search(r"\b(?:constexpr|constinit|consteval)\b", s):
            return None
        if re.match(r"(?:inline\s+|static\s+|thread_local\s+)*const\b", s):
            return None
        got = _decl_tail_name(s)
        if got is None:
            return None
        return got[0]

    def registered_ids(self):
        ids = set()
        for m in REG_CALL_RE.finditer(self.code):
            ctx = self.code[max(0, m.start() - 64): m.start()]
            if not REG_RECEIVER_RE.search(ctx):
                continue
            open_pos = self.code.find("(", m.start())
            ids.update(re.findall(r"[A-Za-z_]\w*", balanced_args(self.code, open_pos)))
        return ids


def path_in(display_path, dirs):
    return any(display_path.startswith(d + "/") or ("/" + d + "/") in display_path
               for d in dirs)


class Auditor:
    def __init__(self):
        self.models = []
        self.findings = []
        self.used_allows = set()   # (file display, directive line, check)

    def add_file(self, path, display):
        self.models.append(FileModel(path, display))

    def allowed(self, model, line, check):
        for (c, _reason, directive_line) in model.allows.get(line, []):
            if c == check:
                self.used_allows.add((model.display, directive_line, check))
                return True
        return False

    def report(self, model, line, check, message):
        if not self.allowed(model, line, check):
            self.findings.append(Finding(model.display, line, check, message))

    # -- checks ---------------------------------------------------------------
    def run(self):
        """Run every check; returns the audited (covered) class names."""
        for model in self.models:
            for (line, msg) in model.directive_errors:
                self.report(model, line, "bad-directive", msg)
        covered, registered = set(), set()
        for model in self.models:
            covered |= model.covers
            registered |= model.registered_ids()
        audited = []
        for model in self.models:
            for cls in model.classes:
                if cls["name"] in model.covers:
                    audited.append(cls["qual"])
                    self._audit_state(model, cls, covered)
            self._audit_pools(model, registered)
            if path_in(model.display, HANDLER_DIRS):
                self._audit_purity(model)
        self._audit_stale_allows()
        self.findings.sort(key=lambda f: (f.path, f.line, f.check))
        return audited

    def _audit_state(self, model, cls, covered):
        if self.allowed(model, cls["line"], "snapshot-state"):
            return  # the whole class is an audited exception
        for m in cls["members"]:
            if m["name"] == STATE_MEMBER or m["is_ref"] or m["is_const"] \
                    or owned_child(m["type"], covered):
                continue
            self.report(model, m["line"], "snapshot-state",
                        f"'{cls['qual']}::{m['name']}' is mutable state outside "
                        f"'{STATE_MEMBER}', so checkpoint/fork would silently drop "
                        "it: move it into the class's State, make it const "
                        "(construction config), a reference (wiring) or an owned "
                        "checkpointed child")

    def _audit_pools(self, model, registered):
        if path_in(model.display, POOL_EXEMPT_DIRS):
            return
        for cls in model.classes:
            for m in cls["members"]:
                if not m["is_pool"]:
                    continue
                names = {m["name"]} | cls["accessors"].get(m["name"], set())
                if names & registered:
                    continue
                self.report(model, m["line"], "pool-unregistered",
                            f"'{cls['qual']}::{m['name']}' is a flow::CreditPool "
                            "that never reaches a DomainRegistry add()/"
                            "add_interior() call; register it (DESIGN.md 4d) or "
                            "annotate '// hostnet-audit: allow(pool-unregistered, "
                            "why)'")

    def _audit_purity(self, model):
        for line, decl in model.local_statics():
            self.report(model, line, "handler-static-state",
                        f"function-local static mutable state ('{decl[:60]}') in "
                        "a handler subsystem; fork/replay would diverge -- hoist "
                        "it into the component's State")
        for line, name in model.namespace_vars():
            self.report(model, line, "handler-global-state",
                        f"namespace-scope mutable variable '{name}' in a handler "
                        "subsystem; fork/replay would diverge -- make it part of "
                        "a component's State or const/constexpr")

    def _audit_stale_allows(self):
        for model in self.models:
            seen = set()
            for entries in model.allows.values():
                for (check, _reason, directive_line) in entries:
                    key = (model.display, directive_line, check)
                    if key in seen:
                        continue
                    seen.add(key)
                    if key not in self.used_allows:
                        self.findings.append(Finding(
                            model.display, directive_line, "stale-allow",
                            f"allow({check}) no longer suppresses any finding; "
                            "delete the stale directive"))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="snapshot-state/pool/purity auditor for hostnet")
    ap.add_argument("paths", nargs="*",
                    help=f"files or directories to audit (default: {' '.join(DEFAULT_ROOTS)})")
    ap.add_argument("--root",
                    default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="repository root used to resolve default and relative paths")
    ap.add_argument("--json", action="store_true",
                    help="emit a machine-readable JSON report on stdout")
    ap.add_argument("--list-checks", action="store_true",
                    help="print check ids and exit")
    args = ap.parse_args(argv)

    if args.list_checks:
        for cid, desc in CHECKS.items():
            print(f"{cid:<24} {desc}")
        return 0

    root = os.path.abspath(args.root)
    paths = args.paths or [p for p in DEFAULT_ROOTS
                           if os.path.isdir(os.path.join(root, p))]
    try:
        files = sorted(set(iter_files(paths, root)))
    except FileNotFoundError as e:
        print(f"hostnet-audit: no such file or directory: {e}", file=sys.stderr)
        return 2

    auditor = Auditor()
    for f in files:
        auditor.add_file(f, rel(f, root))
    audited = auditor.run()

    if args.json:
        print(json.dumps({
            "files": len(files),
            "classes": sorted(audited),
            "findings": [
                {"path": f.path, "line": f.line, "check": f.check,
                 "message": f.message}
                for f in auditor.findings
            ],
            "ok": not auditor.findings,
        }, indent=2))
        return 1 if auditor.findings else 0

    for finding in auditor.findings:
        print(finding)
    if auditor.findings:
        print(f"\nhostnet-audit: {len(auditor.findings)} finding(s) in "
              f"{len(files)} file(s); fix them or allow(check, reason) audited "
              "exceptions", file=sys.stderr)
        return 1
    print(f"hostnet-audit: OK ({len(files)} file(s), "
          f"{len(audited)} checkpointed class(es))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
