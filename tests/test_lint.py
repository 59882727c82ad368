#!/usr/bin/env python3
"""Fixture tests for tools/hostnet_lint.py.

Each check has a deliberately-bad snippet (must produce findings with the
right check id) and a clean snippet (must produce none) under
tests/lint_fixtures/. The fixtures directory is skipped by tree-wide walks
-- only explicit file arguments reach it -- so the bad snippets never fail
the repo gate that scripts/ci_static_analysis.sh runs.

Run directly (`python3 tests/test_lint.py`) or via ctest (hostnet_lint_fixtures).
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO, "tools", "hostnet_lint.py")
FIXTURES = os.path.join(REPO, "tests", "lint_fixtures")


def run_lint(*args):
    return subprocess.run(
        [sys.executable, LINT, "--root", REPO, *args],
        capture_output=True, text=True, cwd=REPO)


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


class BadFixtures(unittest.TestCase):
    """Every bad fixture must fail with findings of the expected check."""

    def assert_findings(self, path, check, expect_count):
        res = run_lint(path)
        self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
        hits = [l for l in res.stdout.splitlines() if f"[{check}]" in l]
        self.assertEqual(len(hits), expect_count,
                         msg=f"expected {expect_count} [{check}] findings, got:\n"
                             f"{res.stdout}")

    def test_wall_clock(self):
        self.assert_findings(fixture("bad_wall_clock.cpp"), "wall-clock", 3)

    def test_raw_rand(self):
        self.assert_findings(fixture("bad_raw_rand.cpp"), "raw-rand", 3)

    def test_unordered_iter(self):
        self.assert_findings(fixture("bad_unordered_iter.cpp"), "unordered-iter", 1)

    def test_hot_alloc(self):
        # deque, function, map, and a new-expression: four findings.
        self.assert_findings(fixture("src", "sim", "bad_hot_alloc.cpp"), "hot-alloc", 4)

    def test_hot_alloc_covers_fleet(self):
        # src/fleet joined the hot-path set with the fleet runner: function,
        # unordered_map, and a new-expression: three findings.
        self.assert_findings(fixture("src", "fleet", "bad_hot_alloc.cpp"), "hot-alloc", 3)

    def test_hot_alloc_covers_flow(self):
        # src/flow joined the hot-path set (CreditPool wait/notify): function,
        # deque, list, and a new-expression: four findings.
        self.assert_findings(fixture("src", "flow", "bad_hot_alloc.cpp"), "hot-alloc", 4)

    def test_hot_alloc_covers_net(self):
        # src/net joined the hot-path set (NIC/TCP per-packet pumps): deque,
        # map, unordered_map, and a new-expression: four findings.
        self.assert_findings(fixture("src", "net", "bad_hot_alloc.cpp"), "hot-alloc", 4)

    def test_hot_libcall(self):
        # std::popcount, __builtin_popcount and __builtin_popcountll under
        # src/mc: three findings.
        self.assert_findings(fixture("src", "mc", "bad_hot_libcall.cpp"), "hot-libcall", 3)

    def test_stale_allow(self):
        # The directive suppresses nothing; only --stale reports it.
        res = run_lint("--stale", fixture("bad_stale_allow.cpp"))
        self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
        self.assertIn("[stale-allow]", res.stdout)

    def test_pragma_once(self):
        self.assert_findings(fixture("bad_pragma_once.hpp"), "pragma-once", 1)

    def test_magic_tick(self):
        self.assert_findings(fixture("src", "sim", "bad_magic_tick.cpp"), "magic-tick", 2)

    def test_raw_credit_counter(self):
        # *_in_use_, *inflight_, *_used_ and a bare State field: four findings.
        self.assert_findings(fixture("src", "cpu", "bad_raw_credit.cpp"),
                             "raw-credit-counter", 4)

    def test_handler_global_state(self):
        # A mutable counter and a mutable pointer to const at namespace
        # scope, under src/sim: two findings.
        self.assert_findings(fixture("src", "sim", "bad_handler_state.cpp"),
                             "handler-global-state", 2)

    def test_handler_static_state(self):
        # A function-local static and a member function's thread_local: two
        # findings.
        self.assert_findings(fixture("src", "sim", "bad_handler_state.cpp"),
                             "handler-static-state", 2)

    def test_unknown_allow_id_is_an_error(self):
        # The bad directive is reported under its own id at its own line, and
        # the rest of the file is still linted: line 5's rand() (which the
        # typo did not suppress) is a finding too.
        res = run_lint(fixture("bad_allow_id.cpp"))
        self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
        self.assertIn("bad_allow_id.cpp:5: [bad-allow] bad allow() directive", res.stdout)
        self.assertIn("no-such-check", res.stdout)
        self.assertIn("bad_allow_id.cpp:5: [raw-rand]", res.stdout)


class CleanFixtures(unittest.TestCase):
    """Every clean fixture must pass: no false positives."""

    CLEAN = [
        ("clean_wall_clock.cpp",),
        ("clean_raw_rand.cpp",),
        ("clean_unordered_iter.cpp",),
        ("src", "sim", "clean_hot_alloc.cpp"),
        ("src", "fleet", "clean_hot_alloc.cpp"),
        ("src", "flow", "clean_hot_alloc.cpp"),
        ("src", "net", "clean_hot_alloc.cpp"),
        ("src", "mc", "clean_hot_libcall.cpp"),
        ("clean_pragma_once.hpp",),
        ("src", "sim", "clean_magic_tick.cpp"),
        ("src", "cpu", "clean_raw_credit.cpp"),
        # const/constexpr globals and statics, static member functions.
        ("src", "sim", "clean_handler_state.cpp"),
    ]

    def test_clean_fixtures(self):
        for parts in self.CLEAN:
            with self.subTest(fixture=os.path.join(*parts)):
                res = run_lint(fixture(*parts))
                self.assertEqual(res.returncode, 0,
                                 msg=res.stdout + res.stderr)

    def test_raw_credit_outside_credit_scope_is_fine(self):
        # The same declarations are legal outside src/{cpu,cha,iio,mc,net}:
        # the bad fixture's counters under a plain tests/ path lint clean.
        res = run_lint(fixture("bad_unordered_iter.cpp"))
        self.assertNotIn("[raw-credit-counter]", res.stdout)

    def test_hot_alloc_outside_hot_path_is_fine(self):
        # The same constructs that fail under src/sim are legal elsewhere:
        # the bad_unordered_iter fixture declares an unordered_map (a banned
        # hot-path type) but lives under tests/, so no hot-alloc finding.
        res = run_lint(fixture("bad_unordered_iter.cpp"))
        self.assertNotIn("[hot-alloc]", res.stdout)

    def test_hot_libcall_outside_hot_path_is_fine(self):
        # Bit counting off the hot path (setup, reports, tests) is legal: a
        # copy of the bad fixture under a plain path has no hot-libcall.
        with tempfile.TemporaryDirectory() as tmp:
            copy = os.path.join(tmp, "hot_libcall.cpp")
            shutil.copy(fixture("src", "mc", "bad_hot_libcall.cpp"), copy)
            res = run_lint(copy)
        self.assertNotIn("[hot-libcall]", res.stdout)
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)

    def test_handler_state_outside_handler_dirs_is_fine(self):
        # The same mutable globals and statics are legal outside
        # src/{sim,cpu,cha,iio,mc,net}: a copy of the bad fixture under a
        # plain path lints clean.
        with tempfile.TemporaryDirectory() as tmp:
            copy = os.path.join(tmp, "handler_state.cpp")
            shutil.copy(fixture("src", "sim", "bad_handler_state.cpp"), copy)
            res = run_lint(copy)
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)

    def test_live_allows_are_not_stale(self):
        # A justified allow() that really suppresses a finding stays silent
        # under --stale.
        res = run_lint("--stale", fixture("src", "sim", "clean_hot_alloc.cpp"))
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)


class ToolInterface(unittest.TestCase):
    def test_list_checks(self):
        res = run_lint("--list-checks")
        self.assertEqual(res.returncode, 0)
        for check in ("wall-clock", "raw-rand", "unordered-iter", "hot-alloc",
                      "hot-libcall", "pragma-once", "magic-tick", "raw-credit-counter",
                      "handler-static-state", "handler-global-state", "stale-allow",
                      "bad-allow"):
            self.assertIn(check, res.stdout)

    def test_list_allows_counts_suppressions(self):
        res = run_lint("--list-allows", fixture("src", "sim", "clean_hot_alloc.cpp"))
        self.assertEqual(res.returncode, 0)
        self.assertIn("allow(hot-alloc)", res.stdout)

    def test_missing_path_is_usage_error(self):
        res = run_lint("definitely/not/a/path.cpp")
        self.assertEqual(res.returncode, 2)

    def test_tree_walk_skips_fixture_corpus(self):
        # A default tree-wide run must stay clean even though the fixture
        # corpus is full of deliberate violations.
        res = run_lint()
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)

    def test_tree_has_no_stale_allows(self):
        # Every suppression in the real tree must still be earning its keep.
        res = run_lint("--stale")
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)


if __name__ == "__main__":
    unittest.main()
