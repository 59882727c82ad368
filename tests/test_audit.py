#!/usr/bin/env python3
"""Fixture tests for tools/hostnet_audit.py.

Each check has a deliberately-bad snippet (must produce findings with the
right check id) and the clean/edge snippets must produce none, under
tests/audit_fixtures/. The fixtures directory is skipped by tree-wide walks
-- only explicit file arguments reach it -- so the bad snippets never fail
the repo gate that scripts/ci_static_analysis.sh runs.

Run directly (`python3 tests/test_audit.py`) or via ctest
(hostnet_audit_fixtures).
"""

import json
import os
import subprocess
import sys
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
AUDIT = os.path.join(REPO, "tools", "hostnet_audit.py")
FIXTURES = os.path.join(REPO, "tests", "audit_fixtures")


def run_audit(*args):
    return subprocess.run(
        [sys.executable, AUDIT, "--root", REPO, *args],
        capture_output=True, text=True, cwd=REPO)


def fixture(*parts):
    return os.path.join(FIXTURES, *parts)


class BadFixtures(unittest.TestCase):
    """Every seeded violation must be detected with the right check id."""

    def assert_findings(self, path, expected):
        """expected: {check id: count}; no other checks may fire."""
        res = run_audit(path)
        self.assertEqual(res.returncode, 1, msg=res.stdout + res.stderr)
        for check, count in expected.items():
            hits = [l for l in res.stdout.splitlines() if f"[{check}]" in l]
            self.assertEqual(len(hits), count,
                             msg=f"expected {count} [{check}] findings, got:\n"
                                 f"{res.stdout}")
        fired = [l for l in res.stdout.splitlines() if "[" in l]
        self.assertEqual(len(fired), sum(expected.values()),
                         msg=f"unexpected extra findings:\n{res.stdout}")

    def test_state_outside_state_struct(self):
        # A plain counter, a pointer to const and a borrowed raw pointer to a
        # checkpointed class, all outside `State st_`: three findings.
        self.assert_findings(fixture("bad_state_outside.cpp"),
                             {"snapshot-state": 3})

    def test_unregistered_pool_inside_state(self):
        # The pool is a field of the component's State; its accessor returns
        # st_.txq, and nothing registers either name.
        self.assert_findings(fixture("bad_unregistered_pool.cpp"),
                             {"pool-unregistered": 1})

    def test_malformed_directives(self):
        # allow() without a reason, allow() of a non-allowable check, and a
        # directive that is not allow().
        self.assert_findings(fixture("bad_directive.cpp"),
                             {"bad-directive": 3})

    def test_stale_allow(self):
        self.assert_findings(fixture("bad_stale_allow.cpp"),
                             {"stale-allow": 1})

    def test_handler_purity(self):
        # The src/sim path component puts the fixture in a handler subsystem.
        self.assert_findings(fixture("src", "sim", "bad_handler_static.cpp"),
                             {"handler-static-state": 1,
                              "handler-global-state": 1})


class CleanFixtures(unittest.TestCase):
    """Clean and parser-edge-case fixtures must produce no findings."""

    CLEAN = [
        "clean_snapshot.cpp",
        "clean_class_allow.cpp",
        "edge_nested_classes.cpp",
        "edge_template_members.cpp",
        "edge_multiline_members.cpp",
        "edge_ifdef_fields.cpp",
    ]

    def test_clean_fixtures(self):
        for name in self.CLEAN:
            with self.subTest(fixture=name):
                res = run_audit(fixture(name))
                self.assertEqual(res.returncode, 0,
                                 msg=res.stdout + res.stderr)

    def test_handler_state_outside_handler_dirs_is_fine(self):
        # The same constructs are legal outside src/{sim,cpu,cha,iio,mc,net}:
        # copy the handler fixture's content under a plain fixtures path and
        # it audits clean.
        res = run_audit(fixture("clean_snapshot.cpp"))
        self.assertNotIn("[handler-static-state]", res.stdout)
        self.assertNotIn("[handler-global-state]", res.stdout)


class TreeAudit(unittest.TestCase):
    """The real tree must audit clean."""

    def test_tree_is_clean(self):
        res = run_audit()
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)

    def test_tree_covers_snapshot_classes(self):
        res = run_audit("--json")
        self.assertEqual(res.returncode, 0, msg=res.stdout + res.stderr)
        report = json.loads(res.stdout)
        self.assertTrue(report["ok"])
        self.assertEqual(report["findings"], [])
        # Every HOSTNET_SNAPSHOT_COVERS class must be in the audited set.
        for qual in ("Simulator", "CalendarQueue", "Channel",
                     "MemoryController", "Cha", "Core", "Iio",
                     "StorageDevice", "NicDevice", "CopyCore", "TcpReceiver",
                     "TcpStack", "DctcpStack", "BbrStack", "DavisStack",
                     "HostSystem"):
            self.assertIn(qual, report["classes"])


class ToolInterface(unittest.TestCase):
    def test_list_checks(self):
        res = run_audit("--list-checks")
        self.assertEqual(res.returncode, 0)
        for check in ("snapshot-state", "pool-unregistered",
                      "handler-static-state", "handler-global-state",
                      "stale-allow", "bad-directive"):
            self.assertIn(check, res.stdout)

    def test_json_reports_findings(self):
        res = run_audit("--json", fixture("bad_state_outside.cpp"))
        self.assertEqual(res.returncode, 1)
        report = json.loads(res.stdout)
        self.assertFalse(report["ok"])
        self.assertEqual(report["findings"][0]["check"], "snapshot-state")

    def test_missing_path_is_usage_error(self):
        res = run_audit("definitely/not/a/path.cpp")
        self.assertEqual(res.returncode, 2)

    def test_tree_walk_skips_fixture_corpus(self):
        # Already covered by TreeAudit, but assert the specific guarantee:
        # the deliberately-bad corpus must not leak into default runs.
        res = run_audit("--json")
        report = json.loads(res.stdout)
        self.assertNotIn("Leaky", report["classes"])


if __name__ == "__main__":
    unittest.main()
