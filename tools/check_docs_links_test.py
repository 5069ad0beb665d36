#!/usr/bin/env python3
"""Unit tests for tools/check_docs_links.py (stdlib unittest; a ctest entry).

Each case lays out a tiny repo in a temporary directory and runs the checker
on it with --root: a live fixture whose every reference resolves must pass,
and a stale fixture that names a renamed class must fail and name it.
"""

import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_docs_links.py")

CODE = """namespace demo {
class LiveWidget {
 public:
  void run();
};
}  // namespace demo
"""

LIVE_DOC = """# Live

`LiveWidget` lives in `src/widget.h`; `demo::LiveWidget::run()` runs it,
and [the header](../src/widget.h) says so. Lower-case `snake_case` words,
`ALL_CAPS` macros and `kConstants` are not class names and are skipped.
"""

STALE_DOC = """# Stale

`LiveWidget` is fine, but `demo::RetiredWidget::run()` was renamed away.
"""


def run_checker(doc_text):
    with tempfile.TemporaryDirectory() as root:
        os.makedirs(os.path.join(root, "src"))
        os.makedirs(os.path.join(root, "docs"))
        with open(os.path.join(root, "src", "widget.h"), "w") as f:
            f.write(CODE)
        with open(os.path.join(root, "docs", "GUIDE.md"), "w") as f:
            f.write(doc_text)
        return subprocess.run(
            [sys.executable, CHECKER, "--root", root],
            capture_output=True, text=True, check=False)


class CheckDocsLinksTest(unittest.TestCase):
    def test_live_fixture_passes(self):
        r = run_checker(LIVE_DOC)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_stale_identifier_fails_and_is_named(self):
        r = run_checker(STALE_DOC)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("stale identifier `demo::RetiredWidget::run()`", r.stdout)
        self.assertNotIn("`LiveWidget`", r.stdout)


if __name__ == "__main__":
    unittest.main()
