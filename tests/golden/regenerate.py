"""Rewrite the golden CLI reports from the working tree.

Usage: python tests/golden/regenerate.py [name ...]

Runs each case of `tests/test_golden_reports.py` (all of them, or the
named ones) through the console entry point in a fresh interpreter, with
`src` on the path, and stores its stdout, stderr and exit code together
with the numpy version, Python version and platform.  Regenerate only for
a report change that is meant; list every changed row in CHANGES.md.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import test_golden_reports as G  # noqa: E402


def main(names):
    for name in names or sorted(G.CASES):
        doc = {"argv": G.CASES[name], **G.run_fresh(name), **G.environment()}
        (G.GOLDEN / f"{name}.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"{name}: exit {doc['exit']}")


if __name__ == "__main__":
    main(sys.argv[1:])
