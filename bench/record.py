"""Record the expected outputs that ``check.py`` compares against.

Usage: python3 bench/record.py

Runs every command any benchmark seed can produce (the workloads with their
seed pools spelled out) through ``symlow.cli.main`` and writes
``bench/reference.json``: per command, the sha256 of its document and the
values ``check.pinned_values`` pins.  It refuses to write when a document
fails a property check.  Run it only at a commit whose outputs are the ones
later builds must reproduce; re-recording hides digest drift.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import check
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import symlow.cli as cli

    results = []
    for argv in workloads.all_commands():
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            code = cli.main(argv)
        results.append({"argv": argv, "exit": code, "text": buffer.getvalue()})
        print(f"{code} {check.key(argv)}", file=sys.stderr)

    reference = {
        check.key(r["argv"]): {
            "sha256": check.digest(r["text"]),
            "values": check.pinned_values(r["argv"], r["text"]),
        }
        for r in results
    }
    problems, _ = check.check_pass(results, reference)
    bad = [(check.key(r["argv"]), p) for r, p in zip(results, problems) if p]
    if bad:
        for name, found in bad:
            print(f"refusing to record: {name}: {found}", file=sys.stderr)
        return 1
    check.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} entries to {check.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
