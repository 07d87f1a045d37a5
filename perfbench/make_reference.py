"""Write reference/expansion_drift.json: the expansion_drift rows of this commit.

The expansion_drift gate compares every row with these values at the tests'
coefficient tolerances, so the file is produced once, at the commit that
defined the benchmark, and kept.  Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from nvol import cli  # noqa: E402


def main() -> int:
    rows = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for case in sorted(workloads.EXPANSION_CASES):
            cfg = Path(tmp) / f"{case}.ini"
            cfg.write_text(workloads.expansion_config(case))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["smile", "--config", str(cfg)])
            if rc != 0:
                print(f"{case}: nvol exited with {rc}", file=sys.stderr)
                return 1
            rows[case] = [list(r.values())
                          for r in workloads._csv_rows(buf.getvalue().encode())]
    # one row per line, so that a changed value shows as a one-line diff
    text = "{\n" + ",\n".join(
        f" {json.dumps(case)}: [\n" + ",\n".join(f"  {json.dumps(r)}" for r in rs) + "\n ]"
        for case, rs in rows.items()) + "\n}\n"
    workloads.REFERENCE.write_text(text)
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
