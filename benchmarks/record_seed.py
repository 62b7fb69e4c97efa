"""Record the verdicts the gate compares against, from the code in ``src/``.

Run from the root of a checkout of the seed code (about two minutes)::

    python3 benchmarks/record_seed.py

It writes ``benchmarks/seed_verdicts.json``: status and standard-basis h_r
of every suite case and of every verify operation any seed can pick.  Do not
re-record from changed code: the point of the file is that it holds the
seed's answers.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main() -> None:
    root = Path.cwd()
    os.environ.pop(wl.CACHE_ENV, None)
    sys.path.insert(0, str(root / "src"))
    import anomcancel

    wl.clear_memos(anomcancel)
    result = anomcancel.suite.run_suite()
    if not wl.Gate.suite_summary_ok(result):
        raise SystemExit(f"suite summary differs from {wl.SUITE_EXPECTED}: {result['summary']}")
    record = {"suite": {"cases": {r["case"]: wl.verdict(r["report"]) for r in result["cases"]}},
              "verify": {}}
    for op in wl.all_verify_operations():
        theorem, k, l, n_q = op
        wl.clear_memos(anomcancel)
        report = anomcancel.anomaly.verify_theorem(theorem, k=k, l=l, n_q=n_q).to_json_obj()
        record["verify"][wl.op_key(op)] = wl.verdict(report)
        print(wl.op_key(op), report["status"], flush=True)
    wl.RECORD_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
