"""Time ``anomcancel`` at the scale points, each run in a fresh process, and write them as JSON.

Run it from the root of a checkout (stdlib only)::

    python3 tools/trajectory.py --out BENCH.json --tree parent=../parent --tree change=.

Each ``--tree LABEL=DIR`` (one or more) names a checkout whose ``src`` is
put on ``PYTHONPATH``.  A point in ``POINTS`` is one CLI command line:
``verify`` at growing sizes, and the whole ``suite``, serial and with a
two-process pool.  Every point runs ``RUNS`` times per tree, one round at a
time, and the trees take turns going first from round to round, so a drift of
the host's speed falls on all of them alike.  Each run records its wall time
(spawn to exit), the peak resident memory of its largest process (a suite's
pool workers included) and the status its JSON gives: a verify report's
``status``, or ``ALL_OK`` / ``NOT_ALL_OK`` from a suite's ``all_ok``.  Each
tree's ``src`` is byte-compiled first, so no run pays for compiling it, even
under ``PYTHONDONTWRITEBYTECODE`` (which would leave a fresh clone compiling
every run, about 40 ms of a 0.2 s suite).  The output holds the machine (CPU
model and count, Python version), each tree's git sha and ``src/`` line
count, every run, and per point and tree the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (max - min) of the wall
times.  Five runs let a change be read against the interquartile distance,
which one slow run does not stretch the way it stretches the spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

POINTS = tuple(f"verify --theorem {p}" for p in (
    "3.1 --k 12 --l 3", "3.1 --k 16 --l 3", "4.6 --k 12 --l 3", "3.1 --k 20 --l 1",
    "3.1 --k 16 --l 3 --qorder 18", "3.1 --k 20 --l 1 --qorder 22")) + ("suite", "suite --parallel 2")
RUNS = 5
ENTRY = "import sys; from anomcancel.cli import main; sys.exit(main(sys.argv[1:]))"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def describe(tree: Path) -> dict:
    """The tree's git sha (``+dirty`` when ``src`` has uncommitted changes) and ``src/`` line count."""
    def git(*args):
        return subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True).stdout.strip()
    sha = git("rev-parse", "HEAD") or "unknown"
    if git("status", "--porcelain", "--", "src"):
        sha += "+dirty"
    lines = sum(len(p.read_bytes().splitlines()) for p in sorted((tree / "src" / "anomcancel").glob("*.py")))
    return {"git_sha": sha, "src_lines": lines}


def status_of(report: dict) -> str:
    """A verify report's status, or a suite's ``all_ok`` as ``ALL_OK`` / ``NOT_ALL_OK``."""
    if "all_ok" in report:
        return "ALL_OK" if report["all_ok"] else "NOT_ALL_OK"
    return report["status"]


def run_once(tree: Path, point: str) -> dict:
    """One command in a fresh interpreter: wall seconds, peak RSS in MB, and the status its JSON gives."""
    argv = [*point.split(), "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=tree)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        try:
            verdict = status_of(json.loads(out.read()))
        except (ValueError, KeyError):
            verdict = f"exit {proc.returncode}"
    return {"wall_s": round(wall, 4), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1), "status": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, required=True, help="JSON file to write")
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                    help="a checkout to time (repeatable)")
    args = ap.parse_args(argv)
    trees = {}
    for spec in args.tree:
        label, sep, path = spec.partition("=")
        if not sep or not label or not (Path(path) / "src" / "anomcancel").is_dir():
            ap.error(f"--tree {spec!r}: expected LABEL=DIR with DIR/src/anomcancel")
        trees[label] = Path(path).resolve()
    for path in trees.values():
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(path / "src")], check=True)
    runs = {(p, t): [] for p in POINTS for t in trees}
    labels = list(trees)
    for r in range(RUNS):
        order = labels[r % len(labels):] + labels[:r % len(labels)]
        for point in POINTS:
            for label in order:
                run = run_once(trees[label], point)
                runs[point, label].append(run)
                print(f"round {r + 1}  {point:<45} {label:<8} {run['wall_s']:8.3f} s "
                      f"{run['peak_rss_mb']:6.1f} MB  {run['status']}", file=sys.stderr)
    def walls(point, label):
        return [x["wall_s"] for x in runs[point, label]]

    result = {
        "machine": {"cpu": cpu_model(), "cpus": os.cpu_count(), "python": platform.python_version()},
        "trees": {label: describe(path) for label, path in trees.items()},
        "points": [{
            "point": point, "tree": label,
            "median_wall_s": round(statistics.median(walls(point, label)), 4),
            "quartiles_wall_s": [round(q, 4) for q in statistics.quantiles(walls(point, label), n=4)],
            "spread_wall_s": round(max(walls(point, label)) - min(walls(point, label)), 4),
            "median_peak_rss_mb": round(statistics.median(x["peak_rss_mb"] for x in runs[point, label]), 1),
            "runs": runs[point, label],
        } for point in POINTS for label in labels],
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for entry in result["points"]:
        q1, _, q3 = entry["quartiles_wall_s"]
        print(f"{entry['point']:<45} {entry['tree']:<8} median {entry['median_wall_s']:.3f} s "
              f"(quartiles {q1:.3f}-{q3:.3f}, spread {entry['spread_wall_s']:.3f})  "
              f"{entry['median_peak_rss_mb']} MB  "
              f"{sorted({x['status'] for x in entry['runs']})}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
