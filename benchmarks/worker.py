"""One cold pass in a fresh interpreter; prints its result as one JSON line.

Started by ``run.py`` with a JSON spec on stdin::

    {"root": ".", "workload": "verify-qdeep", "ops": [["3.1", 2, 1, 32], ...],
     "mode": "plain" | "trace" | "profile"}

``plain`` times the pass; ``trace`` also records spans and counters;
``profile`` records spans with cProfile running too, and compares the two.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from spans import Tracer, summarize  # noqa: E402


def import_package(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import anomcancel
    if not Path(anomcancel.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"anomcancel imported from {anomcancel.__file__}, not from {src}")
    return anomcancel


def cprofile_self_times(stats: dict, owners: dict) -> dict[str, float]:
    """cProfile self time per entry point, gprof style.

    A function's own time goes to the entry points above it, split over its
    callers in proportion to the cumulative time each caller spent in it; an
    entry point keeps its own time.  Time outside every entry point goes to
    ``<outside>``.
    """
    memo: dict = {}

    def shares(key, visiting):
        if key in owners:
            return {owners[key]: 1.0}
        if key in memo:
            return memo[key]
        callers = {c: v for c, v in stats[key][4].items() if c in stats and c not in visiting}
        total = sum(v[3] for v in callers.values())
        if not total:
            return {"<outside>": 1.0}
        visiting.add(key)
        out: dict[str, float] = defaultdict(float)
        for caller, v in callers.items():
            for name, frac in shares(caller, visiting).items():
                out[name] += frac * v[3] / total
        visiting.discard(key)
        memo[key] = dict(out)
        return memo[key]

    own: dict[str, float] = defaultdict(float)
    for key, row in stats.items():
        for name, frac in shares(key, set()).items():
            own[name] += row[2] * frac
    return dict(own)


def cross_check(prof: cProfile.Profile, tracer: Tracer, layers: dict) -> dict:
    stats = pstats.Stats(prof).stats
    owners = {}
    for name, fn in tracer.originals.items():
        code = fn.__code__
        owners[(code.co_filename, code.co_firstlineno, code.co_name)] = name
    rows = {}
    for key, name in owners.items():
        _, ncalls, _, cum, _ = stats.get(key, (0, 0, 0.0, 0.0, {}))
        calls, total_ns, self_ns = layers.get(name, (0, 0, 0))
        rows[name] = {"span_calls": calls, "cprofile_calls": ncalls,
                      "span_total_s": total_ns / 1e9, "cprofile_cum_s": cum,
                      "cum_over_span": cum / (total_ns / 1e9) if total_ns else None,
                      "span_self_s": self_ns / 1e9}
    for name, t in cprofile_self_times(stats, owners).items():
        rows.setdefault(name, {})["cprofile_self_s"] = t
    return rows


def main() -> None:
    spec = json.loads(sys.stdin.read())
    package = import_package(Path(spec["root"]))
    gate = wl.Gate.load()
    ops = [tuple(op) for op in spec["ops"]] if spec["ops"] is not None else None
    mode = spec["mode"]
    if mode == "plain":
        print(json.dumps(wl.run_pass(package, spec["workload"], ops, gate)))
        return
    tracer = Tracer()
    tracer.install(package, count_products=mode != "profile")
    prof = cProfile.Profile() if mode == "profile" else None
    if prof is not None:
        prof.enable()
    result = wl.run_pass(package, spec["workload"], ops, gate, tracer)
    if prof is not None:
        prof.disable()
    tracer.uninstall()
    layers = summarize(tracer.spans)
    result.update(layers=layers, counts=dict(tracer.counts), p2=tracer.p2,
                  missing=tracer.missing, spans=tracer.spans)
    if prof is not None:
        result["cross_check"] = cross_check(prof, tracer, layers)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
