"""Workload definitions, cold passes and the seed-verdict gate.

A pass is one closed-loop sweep over a workload's operations by a single
caller: each operation starts after the previous one has finished.

* ``suite-serial`` / ``suite-par2``: one ``run_suite`` call over the fixed
  109-case grid (serial, or on a pool of ``min(2, nproc)`` workers), then the
  JSON rendering the CLI prints.  Each case is one operation.
* ``verify-scale`` / ``verify-qdeep``: cold ``verify_theorem`` calls, each
  followed by ``to_json_obj`` and ``json.dumps``.  The module memos are
  emptied before every call, as a fresh CLI invocation has them.

For the verify workloads the seed picks the identity flavour (constant-term
or q^1 theorem) of every operation and the order the operations run in.
Kind, k and n_q are fixed, and every kind runs once at each l in 1..3, so
all seeds ask for the same amount of work: one k=5 spin operation costs
1.6x more at l=3 than at l=1, and letting the seed pick l would move a
pass's work by up to 40% from seed to seed.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from speed import SpeedProbe, stolen_s

HERE = Path(__file__).resolve().parent
RECORD_PATH = HERE / "seed_verdicts.json"

SUITE_WORKLOADS = {"suite-serial": 1, "suite-par2": 2}

# workload -> families of (constant-term id, q^1 id, k, n_q); None is the
# library's default n_q = 2k + 4
VERIFY_WORKLOADS = {
    "verify-scale": [("3.1", "3.2", 5, None), ("4.1", "4.2", 4, None),
                     ("4.6", "4.8", 4, None)],
    "verify-qdeep": [("3.1", "3.2", 2, 32), ("4.1", "4.2", 2, 24)],
}
LEVELS = (1, 2, 3)
WORKLOADS = tuple(SUITE_WORKLOADS) + tuple(VERIFY_WORKLOADS)

# the 109-case grid at the seed
SUITE_EXPECTED = {"PASS": 99, "PASS_WITH_VARIANT": 8, "GAP": 2, "FAIL": 0}

# module memos that must be empty when a cold operation starts
MEMOS = (("theta", "_null_cache"), ("theta", "_factor_cache"),
         ("modforms", "_gen_cache"), ("anomaly", "_env_cache"))

CACHE_ENV = "ANOMCANCEL_CACHE_DIR"


def op_key(op) -> str:
    theorem, k, l, n_q = op
    return f"{theorem} k={k} l={l} n_q={'default' if n_q is None else n_q}"


def operations(workload: str, seed: int) -> list[tuple]:
    """The verify operations ``(theorem, k, l, n_q)`` of one seed, in run order."""
    if workload not in VERIFY_WORKLOADS:
        raise ValueError(f"{workload} has no seeded operations")
    rng = random.Random(f"{workload}:{seed}")
    ops = [(rng.choice((const, q1)), k, l, n_q)
           for const, q1, k, n_q in VERIFY_WORKLOADS[workload] for l in LEVELS]
    rng.shuffle(ops)
    return ops


def all_verify_operations() -> list[tuple]:
    """Every operation any seed can pick, both flavours."""
    return [(tid, k, l, n_q)
            for families in VERIFY_WORKLOADS.values()
            for const, q1, k, n_q in families
            for tid in (const, q1) for l in LEVELS]


def pool_size() -> int:
    return min(2, os.cpu_count() or 1)


def worker_env(root: Path) -> tuple[dict, bool]:
    """Environment for benchmark children: the checkout's ``src`` first, no disk cache.

    Bytecode caching is on, as for a user.  Returns the environment and whether ``ANOMCANCEL_CACHE_DIR`` was set
    (and removed): a populated cache skips the factor build and can flip a
    verdict.
    """
    env = dict(os.environ)
    removed = env.pop(CACHE_ENV, None) is not None
    env.pop("PYTHONDONTWRITEBYTECODE", None)    # set-up time counts a cached import
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env, removed


# -- the gate ------------------------------------------------------------------


def verdict(report: dict) -> dict:
    """What the gate compares: status and the standard-basis h_r strings.

    Normalized-basis text is left out on purpose: a change of scalar ring
    rewrites it without changing any verdict.
    """
    out = {"status": report["status"]}
    if "h_standard" in report:
        out["h_standard"] = report["h_standard"]
    return out


class Gate:
    """Compares pass outputs against the verdicts recorded from the seed code."""

    def __init__(self, record: dict):
        self.record = record

    @classmethod
    def load(cls, path: Path = RECORD_PATH) -> "Gate":
        return cls(json.loads(path.read_text()))

    def verify_ok(self, op, report: dict) -> bool:
        return self.record["verify"].get(op_key(op)) == verdict(report)

    def suite_failures(self, result: dict) -> list[str]:
        """Recorded cases whose status or h_standard is missing or differs."""
        got = {r["case"]: verdict(r["report"]) for r in result["cases"]}
        return [case for case, v in self.record["suite"]["cases"].items() if got.get(case) != v]

    @staticmethod
    def suite_summary_ok(result: dict) -> bool:
        return result["all_ok"] and result["summary"]["by_status"] == SUITE_EXPECTED


# -- cold passes -----------------------------------------------------------------


def clear_memos(package) -> None:
    """Empty the known module memos and any other module-level ``*_cache`` dict."""
    for mod, name in MEMOS:
        memo = getattr(getattr(package, mod, None), name, None)
        if memo is not None:
            memo.clear()
    prefix = package.__name__ + "."
    for modname, module in list(sys.modules.items()):
        if module is None or not modname.startswith(prefix):
            continue
        for name, value in list(vars(module).items()):
            if name.endswith("_cache") and isinstance(value, dict):
                value.clear()
            elif callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def _usage():
    return (resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN))


def run_pass(package, workload: str, ops, gate: Gate, tracer=None) -> dict:
    """One cold pass; returns timings, peak memory and the gate's verdict.

    ``wall_s`` (less the pass's steal time) and ``cpu_s`` are scaled to the
    reference speed by the pass's speed factor; the measured times are
    ``wall_raw_s`` and ``cpu_raw_s``.
    """
    speed = SpeedProbe()
    if workload in SUITE_WORKLOADS:
        speed.follow_pool(package.suite)
    clear_memos(package)
    self0, child0 = _usage()
    steal0 = stolen_s()
    t0 = time.perf_counter()
    speed.start()
    if workload in SUITE_WORKLOADS:
        attempted, failures, summary_ok = _suite_pass(package, workload, gate, tracer, speed)
    else:
        attempted, failures = _verify_pass(package, ops, gate, tracer)
        summary_ok = True
    speed.stop()
    wall = time.perf_counter() - t0
    stolen = stolen_s() - steal0
    self1, child1 = _usage()
    cpu = sum(getattr(b, f) - getattr(a, f)
              for a, b in ((self0, self1), (child0, child1))
              for f in ("ru_utime", "ru_stime"))
    peak_kb = max(self1.ru_maxrss, child1.ru_maxrss)
    factor = speed.factor()
    computing = min(SUITE_WORKLOADS.get(workload, 1), pool_size())   # processes at work
    return {"wall_s": (wall - stolen / computing) * factor, "cpu_s": cpu * factor,
            "peak_rss_mb": peak_kb / 1024,
            "wall_raw_s": wall, "cpu_raw_s": cpu, "stolen_s": stolen, "speed_factor": factor,
            "speed_samples": len(speed.samples),
            "attempted": attempted, "failures": failures, "summary_ok": summary_ok}


def _span(tracer, name):
    return tracer.region(name) if tracer is not None else nullcontext()


def _suite_pass(package, workload, gate, tracer, speed):
    suite = package.suite
    cases = list(gate.record["suite"]["cases"])
    try:
        result = suite.run_suite(parallel=min(SUITE_WORKLOADS[workload], pool_size()))
        speed.absorb_children(result["cases"])
        if tracer is not None:
            tracer.absorb_children(result["cases"])
        with _span(tracer, "bench.render"):
            suite.suite_json(result)
    except Exception as exc:  # a suite that raises fails every case
        print(f"run_suite: {type(exc).__name__}: {exc}", file=sys.stderr)
        return len(cases), cases, False
    return len(cases), gate.suite_failures(result), gate.suite_summary_ok(result)


def _verify_pass(package, ops, gate, tracer):
    anomaly = package.anomaly
    failures = []
    for op in ops:
        theorem, k, l, n_q = op
        clear_memos(package)
        try:
            if tracer is not None:
                tracer.op = op_key(op)
            with _span(tracer, "bench.op"):
                report = anomaly.verify_theorem(theorem, k=k, l=l, n_q=n_q)
                obj = report.to_json_obj()
                with _span(tracer, "bench.render"):
                    json.dumps(obj)
            if tracer is not None:
                tracer.op = None
                tracer.note_p2(package, report.setting)
        except Exception as exc:  # an operation that raises is a failed operation
            print(f"{op_key(op)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            failures.append(op_key(op))
            continue
        if not gate.verify_ok(op, obj):
            failures.append(op_key(op))
    return len(ops), failures
