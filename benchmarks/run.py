"""Cold time-to-verdict benchmark for anomcancel.

Run it from the root of a checkout (it imports ``src/anomcancel`` from there
and nothing else)::

    python3 benchmarks/run.py --workload suite-serial --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload verify-scale --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --workload verify-qdeep --seed 1 --profile

Workloads (see ``workloads.py``): ``suite-serial``, ``suite-par2``,
``verify-scale``, ``verify-qdeep``.  One caller runs passes back to back
(closed loop) until ``--seconds`` have gone by; every pass runs in a fresh
interpreter with empty module memos and without ``ANOMCANCEL_CACHE_DIR``.

``--trace 0`` reports the end-to-end metrics, medians over the run's passes:

* ``wall_s``: wall time of one cold pass, the time a user waits for all the
  verdicts; ``cpu_s``: its user+sys CPU time, pool workers included.  Both
  are scaled to a reference core speed by the pass's speed factor, and
  ``wall_s`` leaves out the time the hypervisor stole (``speed.py``),
  because the shared host alone moves raw times by 20-35%; the raw medians
  are in the detail line as ``wall_raw_s`` and ``cpu_raw_s``.
* ``setup_s``: time for a fresh interpreter to start and finish
  ``import anomcancel``, less stolen time and scaled by the speed probed
  around it (median of several).
* ``peak_rss_mb``: peak resident memory of the pass's largest process.
* ``op_fail_frac`` (detail line; ``failed``/``attempted`` in the result):
  operations that raised or whose status or ``h_standard`` differs from the
  seed.  It is not a ``BENCHMARK.json`` metric because it is 0 on good code.

``--trace 1`` runs one untraced pass, then traced passes, and reports the
per-layer metrics (low medians over the traced passes; times scaled like
``wall_s``) plus the tracing overhead, traced minus untraced ``wall_s``.  It
writes the spans as Chrome trace-event JSON under ``.bench_out/``.
``suite.par2.efficiency`` (suite-serial wall over pool size times
suite-par2 wall) is measured on ``suite-par2`` only, and layers a workload
never runs read 0.
``--profile`` runs one traced pass and one pass under both the tracer and
cProfile, and prints, per entry point, cProfile's cumulative time over the
span total and the top three entry points by self time from each side.

Every pass is checked against ``seed_verdicts.json`` (status and standard
basis ``h_r`` of every operation, recorded from the seed code by
``record_seed.py``).  The next-to-last stdout line is a JSON object with the
run's metadata, every pass, sample counts and ``op_fail_frac``; the last line
is the result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from spans import SPANNED, chrome_trace  # noqa: E402
from speed import probe_factor, stolen_s  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SPAN_METRICS = [f"{m}.{f}.self_s" for m, f in SPANNED] + ["anomaly.report.self_s"]
COUNT_METRICS = [
    "theta.theta_factor.calls", "theta.theta_factor.misses", "theta.factor_mul.term_pairs",
    "genus.prod_over_roots.calls", "genus.prod_over_roots.repeat_calls",
    "anomaly.get_env.misses", "algebra.poly_mul.calls", "algebra.poly_mul.term_pairs",
    "qseries.series_mul.calls",
]
CASE_KINDS = ("theta", "theorem", "crosscheck", "structural", "divisibility")
PER_LAYER_UNITS = {
    **{name: "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "anomaly.P2.terms": "count", "anomaly.P2.max_coeff_bits": "bits",
    **{f"suite.run_case.{kind}.s": "s" for kind in CASE_KINDS},
    "suite.par2.efficiency": "ratio", "trace.overhead_s": "s",
}
SETUP_SAMPLES = 16
RUN_LIMIT_S = 170.0             # a contract run ends within 180 s
PROFILE_LIMIT_S = 1800.0        # cProfile slows a pass about five times
STARTED = time.perf_counter()
limit_s = RUN_LIMIT_S


def fail(msg: str) -> None:
    print(f"benchmark error: {msg}", file=sys.stderr)
    raise SystemExit(2)


# -- children ------------------------------------------------------------------


def run_child(cmd, env, root, stdin_text=""):
    """Run a child in its own process group; kill the whole group on timeout."""
    timeout = max(5.0, limit_s - (time.perf_counter() - STARTED))
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=root,
                            start_new_session=True)
    try:
        out, err = proc.communicate(stdin_text, timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[-1]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        fail(f"child exited with code {proc.returncode}")
    sys.stderr.write(err)
    return out


def run_pass(ctx, mode: str, workload: str | None = None) -> dict:
    spec = {"root": str(ctx["root"]), "workload": workload or ctx["workload"],
            "ops": ctx["ops"], "mode": mode}
    out = run_child([sys.executable, str(HERE / "worker.py")], ctx["env"], ctx["root"],
                    json.dumps(spec))
    return json.loads(out.strip().splitlines()[-1])


# a fresh interpreter imports the package and prints when the import finished
SETUP_CODE = """import sys, time, anomcancel
done = time.perf_counter()
if not anomcancel.__file__.startswith(sys.argv[1]):
    sys.exit(f"anomcancel imported from {anomcancel.__file__}")
print(done)
"""


def measure_setup(ctx, n: int) -> list[float]:
    """Seconds for ``n`` fresh interpreters to start and finish ``import anomcancel``.

    The child prints when its import finished (``perf_counter`` is the
    system-wide monotonic clock), so interpreter teardown is not counted.
    Time the hypervisor stole meanwhile is taken off, and each sample is
    scaled by the speed probed on the same core just before and after it.
    """
    cmd = [sys.executable, "-c", SETUP_CODE, str((ctx["root"] / "src").resolve())]
    run_child(cmd, ctx["env"], ctx["root"])        # writes the bytecode cache
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})       # the children inherit the core
    samples = []
    try:
        for _ in range(n):
            before = probe_factor()
            steal0 = stolen_s()
            t0 = time.perf_counter()
            done = float(run_child(cmd, ctx["env"], ctx["root"]))
            raw = done - t0 - (stolen_s() - steal0)
            samples.append(raw * (before + probe_factor()) / 2)
    finally:
        os.sched_setaffinity(0, allowed)
    return samples


def passes_until(ctx, mode: str, seconds: float) -> list[dict]:
    """Back-to-back passes until ``seconds`` have gone by (at least one)."""
    start = time.perf_counter()
    passes = [run_pass(ctx, mode)]
    while time.perf_counter() - start < seconds:
        last = passes[-1]["wall_raw_s"]
        if time.perf_counter() - STARTED + 1.5 * last + 5 > limit_s:
            break
        passes.append(run_pass(ctx, mode))
    return passes


# -- metadata --------------------------------------------------------------------


def metadata(root: Path, cache_env_removed: bool) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None                  # a checkout without .git has no sha; src_sha256 names the code
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    files = sorted((root / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(), "pool_workers": wl.pool_size(), "cpu_model": cpu,
        "python": platform.python_version(), "git_sha": sha,
        "src_sha256": digest.hexdigest(), "src_lines": lines,
        "cache_env_removed": cache_env_removed,
        "cache_env_note": f"{wl.CACHE_ENV} is always removed from the children's environment",
    }


# -- metrics ----------------------------------------------------------------------


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def tally(passes) -> tuple[int, int, bool]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return attempted, failed, failed == 0 and all(p["summary_ok"] for p in passes)


def layer_metrics(traced: dict) -> dict[str, float]:
    """Per-layer values of one traced pass; times scaled by its speed factor."""
    layers, counts, out = traced["layers"], traced["counts"], {}
    scale = traced["speed_factor"] / 1e9
    for name in SPAN_METRICS:
        span = name.removesuffix(".self_s")
        out[name] = layers.get(span, (0, 0, 0))[2] * scale
    out["anomaly.report.self_s"] += layers.get("bench.render", (0, 0, 0))[2] * scale
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    out["anomaly.P2.terms"] = traced["p2"]["terms"]
    out["anomaly.P2.max_coeff_bits"] = traced["p2"]["max_coeff_bits"]
    for kind in CASE_KINDS:
        out[f"suite.run_case.{kind}.s"] = layers.get(f"suite.run_case.{kind}", (0, 0, 0))[1] * scale
    return out


def timed_run(ctx, seconds, detail):
    # half the set-up samples before the passes and half after, so that they
    # spread over the run rather than one phase of the shared host
    setup = measure_setup(ctx, SETUP_SAMPLES // 2)
    passes = passes_until(ctx, "plain", seconds)
    setup += measure_setup(ctx, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    detail.update(setup_samples=setup, passes=passes)
    values = {"wall_s": median_of(passes, "wall_s"), "cpu_s": median_of(passes, "cpu_s"),
              "setup_s": statistics.median(setup),
              "peak_rss_mb": median_of(passes, "peak_rss_mb")}
    attempted, failed, correct = tally(passes)
    detail["end_to_end"] = {
        name: {"median": values[name], "n": len(setup if name == "setup_s" else passes), "unit": unit}
        for name, unit in END_TO_END_UNITS.items()}
    for raw in ("wall_raw_s", "cpu_raw_s"):
        detail["end_to_end"][raw] = {"median": median_of(passes, raw), "n": len(passes), "unit": "s"}
    detail["end_to_end"]["op_fail_frac"] = {"median": failed / attempted, "n": len(passes),
                                            "unit": "fraction"}
    return attempted, failed, correct, values, END_TO_END_UNITS


def traced_run(ctx, seconds, detail, trace_file: Path):
    start = time.perf_counter()
    plain = run_pass(ctx, "plain")
    serial = run_pass(ctx, "plain", "suite-serial") if ctx["workload"] == "suite-par2" else None
    traced = passes_until(ctx, "trace", max(0.0, seconds - (time.perf_counter() - start)))
    per_pass = [layer_metrics(t) for t in traced]
    # median_low: a value some pass measured, so counts stay whole numbers
    values = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = median_of(traced, "wall_s") - plain["wall_s"]
    values["suite.par2.efficiency"] = (
        serial["wall_s"] / (wl.pool_size() * plain["wall_s"]) if serial is not None else 0.0)

    spans = [s for t in traced for s in t.pop("spans")]
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(chrome_trace(spans, {**ctx["meta"], "workload": ctx["workload"],
                                                         "seed": ctx["seed"]})))
    detail.update(trace_file=str(trace_file), untraced_pass=plain, traced_passes=traced,
                  serial_pass=serial, missing_entry_points=traced[0]["missing"])
    attempted, failed, correct = tally([plain] + traced + ([serial] if serial else []))
    return attempted, failed, correct, values, PER_LAYER_UNITS


def profile_run(ctx) -> dict:
    if ctx["workload"] == "suite-par2":
        fail("cProfile sees only the parent process; profile suite-serial instead")
    traced = run_pass(ctx, "trace")
    profiled = run_pass(ctx, "profile")
    rows = profiled["cross_check"]

    def top3(key, table):
        named = [(v.get(key, 0.0), k) for k, v in table.items() if not k.startswith("<")]
        return [k for _, k in sorted(named, reverse=True)[:3]]

    span_self = {k: {"self": v[2]} for k, v in traced["layers"].items()
                 if not k.startswith("bench.") and not k.startswith("suite.")}
    tops = {"traced_spans": top3("self", span_self),
            "profiled_spans": top3("span_self_s", rows),
            "cprofile": top3("cprofile_self_s", rows)}
    return {"workload": ctx["workload"], "seed": ctx["seed"], "entry_points": rows,
            "top3_by_self_time": tops,
            "top3_same_set": set(tops["traced_spans"]) == set(tops["cprofile"]),
            "top3_same_order": tops["traced_spans"] == tops["cprofile"],
            "correct": tally([traced, profiled])[2]}


# -- main ---------------------------------------------------------------------------


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-file", type=Path, default=None,
                    help="where --trace 1 writes spans (default .bench_out/trace-<workload>-<seed>.json)")
    ap.add_argument("--profile", action="store_true", help="cProfile cross-check of the spans")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "anomcancel" / "__init__.py").is_file():
        fail(f"no src/anomcancel under {root}: run from the root of an anomcancel checkout")
    if not wl.RECORD_PATH.is_file():
        fail(f"missing {wl.RECORD_PATH.name}; run record_seed.py on the seed code")
    env, removed = wl.worker_env(root)
    ops = wl.operations(args.workload, args.seed) if args.workload in wl.VERIFY_WORKLOADS else None
    ctx = {"root": root, "env": env, "workload": args.workload, "seed": args.seed, "ops": ops,
           "meta": metadata(root, removed)}
    if args.profile:
        global limit_s
        limit_s = PROFILE_LIMIT_S
        print(json.dumps(profile_run(ctx)))
        return

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": ctx["meta"],
              "operations": [wl.op_key(op) for op in ops] if ops else "suite grid, 109 cases"}
    if args.trace:
        trace_file = args.trace_file or root / ".bench_out" / f"trace-{args.workload}-{args.seed}.json"
        result = traced_run(ctx, args.seconds, detail, trace_file)
    else:
        result = timed_run(ctx, args.seconds, detail)
    attempted, failed, correct, values, units = result
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))


if __name__ == "__main__":
    main()
