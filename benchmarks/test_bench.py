"""Self-tests of the benchmark: ``python3 -m pytest benchmarks`` from the repo root."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import anomcancel  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from spans import SPANNED, Tracer, chrome_trace, summarize  # noqa: E402


def _family(op):
    theorem, k, l, n_q = op
    for const, q1, fk, fn_q in wl.VERIFY_WORKLOADS["verify-scale"] + wl.VERIFY_WORKLOADS["verify-qdeep"]:
        if theorem in (const, q1) and (k, n_q) == (fk, fn_q):
            return const, k, l, n_q
    raise AssertionError(f"operation {op} belongs to no family")


def test_same_seed_same_operations_and_fixed_shape():
    for workload in wl.VERIFY_WORKLOADS:
        assert wl.operations(workload, 7) == wl.operations(workload, 7)
        shapes = {tuple(sorted(map(_family, wl.operations(workload, seed)))) for seed in range(40)}
        assert len(shapes) == 1
        assert len({tuple(wl.operations(workload, seed)) for seed in range(40)}) > 1


def test_every_pickable_operation_is_recorded():
    gate = wl.Gate.load()
    assert {wl.op_key(op) for op in wl.all_verify_operations()} <= set(gate.record["verify"])
    assert len(gate.record["suite"]["cases"]) == len(anomcancel.suite.suite_cases())


def test_altered_h_standard_fails_the_gate():
    gate = wl.Gate.load()
    op = ("4.1", 2, 1, 24)
    report = anomcancel.anomaly.verify_theorem("4.1", k=2, l=1, n_q=24).to_json_obj()
    assert gate.verify_ok(op, report)
    altered = dict(report, h_standard=[report["h_standard"][0] + " + 1"] + report["h_standard"][1:])
    assert not gate.verify_ok(op, altered)

    cases = [{"case": case, "status": v["status"], "report": dict(v)}
             for case, v in gate.record["suite"]["cases"].items()]
    assert gate.suite_failures({"cases": cases}) == []
    victim = next(c for c in cases if "h_standard" in c["report"])
    victim["report"]["h_standard"] = [victim["report"]["h_standard"][0] + " + 1"]
    assert gate.suite_failures({"cases": cases}) == [victim["case"]]


def test_wrappers_cover_every_alias_and_uninstall():
    genus, anomaly, theta = anomcancel.genus, anomcancel.anomaly, anomcancel.theta
    original = genus.prod_over_roots
    tracer = Tracer()
    tracer.install(anomcancel)
    try:
        assert anomaly.prod_over_roots is genus.prod_over_roots is not original
        assert anomaly.theta_factor is theta.theta_factor
        assert anomaly.prod_over_roots.__wrapped__ is original
        wrapped = [getattr(getattr(anomcancel, m), f) for m, f in SPANNED]
        assert len({id(w) for w in wrapped}) == len(SPANNED)
        assert {id(w.__wrapped__) for w in wrapped} == {id(tracer.originals[f"{m}.{f}"])
                                                        for m, f in SPANNED}
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert anomaly.prod_over_roots is genus.prod_over_roots is original


def test_spans_nest_and_self_time_is_never_negative():
    wl.clear_memos(anomcancel)
    tracer = Tracer()
    tracer.install(anomcancel)
    try:
        with tracer.region("bench.op"):
            report = anomcancel.anomaly.verify_theorem("4.6", k=1, l=1)
            report.to_json_obj()
        tracer.note_p2(anomcancel, report.setting)
    finally:
        tracer.uninstall()
    spans = {s[0]: s for s in tracer.spans}
    assert len(spans) > 10
    for sid, parent, _, name, start, end, _ in spans.values():
        assert start <= end
        if parent is not None:
            p = spans[parent]
            assert p[4] <= start and end <= p[5], (name, p[3])
    layers = summarize(tracer.spans)
    assert all(self_ns >= 0 for _, _, self_ns in layers.values())
    assert layers["genus.prod_over_roots"][0] == tracer.counts["genus.prod_over_roots.calls"]
    assert tracer.counts["algebra.poly_mul.term_pairs"] > 0
    assert tracer.p2["terms"] > 0 and tracer.p2["max_coeff_bits"] > 0

    trace = json.loads(json.dumps(chrome_trace(tracer.spans, {})))
    assert len(trace["traceEvents"]) == len(spans)
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in trace["traceEvents"])


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
