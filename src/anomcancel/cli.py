"""Command-line front end: verify, expand, decompose, suite.

Exit codes: 0 for PASS (variants included), 1 for FAIL or a flagged GAP,
2 for usage or parameter errors, an input too large among them (an
``OverflowError`` or a ``MemoryError``).  All machine output is JSON with
a schema tag; the text renderer works from the same JSON object so the two
formats cannot diverge.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from . import anomaly, suite
from .algebra import AlgebraError
from .genus import CONSTRAINT_KINDS
from .modforms import DELTA_EPS_KINDS, GROUP_LOWER, GROUP_UPPER, basis_element, delta_eps
from .theta import theta_factor, theta_null

EXPAND_OBJECTS = (
    "delta1", "eps1", "delta2", "eps2",
    "theta1-null", "theta2-null", "theta3-null", "theta-prime-null",
    "factor-a", "factor-t1", "factor-t2", "factor-t3", "factor-d",
    "basis", "P1", "P2", "P3",
)


def _emit(args, obj: dict, render: Callable[[dict], str]):
    """``obj`` as indented JSON (:func:`~anomcancel.suite.suite_json`, the bytes of ``json.dumps(obj, indent=2)``),
    or as ``render(obj)`` under ``--format text``, to ``--output`` or stdout."""
    payload = suite.suite_json(obj) if args.format == "json" else render(obj)
    if args.output:
        try:
            Path(args.output).write_text(payload + "\n")
        except OSError as e:
            raise ValueError(f"cannot write --output {args.output}: {e.strerror}") from None
    else:
        print(payload)


def _render_report_text(obj: dict) -> str:
    lines = [f"{obj.get('theorem', obj.get('case', '?'))}: {obj['status']}"]
    if "setting" in obj:
        s = obj["setting"]
        lines.append(f"  setting: {s['kind']} k={s['k']} l={s['l']} n_q={s['n_q']} (dim {s['dim']})")
    for name, c in obj.get("checks", {}).items():
        mark = "zero" if c["zero"] else "NONZERO"
        gate = "" if c.get("gating", True) else " (informational)"
        lines.append(f"  {name}: {mark}{gate}")
        if not c["zero"] and "value" in c:
            lines.append(f"    value: {c['value']}")
        if c.get("note"):
            lines.append(f"    note: {c['note']}")
    for i, h in enumerate(obj.get("h_standard", obj.get("h_normalized", []))):
        lines.append(f"  h[{i}] = {h}")
    if obj.get("variant_notes"):
        for note in obj["variant_notes"]:
            lines.append(f"  variant: {note}")
    return "\n".join(lines)


def _render_audit_text(obj: dict) -> str:
    implied = "empty sum" if obj["empty_sum"] else str(obj["implied_power_of_two"])
    return (f"corollary {obj['corollary']} (m={obj['m']}, k={obj['k']}, l={obj['l']}, "
            f"v2(h)>={obj['assumed_v2_h']}): implied {implied} vs claimed "
            f"{obj['claimed_power_of_two']} -> {obj['outcome']}")


def _cmd_verify(args) -> int:
    is_audit = args.theorem in anomaly.DIVISIBILITY_IDS
    given = [f"--{f}" for f in (("qorder", "basis", "timings") if is_audit else ("m", "v2h"))
             if getattr(args, f) is not None]
    if given:
        kind = "is an audit and reads no series" if is_audit else "is a theorem, not a divisibility audit"
        raise AlgebraError(f"{args.theorem} {kind}: {', '.join(given)} {'do' if given[1:] else 'does'} not apply")
    if is_audit:
        m = args.m or 0
        if args.k is not None and args.k != 2 * m + 1:
            raise AlgebraError(f"{args.theorem} fixes k = 2m+1 = {2 * m + 1}")
        audit = anomaly.divisibility_check(args.theorem, m, args.l, args.v2h)
        _emit(args, audit.to_json_obj(), _render_audit_text)
        return 0 if audit.outcome == "PASS" else 1
    report = anomaly.verify_theorem(args.theorem, k=args.k, l=args.l, n_q=args.qorder)
    _emit(args, report.to_json_obj(basis=args.basis or "standard", include_timings=bool(args.timings)),
          _render_report_text)
    return 0 if report.status in ("PASS", "PASS_WITH_VARIANT") else 1


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_expand(args) -> int:
    order = args.order
    obj: dict = {"schema": 1, "object": args.object, "order": order}
    name, key = args.object, "series"
    if name in DELTA_EPS_KINDS:
        series = delta_eps(name, order)
    elif name.endswith("-null"):
        kind = {"theta1-null": "theta1", "theta2-null": "theta2",
                "theta3-null": "theta3", "theta-prime-null": "theta_prime"}[name]
        series = theta_null(kind, order)
    elif name.startswith("factor-"):
        series, key = theta_factor(name.removeprefix("factor-"), order, args.weight), "factor"
        obj["z_weight_bound"] = args.weight
    elif name == "basis":
        group = GROUP_UPPER if args.group == "upper" else GROUP_LOWER
        series = basis_element(group, args.k, args.r, order)
        obj.update({"group": group, "k": args.k, "r": args.r})
    elif name in ("P1", "P2", "P3"):
        setting = anomaly.make_setting(args.setting, args.k, args.l, args.qorder)
        order = setting.n_q
        obj["order"] = order
        series = anomaly.build_P(setting, name)
        if args.basis == "standard":
            series = series.to_standard_basis()
        obj["setting"] = setting.to_json_obj()
    else:
        raise AlgebraError(f"unknown object {name!r}")
    obj[key], obj["text"] = series.to_json_obj(), series.to_text()
    _emit(args, obj, lambda o: f"{name} (order {order}):\n{o['text']}")
    return 0


def _cmd_decompose(args) -> int:
    setting = anomaly.make_setting(args.setting, args.k, args.l, args.qorder)
    dec = anomaly.decompose_setting(setting, args.which)
    obj = {"schema": 1, "setting": setting.to_json_obj(), "which": args.which}
    obj.update(dec.to_json_obj())
    _emit(args, obj, lambda _: "\n".join([f"h[{r}] = {p.to_text()}" for r, p in enumerate(dec.h)]
                                         + [f"residual zero: {dec.residual_zero}"]))
    return 0 if dec.residual_zero else 1


def _cmd_suite(args) -> int:
    result = suite.run_suite(n_q=args.qorder, parallel=args.parallel)
    _emit(args, result, suite.render_suite_text)
    return 0 if result["all_ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anomcancel",
        description="Exact verifier for modular-form cancellation identities")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify one identity or divisibility audit")
    p.add_argument("--theorem", required=True,
                   choices=list(anomaly.THEOREM_IDS) + list(anomaly.DIVISIBILITY_IDS))
    p.add_argument("--k", type=int, default=None,
                   help="dimension index (divisibility audits: must be 2m+1 if given)")
    p.add_argument("--l", type=int, default=None,
                   help="auxiliary rank parameter (default 1; divisibility audits: 4m+2)")
    p.add_argument("--qorder", type=int, default=None)
    p.add_argument("--m", type=int, help="divisibility audits: dimension index (default 0)")
    p.add_argument("--v2h", type=int, help="divisibility audits: assumed 2-adic valuation of the h_r (default 1)")
    p.add_argument("--basis", choices=("standard", "normalized"), help="theorems: h_r basis (default standard)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--timings", action="store_true", default=None,
                   help="theorems: include elapsed seconds (breaks byte-stability)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand", help="print a series, factor or basis element")
    p.add_argument("--object", required=True, choices=EXPAND_OBJECTS)
    p.add_argument("--order", type=_non_negative_int, default=10,
                   help="q-order of the expansion (P-series use --qorder)")
    p.add_argument("--weight", type=_non_negative_int, default=6, help="z-degree bound for factors")
    p.add_argument("--group", choices=("upper", "lower"), default="upper")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--r", type=int, default=0)
    p.add_argument("--setting", choices=CONSTRAINT_KINDS, default="spin4k")
    p.add_argument("--qorder", type=int, default=None, help="P-series q-order override")
    p.add_argument("--basis", choices=("standard", "normalized"), default="normalized")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("decompose", help="basis decomposition of a P-series")
    p.add_argument("--setting", choices=CONSTRAINT_KINDS, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--which", choices=("P1", "P2", "P3"), default="P2")
    p.add_argument("--qorder", type=int, default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("suite", help="run the full verification grid")
    p.add_argument("--qorder", type=int, default=None,
                   help="series order override for every case")
    p.add_argument("--parallel", type=int, default=1)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as e:        # AlgebraError is one
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError) as e:
        print(f"error: input too large: {e}" if str(e) else "error: input too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
