"""The full verification grid with deterministic, mergeable reports.

The grid covers every identity at small sizes: the theta/modular layer, the
spin settings (k = 1..3, l = 1..4), the two k-pinned corollaries, the spin^c
settings in both dimension families, the bundle-path cross-checks, the
structural relations, and the divisibility audits.  The theta layer checks the
theta nulls' product identity and the generators' leading terms.  A cross-check
row reads one theta-minus-lambda-ring residual per P at q^0, q^(1/2) and q^1;
it and a structural row render their checks as a verify report does.  Case
reports carry no timestamps or timings, so suite output is byte-identical
across runs and across worker counts.  :func:`suite_json` writes it, and every
other ``--format json`` output, as the bytes of ``json.dumps(obj, indent=2)``.

With ``parallel=N``, N processes (the caller and N-1 it forks) pull shards,
heaviest first, from one pipe: every theorem, cross-check and structural case
of one (kind, k, n_q) family in one shard, so a process builds the family's
l-free tangent half once and reuses it for every l; the theta layer and each
audit go alone.  Each process runs pinned to its own CPU of the caller's
affinity mask, and the caller gets its mask back: unpinned, the kernel kept
the forked worker on its parent's CPU on a 2-vCPU host, and the pool ran
slower than one process.  The results come back in grid order.  Where the
platform cannot fork, the suite runs serially.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import product

from . import anomaly
from .algebra import Record
from .modforms import delta_eps
from .qseries import HALF_UNIT, Q_UNIT
from .theta import jacobi_residual

THETA_LAYER_ORDER = 10
_RECORD = 4     # bytes per shard number in the work pipe, which holds thousands of them
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}     # float repr -> json's spelling

# leading terms of the four generators, as printed coefficient tables
_LEADING = {
    "delta1": [(0, Fraction(1, 4)), (8, Fraction(6))],
    "eps1": [(0, Fraction(1, 16)), (8, Fraction(-1))],
    "delta2": [(0, Fraction(-1, 8)), (4, Fraction(-3))],
    "eps2": [(4, Fraction(1))],
}


class SuiteCase(Record):
    __slots__ = ("case_id", "kind", "params", "expected")    # kind: theta|theorem|crosscheck|structural|divisibility

    def __init__(self, case_id: str, kind: str, params: tuple, expected: str = "PASS"):
        super().__init__(case_id, kind, params, expected)


def suite_cases(n_q: int | None = None) -> list[SuiteCase]:
    cases: list[SuiteCase] = [SuiteCase("theta-layer", "theta", (THETA_LAYER_ORDER,))]
    for k, l in product((1, 2, 3), (1, 2, 3, 4)):
        for tid in ("3.1", "3.2"):
            cases.append(SuiteCase(f"{tid} k={k} l={l}", "theorem", (tid, k, l, n_q)))
        cases.append(SuiteCase(f"crosscheck spin4k k={k} l={l}", "crosscheck", ("spin4k", k, l, n_q)))
        cases.append(SuiteCase(f"structural spin4k k={k} l={l}", "structural", ("spin4k", k, l, n_q)))
    for l in (1, 2, 3, 4):
        cases.append(SuiteCase(f"3.3 l={l}", "theorem", ("3.3", 2, l, n_q)))
        cases.append(SuiteCase(f"3.4 l={l}", "theorem", ("3.4", 3, l, n_q)))
    for k, l in product((1, 2), (1, 2, 3)):
        for tid in ("4.1", "4.2"):
            cases.append(SuiteCase(f"{tid} k={k} l={l}", "theorem", (tid, k, l, n_q)))
        cases.append(SuiteCase(f"crosscheck spinc4k k={k} l={l}", "crosscheck", ("spinc4k", k, l, n_q)))
        cases.append(SuiteCase(f"structural spinc4k k={k} l={l}", "structural", ("spinc4k", k, l, n_q)))
    for k, l in product((1, 2), (1, 2)):
        for tid in ("4.6", "4.8"):
            cases.append(SuiteCase(f"{tid} k={k} l={l}", "theorem", (tid, k, l, n_q)))
        cases.append(SuiteCase(f"crosscheck spinc4k2 k={k} l={l}", "crosscheck", ("spinc4k2", k, l, n_q)))
        cases.append(SuiteCase(f"structural spinc4k2 k={k} l={l}", "structural", ("spinc4k2", k, l, n_q)))
    for cor in anomaly.DIVISIBILITY_IDS:
        expected = "GAP" if cor == "4.9" else "PASS"
        for m in (0, 1):
            cases.append(SuiteCase(f"divisibility {cor} m={m}", "divisibility", (cor, m), expected))
    return cases


def _theta_layer_report(order: int) -> dict:
    checks = {}
    checks["jacobi_identity"] = {"zero": not jacobi_residual(order), "gating": True}
    for name, pins in _LEADING.items():
        series = delta_eps(name, order)
        ok = all(series.coefficient(k) == c for k, c in pins)
        checks[f"{name}_leading_terms"] = {"zero": ok, "gating": True}
    status = "PASS" if all(c["zero"] for c in checks.values()) else "FAIL"
    return {"schema": 1, "case": "theta-layer", "order": order, "status": status, "checks": checks}


def _crosscheck_report(case: SuiteCase) -> dict:
    """One cross-check residual per P through ``q^1``, read at q^0, q^(1/2) and q^1."""
    setting = anomaly.make_setting(*case.params)
    checks = {}
    for which in ("P1", "P2"):
        residual = anomaly.cross_check_bundle_expansion(setting, which, 1)
        for units in (0, HALF_UNIT, Q_UNIT):
            checks[f"{which}@q^({Fraction(units, Q_UNIT)})"] = anomaly.Check(residual.coefficient(units))
    return _setting_report(case, setting, checks)


def _structural_report(case: SuiteCase) -> dict:
    setting = anomaly.make_setting(*case.params)
    return _setting_report(case, setting, anomaly.structural_checks(setting))


def _setting_report(case: SuiteCase, setting: anomaly.Setting, checks: dict[str, anomaly.Check]) -> dict:
    """A setting row: its checks in the order given, each rendered as in a verify report."""
    status = "FAIL" if any(c.gating and not c.zero for c in checks.values()) else "PASS"
    return {"schema": 1, "case": case.case_id, "setting": setting.to_json_obj(), "status": status,
            "checks": {name: c.to_json_obj() for name, c in checks.items()}}


def run_case(case: SuiteCase) -> dict:
    if case.kind == "theta":
        report = _theta_layer_report(*case.params)
    elif case.kind == "theorem":
        tid, k, l, n_q = case.params
        report = anomaly.verify_theorem(tid, k=k, l=l, n_q=n_q).to_json_obj()
        report["case"] = case.case_id
    elif case.kind == "crosscheck":
        report = _crosscheck_report(case)
    elif case.kind == "structural":
        report = _structural_report(case)
    elif case.kind == "divisibility":
        cor, m = case.params
        report = anomaly.divisibility_check(cor, m).to_json_obj()
        report["case"] = case.case_id
        report["status"] = report.pop("outcome")
    else:
        raise ValueError(f"unknown case kind {case.kind}")
    status = report["status"]
    ok = status == case.expected or (case.expected == "PASS" and status == "PASS_WITH_VARIANT")
    return {"case": case.case_id, "expected": case.expected, "status": status,
            "ok": ok, "report": report}


def _shards(cases: list[SuiteCase]) -> list[list[int]]:
    """Case positions grouped by (kind, k, n_q) family, heaviest first.

    Each theorem, cross-check and structural case's :class:`~anomcancel.anomaly.Setting`
    is built here, in grid order and before anything forks, so a bad order raises
    in the caller as in a serial run.  A family weighs its case count times its
    setting's weight; ties keep grid order.  That ranks the seven families as
    their cold in-process times do (3.1 k=3 18.5 ms, 3.1 k=2 13.0, 4.1 k=2
    11.5, 4.6 k=2 7.5, 3.1 k=1 6.2, 4.1 k=1 5.9, 4.6 k=1 3.9).  Corollaries
    3.3 and 3.4 carry their pinned k, so they join that spin family; the theta
    layer and each audit are shards of their own, last.
    """
    groups: dict[object, tuple[int, list[int]]] = {}
    for i, case in enumerate(cases):
        if case.kind in ("theorem", "crosscheck", "structural"):
            first, k, l, n_q = case.params      # first: a theorem id or a setting kind
            s = anomaly.make_setting(anomaly._THEOREM_KIND.get(first, first), k, l, n_q)
            key, weight = (s.kind, s.k, s.n_q), s.weight
        else:
            key, weight = case.case_id, 0
        groups.setdefault(key, (weight, []))[1].append(i)
    ranked = sorted(groups.values(), key=lambda g: g[0] * len(g[1]), reverse=True)
    return [idx for _, idx in ranked]


def _pull(queue: int, tasks: list[list[SuiteCase]]) -> list:
    """``[number, results]`` for each task number read off the ``queue`` pipe until it is empty."""
    done = []
    while record := os.read(queue, _RECORD):
        n = int.from_bytes(record, "little")
        done.append([n, [run_case(c) for c in tasks[n]]])
    return done


def _run_forked(workers: int, tasks: list[list[SuiteCase]]) -> list:
    """``[number, results]`` for every task, from this process and ``workers - 1`` forked ones.

    For the length of the call, each process runs pinned to one CPU of this
    process's affinity mask: this one to the first, forked worker ``i`` to the
    ``i``-th (modulo the mask's size); the mask is restored on return and on
    raise.  Left alone, the kernel kept each forked worker on its parent's CPU
    on a 2-vCPU host, so the two time-sliced one CPU while the other idled: the
    suite at ``parallel=2`` took 57-80 ms in process, against 42-45 ms pinned.
    Where ``os.sched_setaffinity`` is missing, nothing is pinned.

    A child sends its pairs as JSON on a pipe of its own once the work pipe is
    empty, or, if it raised, its traceback, which is raised here as ``RuntimeError``.
    No child outlives the call.
    """
    import json                         # here, not at the top: it costs every cold import ~2 ms
    pin = getattr(os, "sched_setaffinity", None)
    mask = os.sched_getaffinity(0) if pin else set()
    cpus = sorted(mask)
    queue, fill = os.pipe()
    os.write(fill, b"".join(n.to_bytes(_RECORD, "little") for n in range(len(tasks))))
    os.close(fill)
    children: dict[int, int] = {}      # pid -> read end of its result pipe, until reaped
    try:
        if pin:
            pin(0, {cpus[0]})
        for i in range(1, workers):
            reply, send = os.pipe()
            pid = os.fork()
            if pid == 0:                # the child never returns into the caller's stack
                code = 1
                try:
                    try:
                        text, code = json.dumps(_pull(queue, tasks)), 0
                    except Exception:
                        import traceback
                        text = traceback.format_exc()
                    with open(send, "w", encoding="utf-8") as out:
                        out.write(text)
                finally:
                    os._exit(code)
            os.close(send)
            children[pid] = reply
            if pin:                     # from here: a self-pinning child first waits for this CPU
                pin(pid, {cpus[i % len(cpus)]})
        done = _pull(queue, tasks)
        for pid in list(children):
            with open(children[pid], encoding="utf-8", closefd=False) as answer:
                text = answer.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if status:
                raise RuntimeError(f"suite worker exited with status {status}:\n{text}")
            done += json.loads(text)
        return done
    finally:
        os.close(queue)
        for pid, reply in children.items():    # left only when something raised
            import signal               # here, not at the top: it costs every cold import ~1 ms
            os.close(reply)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        if pin:
            pin(0, mask)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask's size where the OS keeps one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def run_suite(n_q: int | None = None, parallel: int = 1) -> dict:
    """Run the whole grid; the result dict is deterministic and JSON-ready.

    ``parallel`` asks for that many processes, this one included; at most one
    per CPU this process may run on (:func:`_usable_cpus`) and one per shard
    compute, and only this one where ``os.fork`` is missing.  With more than
    one, each runs pinned to its own CPU of this process's affinity mask,
    which is restored before the call returns or raises (``_run_forked``).
    The result is byte-identical at every count.
    """
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    cases = suite_cases(n_q)
    shards = _shards(cases)
    workers = min(parallel, _usable_cpus(), len(shards))
    if workers > 1 and hasattr(os, "fork"):
        results: list = [None] * len(cases)
        for n, shard_results in _run_forked(workers, [[cases[i] for i in idx] for idx in shards]):
            for i, r in zip(shards[n], shard_results):
                results[i] = r
    else:
        results = [run_case(c) for c in cases]
    counts = {"PASS": 0, "PASS_WITH_VARIANT": 0, "GAP": 0, "FAIL": 0}
    for r in results:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
    return {
        "schema": 1,
        "cases": results,
        "summary": {
            "total": len(results),
            "ok": sum(1 for r in results if r["ok"]),
            "not_ok": sum(1 for r in results if not r["ok"]),
            "by_status": counts,
            "variants": [r["case"] for r in results if r["status"] == "PASS_WITH_VARIANT"],
            "expected_gaps": [r["case"] for r in results
                              if r["status"] == "GAP" and r["expected"] == "GAP"],
        },
        "all_ok": all(r["ok"] for r in results),
    }


def render_suite_text(result: dict) -> str:
    """Human-readable table, derived from the JSON result."""
    lines = []
    width = max(len(r["case"]) for r in result["cases"]) + 2
    for r in result["cases"]:
        flag = "ok" if r["ok"] else "NOT-OK"
        lines.append(f"{r['case']:<{width}} {r['status']:<18} [{flag}]")
    s = result["summary"]
    lines.append("")
    lines.append(f"total={s['total']} ok={s['ok']} not_ok={s['not_ok']} "
                 f"pass={s['by_status'].get('PASS', 0)} "
                 f"variant={s['by_status'].get('PASS_WITH_VARIANT', 0)} "
                 f"gap={s['by_status'].get('GAP', 0)} fail={s['by_status'].get('FAIL', 0)}")
    if s["variants"]:
        lines.append("variant readings: " + ", ".join(s["variants"]))
    if s["expected_gaps"]:
        lines.append("expected gaps confirmed: " + ", ".join(s["expected_gaps"]))
    return "\n".join(lines)


def suite_json(obj) -> str:
    """``obj`` as the exact text of ``json.dumps(obj, indent=2)``, which never uses ``json``'s C encoder.

    One recursive pass: 3.4 ms on the suite's report against ``json``'s 7.4 ms (2-vCPU Xeon, Python
    3.11).  Strings go through ``json``'s C escaper; numbers and constants are spelled as ``json`` does.
    Any other type, or a key that is not a ``str``, raises ``TypeError``: the text never differs from ``json``'s.
    """
    from json.encoder import encode_basestring_ascii as quote   # here: json costs every cold import ~2 ms
    out: list[str] = []
    put = out.append

    def write(x, pad: str):         # pad: a newline and the enclosing indent
        kind = type(x)
        if kind is str:
            put(quote(x))
        elif kind is int or kind is float:
            text = kind.__repr__(x)
            put(_NONFINITE.get(text, text))
        elif x is None or kind is bool:
            put("null" if x is None else "true" if x else "false")
        elif kind is dict and x:
            inner, sep = pad + "  ", "{"
            for key, value in x.items():
                if type(key) is not str:
                    raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
                put(f"{sep}{inner}{quote(key)}: ")
                write(value, inner)
                sep = ","
            put(pad + "}")
        elif (kind is list or kind is tuple) and x:
            inner, sep = pad + "  ", "["
            for value in x:
                put(sep + inner)
                write(value, inner)
                sep = ","
            put(pad + "]")
        elif kind is dict or kind is list or kind is tuple:
            put("{}" if kind is dict else "[]")
        else:
            raise TypeError(f"{kind.__name__} is not JSON: only str, int, float, bool, None, dict, list, tuple are")

    write(obj, "\n")
    return "".join(out)
