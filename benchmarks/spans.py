"""Spans and counters around anomcancel's public entry points, from outside.

``Tracer.install`` wraps each entry point below and rebinds the wrapper
everywhere the function is looked up: its defining module and every module
that imported it by name (``anomaly`` imports ``prod_over_roots``,
``theta_factor`` and ``decompose`` that way, so patching only the defining
module would miss most calls).  Each distinct function gets a wrapper of its
own; a wrapper never serves two functions.

Spans are kept in memory as ``[id, parent, op, name, start_ns, end_ns, pid]``
and written once, at the end, as Chrome trace-event JSON (``chrome_trace``),
which Perfetto and chrome://tracing open.  A span's self time is its length
minus the length of its child spans.

Pool workers forked by ``run_suite`` inherit the installed wrappers; the
``run_case`` wrapper ships each worker's spans and counters back inside the
case result, and ``absorb_children`` takes them out again.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

# (module, function) -> span named "<module>.<function>"
SPANNED = (
    ("theta", "theta_factor"), ("theta", "theta_null"),
    ("modforms", "delta_eps"), ("modforms", "basis_element"),
    ("modforms", "decompose"), ("modforms", "transfer_residual"),
    ("genus", "prod_over_roots"), ("genus", "eval_at_var"),
    ("genus", "apply_constraint"), ("genus", "classical_genus"),
    ("kvirt", "theta_object"), ("kvirt", "lambda_string"),
    ("anomaly", "verify_theorem"), ("anomaly", "cross_check_bundle_expansion"),
    ("anomaly", "structural_checks"), ("anomaly", "divisibility_check"),
)
# (module, class, method, span name)
SPANNED_METHODS = (("anomaly", "VerificationReport", "to_json_obj", "anomaly.report"),)
# binary products counted, not timed: (module, class, counter prefix, count term pairs)
COUNTED_PRODUCTS = (
    ("theta", "RootFactor", "theta.factor_mul", True),
    ("algebra", "GradedPolynomial", "algebra.poly_mul", True),
    ("qseries", "PuiseuxSeries", "qseries.series_mul", False),
)
CHILD_KEY = "_bench_trace"


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.counts: Counter = Counter()    # the product wrappers hold this object
        self._start_recording()
        self.op = None
        self.paused = False
        self.missing: list[str] = []
        self.originals: dict[str, object] = {}   # span name -> unwrapped function
        self._restore: list[tuple] = []
        self._next = 0

    def _start_recording(self):
        """Empty spans, counters and per-process memory of seen inputs."""
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.counts.clear()
        self.seen: dict[str, set] = {}
        self._keys: dict[int, tuple] = {}
        self.p2 = {"terms": 0, "max_coeff_bits": 0}

    # -- recording -------------------------------------------------------------

    def _open(self, name):
        self._next += 1
        rec = [self.pid * 10_000_000 + self._next, self.stack[-1][0] if self.stack else None,
               self.op, name, time.perf_counter_ns(), 0, self.pid]
        self.stack.append(rec)
        return rec

    def _close(self, rec):
        rec[5] = time.perf_counter_ns()
        self.stack.pop()
        self.spans.append(rec)

    @contextmanager
    def region(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def first_seen(self, name: str, key) -> bool:
        seen = self.seen.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def _content_key(self, x):
        """Hashable stand-in for an argument; series-like objects by content."""
        if type(x).__hash__ is not object.__hash__ or not hasattr(x, "terms"):
            return x
        hit = self._keys.get(id(x))
        if hit is None or hit[0] is not x:   # the object is kept alive, so ids stay unique
            hit = (x, (type(x).__name__, frozenset(x.terms.items()),
                       getattr(x, "z_bound", None), getattr(x, "q_bound", None)))
            self._keys[id(x)] = hit
        return hit[1]

    def note_p2(self, package, setting):
        """Size of the setting's P2: terms and largest coefficient bit length."""
        self.paused = True
        try:
            p2 = package.anomaly.build_P(setting, "P2")
        finally:
            self.paused = False
        terms = bits = 0
        for poly in p2.terms.values():
            for c in poly.terms.values():
                terms += 1
                bits = max(bits, coeff_bits(c))
        self.p2["terms"] = max(self.p2["terms"], terms)
        self.p2["max_coeff_bits"] = max(self.p2["max_coeff_bits"], bits)

    # -- wrappers ----------------------------------------------------------------

    def _spanned(self, fn, name, on_enter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if on_enter is not None:
                on_enter(args, kwargs)
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)
        return wrapper

    def _counted(self, fn, prefix, pairs):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(a, b, *rest):
            if isinstance(b, type(a)) and not self.paused:
                counts[prefix + ".calls"] += 1
                if pairs:
                    counts[prefix + ".term_pairs"] += len(a.terms) * len(b.terms)
            return fn(a, b, *rest)
        return wrapper

    def _hooks(self):
        def factor_key(args, kwargs):
            self.counts["theta.theta_factor.calls"] += 1
            if self.first_seen("theta_factor", (args, tuple(sorted(kwargs.items())))):
                self.counts["theta.theta_factor.misses"] += 1

        def product_inputs(args, kwargs):
            self.counts["genus.prod_over_roots.calls"] += 1
            key = (tuple(self._content_key(a) for a in args),
                   tuple((k, self._content_key(v)) for k, v in sorted(kwargs.items())))
            if not self.first_seen("prod_over_roots", key):
                self.counts["genus.prod_over_roots.repeat_calls"] += 1

        return {"theta.theta_factor": factor_key, "genus.prod_over_roots": product_inputs}

    def _get_env_counter(self, fn, anomaly):
        @functools.wraps(fn)
        def wrapper(setting, *rest, **kwargs):
            if not self.paused:
                self.counts["anomaly.get_env.calls"] += 1
                memo = getattr(anomaly, "_env_cache", None)
                miss = (setting not in memo) if memo is not None else self.first_seen("get_env", setting)
                if miss:
                    self.counts["anomaly.get_env.misses"] += 1
            return fn(setting, *rest, **kwargs)
        return wrapper

    def _run_case(self, fn, package):
        tracer = self

        @functools.wraps(fn)
        def wrapper(case, *rest, **kwargs):
            pid = os.getpid()
            if pid != tracer.pid:          # first case in a forked pool worker
                tracer.pid = pid
                tracer._start_recording()
            child = pid != tracer.parent_pid
            tracer.op = case.case_id
            with tracer.region(f"suite.run_case.{case.kind}"):
                result = fn(case, *rest, **kwargs)
            tracer.op = None
            setting = result["report"].get("setting")
            if setting is not None and "kind" in setting:
                tracer.note_p2(package, package.anomaly.make_setting(
                    setting["kind"], setting["k"], setting["l"], setting["n_q"]))
            if child:
                result = dict(result)
                result[CHILD_KEY] = tracer.drain()
            return result
        return wrapper

    def drain(self) -> dict:
        out = {"spans": self.spans, "counts": dict(self.counts), "p2": dict(self.p2)}
        self.spans = []
        self.counts.clear()
        return out

    def absorb_children(self, case_results: list[dict]) -> None:
        """Move spans and counters shipped back by pool workers into this tracer."""
        for r in case_results:
            shipped = r.pop(CHILD_KEY, None)
            if shipped is None:
                continue
            self.spans.extend(shipped["spans"])
            self.counts.update(shipped["counts"])
            for k, v in shipped["p2"].items():
                self.p2[k] = max(self.p2[k], v)

    # -- installation --------------------------------------------------------------

    def install(self, package, count_products: bool = True) -> None:
        """Wrap every entry point of ``package`` (the imported ``anomcancel``).

        ``count_products=False`` leaves the binary products unwrapped; under
        cProfile their shared wrapper would sit between nested products and
        hide which entry point their time belongs to.
        """
        self.parent_pid = self.pid
        mods = {m: importlib.import_module(f"{package.__name__}.{m}")
                for m in ("theta", "modforms", "genus", "kvirt", "anomaly", "algebra",
                          "qseries", "suite")}
        hooks = self._hooks()
        wrappers: dict[int, tuple] = {}     # id(original) -> (original, wrapper)

        def add(mod, attr, make):
            fn = getattr(mods[mod], attr, None)
            if fn is None:
                self.missing.append(f"{mod}.{attr}")
                return
            wrappers[id(fn)] = (fn, make(fn))

        for mod, attr in SPANNED:
            name = f"{mod}.{attr}"
            fn = getattr(mods[mod], attr, None)
            if fn is not None:
                self.originals[name] = fn
            add(mod, attr, lambda fn, name=name: self._spanned(fn, name, hooks.get(name)))
        add("anomaly", "get_env", lambda fn: self._get_env_counter(fn, mods["anomaly"]))
        add("suite", "run_case", lambda fn: self._run_case(fn, package))

        prefix = package.__name__
        for module in [m for n, m in list(sys.modules.items())
                       if m is not None and (n == prefix or n.startswith(prefix + "."))]:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

        for mod, cls_name, meth, name in SPANNED_METHODS:
            cls = getattr(mods[mod], cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            self.originals[name] = vars(cls)[meth]
            self._patch(cls, meth, self._spanned(vars(cls)[meth], name))
        for mod, cls_name, prefix_name, pairs in COUNTED_PRODUCTS if count_products else ():
            cls = getattr(mods[mod], cls_name, None)
            if cls is None or "__mul__" not in vars(cls):
                self.missing.append(f"{mod}.{cls_name}.__mul__")
                continue
            self._patch(cls, "__mul__", self._counted(vars(cls)["__mul__"], prefix_name, pairs))

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def coeff_bits(c) -> int:
    """Largest numerator or denominator bit length of an exact scalar."""
    parts = (c.re, c.im) if hasattr(c, "re") else (c,)
    return max(max(abs(Fraction(p).numerator).bit_length(), Fraction(p).denominator.bit_length())
               for p in parts)


def summarize(spans) -> dict[str, list[int]]:
    """Per span name: ``[calls, total_ns, self_ns]``."""
    child_ns: Counter = Counter()
    for s in spans:
        if s[1] is not None:
            child_ns[s[1]] += s[5] - s[4]
    out: dict[str, list[int]] = {}
    for s in spans:
        dur = s[5] - s[4]
        agg = out.setdefault(s[3], [0, 0, 0])
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_ns[s[0]]
    return out


def chrome_trace(spans, meta: dict) -> dict:
    """Chrome trace-event JSON: one complete ("X") event per span, times in us."""
    t0 = min((s[4] for s in spans), default=0)
    events = [{"name": name, "cat": name.split(".")[0], "ph": "X",
               "ts": (start - t0) / 1000, "dur": (end - start) / 1000,
               "pid": pid, "tid": pid,
               "args": {"span": sid, "parent": parent, "op": op}}
              for sid, parent, op, name, start, end, pid in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}
