"""End-to-end verification of the cancellation identities.

For each setting (spin dim-4k, spin^c dim-4k, spin^c dim-4k+2) the engine

1. assembles the three P-series from the closed-form logs of the normalized
   theta factors: the setting's first-class relation acts on each root
   family's power sums, the logs on the tangent roots and the line are
   exponentiated together, and only the pairs of weights that add up to the
   top weight are multiplied with the auxiliary factor;
2. decomposes P2 over the triangular half-integer basis, solving the h_r and
   checking the residual against every computed order;
3. checks the transfer identity ``P1 = 2^l sum h_r (8 delta1)^(k-2r) eps1^r``;
4. compares the constant and q^1 coefficients of P1 with the identity's two
   sides, built independently from classical genera and the lambda-ring
   bundle path;
5. audits the 2-adic divisibility claims that follow from the 2-power
   prefactors of the h_r.

All comparisons are exact equalities of graded polynomials; a report's status
is PASS only when every gating residual is identically zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .algebra import AlgebraError, GradedPolynomial
from .genus import (FAMILY_TM, FAMILY_V, LINE, RootFamily, apply_constraint,
                    build_generator_table, classical_genus, constrained_power_sums,
                    exp_by_weight)
from .genus import prod_over_roots  # not called here: kept as the alias the benchmark tracer wraps
from .kvirt import (aux_bundle, character_series, lambda_string,
                    line_pair_bundle, tangent_bundle, theta_object)
from .modforms import (GROUP_UPPER, Decomposition, basis_element, decompose,
                       transfer_residual)
from .qseries import PuiseuxSeries
from .theta import Q_UNIT, RootFactor, theta_log
from .theta import theta_factor  # not called here: kept as the alias the benchmark tracer wraps

SETTING_KINDS = ("spin4k", "spinc4k", "spinc4k2")
THEOREM_IDS = ("3.1", "3.2", "3.3", "3.4", "4.1", "4.2", "4.6", "4.8")
DIVISIBILITY_IDS = ("3.6", "3.8", "4.4", "4.5", "4.9", "4.10")

# theorem id -> setting kind (corollaries 3.3/3.4 pin k as well)
_THEOREM_KIND = {
    "3.1": "spin4k", "3.2": "spin4k", "3.3": "spin4k", "3.4": "spin4k",
    "4.1": "spinc4k", "4.2": "spinc4k", "4.6": "spinc4k2", "4.8": "spinc4k2",
}
_COROLLARY_K = {"3.3": 2, "3.4": 3}

# divisibility corollary -> (setting kind, claimed 2-adic exponent, q1-flavored)
_DIV_TABLE = {
    "3.6": ("spin4k", 4, False),
    "3.8": ("spin4k", 9, True),
    "4.4": ("spinc4k", 4, False),
    "4.5": ("spinc4k", 9, True),
    "4.9": ("spinc4k2", 5, False),
    "4.10": ("spinc4k2", 10, True),
}


@dataclass(frozen=True)
class Setting:
    """One verification instance: manifold family, sizes, series order."""

    kind: str
    k: int
    l: int
    n_q: int

    def __post_init__(self):
        if self.kind not in SETTING_KINDS:
            raise AlgebraError(f"unknown setting kind {self.kind!r}")
        if self.k < 1 or self.l < 1:
            raise AlgebraError("k and l must be >= 1")
        if self.n_q < self.k + 2:
            raise AlgebraError(
                f"q-order {self.n_q} is insufficient for k={self.k}: need at least "
                f"{self.k + 2} so the residual is over-determined well beyond the "
                f"{self.k // 2 + 1} solved coefficients")

    @property
    def weight(self) -> int:
        return 2 * self.k + (1 if self.kind == "spinc4k2" else 0)

    @property
    def dim(self) -> int:
        return 2 * self.weight

    @property
    def tm_roots(self) -> int:
        return 2 * self.k + (1 if self.kind == "spinc4k2" else 0)

    @property
    def spin_c(self) -> bool:
        return self.kind != "spin4k"

    def to_json_obj(self):
        return {"kind": self.kind, "k": self.k, "l": self.l,
                "n_q": self.n_q, "weight": self.weight, "dim": self.dim}


def make_setting(kind: str, k: int, l: int, n_q: int | None = None) -> Setting:
    return Setting(kind, k, l, (2 * k + 4) if n_q is None else n_q)


_env_cache: dict[Setting, "_Env"] = {}


class _Env:
    """Tables, genera, factor products and decomposition for one setting."""

    def __init__(self, s: Setting):
        self.setting = s
        W = s.weight
        self.table = build_generator_table(s.tm_roots, s.l, s.spin_c, W)
        self.tm = RootFamily(FAMILY_TM, s.tm_roots)
        self.v = RootFamily(FAMILY_V, s.l)
        self.gp_zero = GradedPolynomial.zero(self.table, W)
        self.gp_one = GradedPolynomial.one(self.table, W)
        self.ahat = classical_genus("ahat", self.tm, self.table, W)
        self.ch_delta_m = classical_genus("spinor_ch", self.tm, self.table, W)
        self.ch_delta_v = classical_genus("spinor_ch", self.v, self.table, W)
        self.tangent = tangent_bundle(s.tm_roots, self.table, W)
        self.aux = aux_bundle(s.l, self.table, W)
        self.line = line_pair_bundle(self.table, W) if s.spin_c else None
        self.exp_half_c = classical_genus("exp_half_c", self.tm, self.table, W) if s.spin_c else None
        self.tm_sums = constrained_power_sums(self.tm, s.kind, self.table, W)
        self.v_sums = constrained_power_sums(self.v, s.kind, self.table, W)
        self.line_sums = constrained_power_sums(LINE, s.kind, self.table, W) if s.spin_c else None
        self._p: dict[str, PuiseuxSeries] = {}
        self._decomp: Decomposition | None = None
        self._kvirt: dict[str, PuiseuxSeries] = {}

    # -- theta path ---------------------------------------------------------

    def _exp(self, logs) -> list[PuiseuxSeries]:
        """The weight pieces of an exp over the setting's power sums; piece n has weight 2n."""
        s = self.setting
        bound, pieces = exp_by_weight(logs, self.table, s.weight, s.n_q)
        return [PuiseuxSeries(f, bound, self.gp_zero) for f in pieces]

    def _log(self, kind: str) -> RootFactor:
        return theta_log(kind, self.setting.n_q, self.setting.weight)

    @cached_property
    def _core(self) -> dict[int, PuiseuxSeries]:
        """Weight -> the weight's part of the constrained P-series without the auxiliary factor."""
        s = self.setting
        a = self._log("a")
        if s.kind == "spin4k":
            # 2^n * sum_i prod_TM a*t_i: one exp of a summed log per i
            parts = zip(*(self._exp([(a + self._log(t), self.tm_sums)]) for t in ("t1", "t2", "t3")))
            return {2 * n: (f1 + f2 + f3).scale(2 ** s.tm_roots) for n, (f1, f2, f3) in enumerate(parts)}
        if s.kind == "spinc4k":
            t123 = self._log("t1") + self._log("t2") + self._log("t3")
            return {2 * n: f for n, f in enumerate(self._exp([(a, self.tm_sums), (t123, self.line_sums)]))}
        # spinc4k2: the odd factor times sqrt(-1), i*d(u) = w*exp(log(d/z) at u), which is real
        w = GradedPolynomial.generator("w", self.table, s.weight)
        pieces = self._exp([(a, self.tm_sums), (self._log("d"), self.line_sums)])
        return {2 * n + 1: f.scale(w) for n, f in enumerate(pieces)}

    def p_series(self, which: str) -> PuiseuxSeries:
        """Top-weight component of P1/P2/P3 with the constraint applied.

        The relation is already on the power sums, and each q-position is one
        :func:`dot` over the pairs (core at weight ``W - b``, auxiliary factor
        at weight ``b``), so every pair visited lands at weight ``W``.
        """
        cached = self._p.get(which)
        if cached is not None:
            return cached
        s = self.setting
        core = self._core
        aux = self._exp([(self._log({"P1": "t1", "P2": "t2", "P3": "t3"}[which]), self.v_sums)])
        bound = min(f.order_bound for f in (*core.values(), *aux))   # both start at q^0
        pairs: dict[int, list] = {}
        for n, f in enumerate(aux):
            for k2, v in f.terms.items():
                for k1, c in core[s.weight - 2 * n].terms.items():
                    if k1 + k2 <= bound:
                        pairs.setdefault(k1 + k2, []).append((c, v))
        unit = 2 ** s.l if which == "P1" else 1
        series = PuiseuxSeries({k: self.gp_zero.dot(ps, [unit] * len(ps)) for k, ps in pairs.items()},
                               bound, self.gp_zero)
        self._p[which] = series
        return series

    def decomposition(self) -> Decomposition:
        if self._decomp is None:
            self._decomp = decompose(self.p_series("P2"), self.setting.k)
        return self._decomp

    # -- bundle path ----------------------------------------------------------

    def kvirt_series(self, which: str, order: int = 1) -> PuiseuxSeries:
        """P-series rebuilt from lambda-ring strings (low order, unconstrained)."""
        key = f"{which}@{order}"
        cached = self._kvirt.get(key)
        if cached is not None:
            return cached
        s = self.setting
        vt = self.aux.reduced()
        if which == "P1":
            twist = lambda_string(vt, False, +1, order)
            twist_gp = character_series(twist).scale(self.ch_delta_v)
        elif which == "P2":
            twist_gp = character_series(lambda_string(vt, True, -1, order))
        else:
            twist_gp = character_series(lambda_string(vt, True, +1, order))
        if s.kind == "spin4k":
            th1 = character_series(theta_object("theta1", self.tangent, None, order))
            th2 = character_series(theta_object("theta2", self.tangent, None, order))
            th3 = character_series(theta_object("theta3", self.tangent, None, order))
            msum = th1.scale(self.ch_delta_m) + (th2 + th3).scale(2 ** (2 * s.k))
            out = msum.scale(self.ahat)
        elif s.kind == "spinc4k":
            thc = character_series(theta_object("theta_c", self.tangent, self.line, order))
            out = thc.scale(self.ahat * self.exp_half_c)
        else:
            thcs = character_series(theta_object("theta_c_star", self.tangent, self.line, order))
            out = thcs.scale(self.ahat * self.exp_half_c)
        out = out * twist_gp
        self._kvirt[key] = out
        return out

    # -- identity sides ---------------------------------------------------------

    def constant_term_lhs(self) -> GradedPolynomial:
        """Left side of the constant-term identity, from classical genera."""
        s = self.setting
        if s.kind == "spin4k":
            form = self.ahat * (self.ch_delta_m * self.ch_delta_v
                                + self.ch_delta_v.scale(2 ** (2 * s.k + 1)))
        else:
            form = self.ahat * self.exp_half_c * self.ch_delta_v
        return apply_constraint(form.component(s.weight), s.kind)

    def q1_lhs(self) -> GradedPolynomial:
        """Left side of the q^1 identity (the printed bundle combination)."""
        s = self.setting
        k24 = GradedPolynomial.scalar(24 * s.k, self.table, s.weight)
        tt = self.tangent.reduced()
        vv = self.aux.reduced()
        if s.kind == "spin4k":
            comb1 = tt.ch.scale(2) + vv.ch - k24
            comb2 = tt.ch + tt.lambda_power(2).ch + vv.ch - k24
            form = (self.ahat * self.ch_delta_m * self.ch_delta_v * comb1
                    + (self.ahat * self.ch_delta_v * comb2).scale(2 ** (2 * s.k + 1)))
        elif s.kind == "spinc4k":
            ll = self.line.reduced()
            comb = (tt.ch + ll.ch + ll.lambda_power(2).ch.scale(2)
                    - (ll * ll).ch + vv.ch - k24)
            form = self.ahat * self.exp_half_c * self.ch_delta_v * comb
        else:
            ll = self.line.reduced()
            comb = tt.ch - ll.ch + vv.ch - k24
            form = self.ahat * self.exp_half_c * self.ch_delta_v * comb
        return apply_constraint(form.component(s.weight), s.kind)

    def rhs_constant(self, h: list[GradedPolynomial]) -> GradedPolynomial:
        s = self.setting
        out = self.gp_zero
        for r, hr in enumerate(h):
            out = out + hr.scale(Fraction(2 ** (s.l + s.k), 64 ** r))
        return out

    def rhs_q1(self, h: list[GradedPolynomial]) -> GradedPolynomial:
        s = self.setting
        out = self.gp_zero
        for r, hr in enumerate(h):
            if r:
                out = out - hr.scale(r * Fraction(2 ** (s.l + s.k + 6), 64 ** r))
        return out


def get_env(setting: Setting) -> _Env:
    env = _env_cache.get(setting)
    if env is None:
        env = _Env(setting)
        _env_cache[setting] = env
    return env


def build_P(setting: Setting, which: str) -> PuiseuxSeries:
    """Top-weight, constraint-applied P-series for the setting."""
    if which not in ("P1", "P2", "P3"):
        raise AlgebraError(f"unknown P-series {which!r}")
    return get_env(setting).p_series(which)


def decompose_setting(setting: Setting) -> Decomposition:
    return get_env(setting).decomposition()


def cross_check_bundle_expansion(setting: Setting, exponent_units: int,
                                 which: str = "P1") -> GradedPolynomial:
    """Theta-path coefficient minus the lambda-ring path, at one q-exponent.

    Both paths are reduced to the top-weight component under the setting's
    constraint; the difference must vanish identically.
    """
    env = get_env(setting)
    theta_side = env.p_series(which).coefficient(exponent_units)
    kv = env.kvirt_series(which, order=max(1, exponent_units // Q_UNIT))
    bundle_side = apply_constraint(
        kv.coefficient(exponent_units).component(setting.weight), setting.kind)
    return theta_side - bundle_side


# -- reports ---------------------------------------------------------------------


@dataclass
class Check:
    value: object            # GradedPolynomial or PuiseuxSeries
    gating: bool = True
    note: str = ""

    @property
    def zero(self) -> bool:
        v = self.value
        return v.is_zero() if isinstance(v, PuiseuxSeries) else not bool(v)


@dataclass
class VerificationReport:
    theorem: str
    setting: Setting
    checks: dict[str, Check] = field(default_factory=dict)
    h: list[GradedPolynomial] = field(default_factory=list)
    solve_coeffs: list[list[Fraction]] = field(default_factory=list)
    solve_integral: bool = True
    variant_notes: list[str] = field(default_factory=list)
    elapsed: float | None = None

    @property
    def status(self) -> str:
        for c in self.checks.values():
            if c.gating and not c.zero:
                return "FAIL"
        if not self.solve_integral:
            return "FAIL"
        return "PASS_WITH_VARIANT" if self.variant_notes else "PASS"

    def to_json_obj(self, basis: str = "standard", include_timings: bool = False):
        def render(p: GradedPolynomial):
            return p.to_standard_basis().to_text() if basis == "standard" else p.to_text()

        checks = {}
        for name, c in sorted(self.checks.items()):
            entry = {"zero": c.zero, "gating": c.gating}
            if c.note:
                entry["note"] = c.note
            if not c.zero:
                v = c.value
                entry["value"] = v.to_text() if hasattr(v, "to_text") else str(v)
            checks[name] = entry
        obj = {
            "schema": 1,
            "theorem": self.theorem,
            "setting": self.setting.to_json_obj(),
            "status": self.status,
            "h_normalized": [p.to_text() for p in self.h],
            "h_standard": [p.to_standard_basis().to_text() for p in self.h],
            "checks": checks,
            "solve_coeffs": [[str(x) for x in row] for row in self.solve_coeffs],
            "solve_integral": self.solve_integral,
            "variant_notes": list(self.variant_notes),
        }
        if basis == "normalized":
            obj.pop("h_standard")
        if include_timings and self.elapsed is not None:
            obj["elapsed_seconds"] = round(self.elapsed, 3)
        return obj


def _imag_part(p: GradedPolynomial) -> GradedPolynomial:
    terms = {e: c.imag for e, c in p.terms.items() if c.imag}
    return GradedPolynomial(p.table, terms, p.max_weight)


def _reality_residual(env: _Env, polys: list[GradedPolynomial]) -> GradedPolynomial:
    out = env.gp_zero
    for p in polys:
        std = p.to_standard_basis()
        bad = _imag_part(std)
        if bad:
            out = out + bad.from_standard_basis(env.table)
    return out


def _pipeline(report: VerificationReport, env: _Env):
    dec = env.decomposition()
    report.h = dec.h
    report.solve_coeffs = dec.solve_coeffs
    report.solve_integral = dec.integral_solve
    report.checks["decomposition_residual"] = Check(dec.residual)
    p1 = env.p_series("P1")
    report.checks["transfer_residual"] = Check(
        transfer_residual(p1, dec.h, env.setting.l, env.setting.k))
    return dec, p1


def verify_theorem(theorem: str, k: int | None = None, l: int = 1,
                   n_q: int | None = None) -> VerificationReport:
    """Run the full exact verification for one identity id."""
    import time
    t0 = time.perf_counter()
    if theorem in DIVISIBILITY_IDS:
        raise AlgebraError(
            f"{theorem} is a divisibility audit; use divisibility_check")
    if theorem not in THEOREM_IDS:
        raise AlgebraError(f"unknown theorem id {theorem!r}")
    kind = _THEOREM_KIND[theorem]
    if theorem in _COROLLARY_K:
        if k is not None and k != _COROLLARY_K[theorem]:
            raise AlgebraError(f"{theorem} fixes k = {_COROLLARY_K[theorem]}")
        k = _COROLLARY_K[theorem]
    if k is None:
        raise AlgebraError("k is required")
    setting = make_setting(kind, k, l, n_q)
    env = get_env(setting)
    report = VerificationReport(theorem, setting)

    if theorem in ("3.1", "4.1", "4.6"):
        _verify_constant_term(report, env)
    elif theorem in ("3.2", "4.2", "4.8"):
        _verify_q1(report, env)
    else:
        _verify_corollary(report, env, theorem)

    if env.setting.spin_c:
        report.checks["reality_standard_basis"] = Check(
            _reality_residual(env, report.h + [env.p_series("P1").coefficient(0)]))
    report.elapsed = time.perf_counter() - t0
    return report


def _verify_constant_term(report: VerificationReport, env: _Env):
    dec, p1 = _pipeline(report, env)
    lhs = env.constant_term_lhs()
    rhs = env.rhs_constant(dec.h)
    report.checks["main_identity"] = Check(lhs - rhs)
    report.checks["p1_constant_term"] = Check(p1.coefficient(0) - lhs)
    report.checks["p1_half_coefficient"] = Check(p1.coefficient(4))
    s = env.setting
    if s.kind == "spin4k":
        # explicit forms of the two leading coefficients
        x = env.ahat * (env.ch_delta_m + GradedPolynomial.scalar(2 ** (2 * s.k + 1), env.table, s.weight))
        h0_expected = apply_constraint(x.component(s.weight), s.kind).scale((-1) ** s.k)
        report.checks["h0_closed_form"] = Check(dec.h[0] - h0_expected)
        if len(dec.h) > 1:
            vt = env.aux.reduced().ch + 24 * s.k
            h1_expected = apply_constraint((x * vt).component(s.weight), s.kind).scale((-1) ** (s.k + 1))
            report.checks["h1_closed_form"] = Check(dec.h[1] - h1_expected)


def _verify_q1(report: VerificationReport, env: _Env):
    dec, p1 = _pipeline(report, env)
    lhs = env.q1_lhs()
    rhs = env.rhs_q1(dec.h)
    report.checks["main_identity"] = Check(lhs - rhs)
    # direct q^1 coefficient of P1 against the two bundle-built sides
    expected_q1 = lhs + env.constant_term_lhs().scale(24 * env.setting.k)
    report.checks["p1_q1_coefficient"] = Check(p1.coefficient(Q_UNIT) - expected_q1)
    if env.setting.kind == "spinc4k":
        # the reduced and unreduced line combinations must agree exactly:
        # the trivial-summand corrections cancel across the four terms
        s = env.setting
        ll = env.line
        llr = ll.reduced()
        tt = env.tangent.reduced()
        vv = env.aux.reduced()
        k24 = GradedPolynomial.scalar(24 * s.k, env.table, s.weight)
        unred = tt.ch + ll.ch + ll.lambda_power(2).ch.scale(2) - (ll * ll).ch + vv.ch - k24
        red = tt.ch + llr.ch + llr.lambda_power(2).ch.scale(2) - (llr * llr).ch + vv.ch - k24
        report.checks["tilde_vs_untilde"] = Check(
            red - unred,
            note="reduced and unreduced line combinations have equal characters")
    if env.setting.kind == "spinc4k2":
        s = env.setting
        unred = (env.tangent.reduced().ch - env.line.ch + env.aux.reduced().ch
                 - GradedPolynomial.scalar(24 * s.k, env.table, s.weight))
        form = apply_constraint(
            (env.ahat * env.exp_half_c * env.ch_delta_v * unred).component(s.weight), s.kind)
        report.checks["unreduced_line_variant"] = Check(
            form - env.rhs_q1(dec.h), gating=False,
            note="q^1 combination with the unreduced line; differs from the exact "
                 "(reduced) form by twice the constant-term side")


def _verify_corollary(report: VerificationReport, env: _Env, theorem: str):
    """The two k-pinned corollaries, under the tangent-twist reading.

    As printed they compare the constant-term side against combinations in
    ``ch(T_C M)``.  Those are exact precisely when the auxiliary bundle's
    characters coincide with the tangent ones (auxiliary = tangent plus a
    trivial complement, rank parameter free), which also forces the first
    tangent class to vanish.  The verifier checks that reading exactly and
    records the residual of the literal independent-V reading alongside.
    """
    s = env.setting
    dec, _ = _pipeline(report, env)
    W = s.weight
    x = env.ahat * (env.ch_delta_m + GradedPolynomial.scalar(2 ** (2 * s.k + 1), env.table, W))
    zero_nm1 = GradedPolynomial.zero(env.table, W)

    def kill_nm1(p: GradedPolynomial) -> GradedPolynomial:
        return p.substitute("nM1", zero_nm1)

    x_top = kill_nm1(x.component(W))
    xt_top = kill_nm1((x * env.tangent.ch).component(W))
    if theorem == "3.3":
        coef_main, coef_t = Fraction(3 * 2 ** s.l, 2), Fraction(-(2 ** s.l), 16)
    else:
        coef_main, coef_t = Fraction(-(2 ** s.l), 2), Fraction(2 ** s.l, 8)
    rhs_tangent = x_top.scale(coef_main) + xt_top.scale(coef_t)
    lhs_tangent = kill_nm1((env.ahat * (env.ch_delta_m * env.ch_delta_m
                                        + env.ch_delta_m.scale(2 ** (2 * s.k + 1)))).component(W)) \
        .scale(Fraction(2 ** s.l, 2 ** (2 * s.k)))
    report.checks["printed_identity_tangent_twist"] = Check(
        lhs_tangent - rhs_tangent,
        note="auxiliary characters specialized to the tangent bundle, first class zero")

    lhs_generic = env.constant_term_lhs()
    rhs_generic = apply_constraint(x.component(W), s.kind).scale(coef_main) \
        + apply_constraint((x * env.tangent.ch).component(W), s.kind).scale(coef_t)
    report.checks["printed_identity_independent_v"] = Check(
        lhs_generic - rhs_generic, gating=False,
        note="literal reading with an independent auxiliary bundle; the exact "
             "coefficient carries ch(V_C), so a nonzero residual here is expected")

    report.checks["constant_term_identity"] = Check(lhs_generic - env.rhs_constant(dec.h))
    report.variant_notes.append(
        "printed form verified under the tangent-twist reading; independent-V residual recorded")


# -- structural checks ------------------------------------------------------------


def structural_checks(setting: Setting) -> dict[str, Check]:
    """Sign-flip relation between P3 and P2, plus the degenerate k=1 spin case."""
    env = get_env(setting)
    out: dict[str, Check] = {}
    p2 = env.p_series("P2")
    p3 = env.p_series("P3")
    out["p3_equals_p2_sign_flipped"] = Check(p3 - p2.sign_flip())
    if setting.kind == "spin4k" and setting.k == 1:
        out["degenerate_lhs_vanishes"] = Check(env.constant_term_lhs())
        out["degenerate_rhs_vanishes"] = Check(env.rhs_constant(env.decomposition().h))
    return out


# -- divisibility audits ------------------------------------------------------------


def _v2(n: int) -> int:
    if n == 0:
        raise AlgebraError("v2(0) is infinite")
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


@dataclass
class DivisibilityAudit:
    corollary: str
    m: int
    k: int
    l: int
    assumed_v2_h: int
    claimed_exponent: int
    implied_exponent: int | None   # None: empty sum, divisible by everything
    solve_integral: bool
    outcome: str                   # PASS or GAP

    def to_json_obj(self):
        return {
            "schema": 1,
            "corollary": self.corollary,
            "m": self.m, "k": self.k, "l": self.l,
            "assumed_v2_h": self.assumed_v2_h,
            "claimed_power_of_two": 2 ** self.claimed_exponent,
            "implied_power_of_two": None if self.implied_exponent is None else 2 ** self.implied_exponent,
            "empty_sum": self.implied_exponent is None,
            "solve_integral": self.solve_integral,
            "outcome": self.outcome,
        }


def divisibility_check(corollary: str, m: int, l: int | None = None,
                       assumed_v2_h: int = 1) -> DivisibilityAudit:
    """2-adic audit of one divisibility claim.

    With ``k = 2m + 1`` the identity writes the index as
    ``sum_r 2^(l+k-6r) h_r`` (or ``-sum_r r 2^(l+k+6-6r) h_r`` for the q^1
    flavored claims); assuming ``v2(h_r) >= assumed_v2_h`` the minimal term
    valuation bounds the guaranteed power of two.  The audit compares that
    bound against the claimed modulus at the weakest admissible rank
    ``l = 4m + 2`` and also re-confirms that the basis inversion is integral
    (so the h_r really are integer combinations of index data).
    """
    if corollary not in DIVISIBILITY_IDS:
        raise AlgebraError(f"unknown divisibility corollary {corollary!r}")
    if m < 0 or assumed_v2_h < 0:
        raise AlgebraError("m and assumed_v2_h must be >= 0")
    kind, claimed, q1_flavor = _DIV_TABLE[corollary]
    k = 2 * m + 1
    if l is None:
        l = 4 * m + 2
    if l < 4 * m + 2:
        raise AlgebraError(f"corollary {corollary} requires l >= {4 * m + 2}")

    if q1_flavor:
        exps = [l + k + 6 - 6 * r + _v2(r) + assumed_v2_h for r in range(1, k // 2 + 1)]
    else:
        exps = [l + k - 6 * r + assumed_v2_h for r in range(0, k // 2 + 1)]
    implied = min(exps) if exps else None

    order = k // 2 + 2
    n = k // 2 + 1
    from .modforms import _invert_lower_triangular
    minor = [[basis_element(GROUP_UPPER, k, r, order).series.coefficient(4 * j)
              for r in range(n)] for j in range(n)]
    inv = _invert_lower_triangular(minor)
    integral = all(c.denominator == 1 for row in inv for c in row)

    ok = implied is None or implied >= claimed
    outcome = "PASS" if (ok and integral) else ("GAP" if integral else "FAIL")
    return DivisibilityAudit(corollary, m, k, l, assumed_v2_h, claimed, implied, integral, outcome)
