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

A setting's work splits in two.  The tangent half (the table, the core of
step 1, the tangent genera and the tangent side of the lambda-ring path)
depends only on (kind, k, n_q) and is memoized in ``_tangent_cache``, so a
grid over l builds it once.  The rest (the auxiliary bundle, the P-series,
the decomposition and the twists) is per setting, in ``_env_cache``.

The P-series stay in packed integer form (``_Env.packed``), each carrying
the lattice bound it is known through: the decomposition, the transfer and
the P3-vs-P2 sign-flip check read them as they are, and the identity checks
read single coefficients (``_Env.coefficient``), which raise past the bound.
Only :func:`build_P` turns a whole P-series into polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

from .algebra import ONE, AlgebraError, GradedPolynomial, QColumns, mul_sum
from .genus import (CONSTRAINT_KINDS, FAMILY_TM, FAMILY_V, LINE, RootFamily, apply_constraint,
                    build_generator_table, classical_genus, constrained_power_sums,
                    exp_by_weight)
from .genus import prod_over_roots  # not called here: kept as the alias the benchmark tracer wraps
from .kvirt import (aux_bundle, lambda_power, lambda_string, line_pair_bundle, reduced,
                    tangent_bundle, theta_object)
from .modforms import (Decomposition, decompose, leading_minor, transfer_residual,
                       unit_lower_inverse)
from .qseries import HALF_UNIT, Q_UNIT, PuiseuxSeries
from .theta import RootFactor, theta_log
from .theta import theta_factor  # not called here: kept as the alias the benchmark tracer wraps

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
        if self.kind not in CONSTRAINT_KINDS:
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


_tangent_cache: dict[tuple[str, int, int], "_TangentHalf"] = {}
_env_cache: dict[Setting, "_Env"] = {}


def _line_q1(ll: GradedPolynomial) -> GradedPolynomial:
    """The line strings' share of the ``q^1`` coefficient of ``theta_c``: ``L + 2 lambda^2(L) - L^2``."""
    return ll + lambda_power(ll, 2).scale(2) - ll * ll


class _TangentHalf:
    """The part of a setting that does not depend on l, shared by every l of one (kind, k, n_q).

    It holds the generator table, the tangent and line power sums, the core,
    the tangent genera and bundles, and the tangent side of the lambda-ring
    path.  The table always carries ``nV1..nV_(W//2)``, the same at every l,
    so each l's auxiliary polynomials live on this table with no embedding:
    they never touch ``nV_i`` for i > l, and rendering skips zero exponents.
    """

    def __init__(self, s: Setting):
        self.kind, self.k, self.n_q = s.kind, s.k, s.n_q
        self.weight = W = s.weight
        self.table = build_generator_table(s.tm_roots, W // 2, s.spin_c, W)
        self.tm = RootFamily(FAMILY_TM, s.tm_roots)
        self.gp_zero = GradedPolynomial.zero(self.table, W)
        self.ahat = classical_genus("ahat", self.tm, self.table, W)
        self.ch_delta_m = classical_genus("spinor_ch", self.tm, self.table, W)
        self.tangent = tangent_bundle(s.tm_roots, self.table, W)
        self.line = line_pair_bundle(self.table, W) if s.spin_c else None
        self.exp_half_c = classical_genus("exp_half_c", self.tm, self.table, W) if s.spin_c else None
        self.tm_sums = constrained_power_sums(self.tm, s.kind, self.table, W)
        self.line_sums = constrained_power_sums(LINE, s.kind, self.table, W) if s.spin_c else None
        self._kvirt: dict[int, PuiseuxSeries] = {}

    def exp(self, logs) -> list[QColumns]:
        """The weight pieces of an exp over the given power sums; piece n has weight 2n."""
        return exp_by_weight(logs, self.table, self.weight, self.n_q)

    def log(self, kind: str) -> RootFactor:
        return theta_log(kind, self.n_q, self.weight)

    @cached_property
    def core(self) -> dict[int, QColumns]:
        """``{weight: part}``: the constrained P-series without the auxiliary factor.

        The parts stay in packed integer form; only ``packed`` reads them.
        """
        a = self.log("a")
        if self.kind == "spin4k":
            # 2^n * sum_i prod_TM a*t_i: one exp of a summed log per i, summed as products with 1
            exps = [self.exp([(a + self.log(t), self.tm_sums)]) for t in ("t1", "t2", "t3")]
            unit = [(0, 2 ** self.tm.n_roots)]
            return {2 * n: mul_sum([(f, ONE, 1, unit) for f in fs]) for n, fs in enumerate(zip(*exps))}
        if self.kind == "spinc4k":
            t123 = self.log("t1") + self.log("t2") + self.log("t3")
            return {2 * n: f for n, f in enumerate(self.exp([(a, self.tm_sums), (t123, self.line_sums)]))}
        # spinc4k2: the odd factor times sqrt(-1), i*d(u) = w*exp(log(d/z) at u), which is real
        w = self.table.packing(self.weight).key(tuple(int(g.name == "w") for g in self.table.gens))
        pieces = self.exp([(a, self.tm_sums), (self.log("d"), self.line_sums)])
        return {2 * n + 1: f._replace(cols={k + w: v for k, v in f.cols.items()}) for n, f in enumerate(pieces)}

    def kvirt_tangent(self, order: int) -> PuiseuxSeries:
        """The tangent side of the lambda-ring P-series: the theta objects times the genera."""
        cached = self._kvirt.get(order)
        if cached is not None:
            return cached
        if self.kind == "spin4k":
            th1, th2, th3 = (theta_object(t, self.tangent, None, order)
                             for t in ("theta1", "theta2", "theta3"))
            msum = th1.scale(self.ch_delta_m) + (th2 + th3).scale(2 ** (2 * self.k))
            out = msum.scale(self.ahat)
        else:
            name = "theta_c" if self.kind == "spinc4k" else "theta_c_star"
            thc = theta_object(name, self.tangent, self.line, order)
            out = thc.scale(self.ahat * self.exp_half_c)
        self._kvirt[order] = out
        return out


class _Env:
    """One setting: its l-free tangent half plus the auxiliary bundle, P-series and decomposition."""

    def __init__(self, s: Setting):
        self.setting = s
        W = s.weight
        key = (s.kind, s.k, s.n_q)
        if key not in _tangent_cache:
            _tangent_cache[key] = _TangentHalf(s)
        self.half = half = _tangent_cache[key]
        self.table, self.gp_zero = half.table, half.gp_zero
        self.ahat, self.ch_delta_m, self.exp_half_c = half.ahat, half.ch_delta_m, half.exp_half_c
        self.tangent, self.line = half.tangent, half.line
        self.v = RootFamily(FAMILY_V, s.l)
        self.ch_delta_v = classical_genus("spinor_ch", self.v, self.table, W)
        self.aux = aux_bundle(s.l, self.table, W)
        self.v_sums = constrained_power_sums(self.v, s.kind, self.table, W)
        self._p: dict[str, QColumns] = {}
        self._decomp: Decomposition | None = None
        self._kvirt: dict[str, PuiseuxSeries] = {}

    # -- theta path ---------------------------------------------------------

    def packed(self, which: str) -> QColumns:
        """The top-weight component of P1/P2/P3 with the constraint applied.

        The relation is already on the power sums, and the series is one
        :func:`~anomcancel.algebra.mul_sum` over the pairs (core at weight
        ``W - b``, auxiliary factor at weight ``b``), so every monomial pair
        multiplied lands at weight ``W``.  It stays in packed integer form,
        known through the lesser of the two exps' bounds.
        """
        cached = self._p.get(which)
        if cached is not None:
            return cached
        log = {"P1": "t1", "P2": "t2", "P3": "t3"}.get(which)
        if log is None:
            raise AlgebraError(f"unknown P-series {which!r}")
        s = self.setting
        core, aux = self.half.core, self.half.exp([(self.half.log(log), self.v_sums)])
        unit = [(0, 2 ** s.l if which == "P1" else 1)]
        self._p[which] = out = mul_sum([(core[s.weight - 2 * n], f, 1, unit) for n, f in enumerate(aux)])
        return out

    def coefficient(self, which: str, k: int) -> GradedPolynomial:
        """One coefficient of P1/P2/P3, at lattice ``k``, read from the packed form."""
        return self.packed(which).coefficient(k, self.table, self.setting.weight)

    def decomposition(self) -> Decomposition:
        if self._decomp is None:
            self._decomp = decompose(self.packed("P2"), self.setting.k, self.gp_zero)
        return self._decomp

    # -- bundle path ----------------------------------------------------------

    def kvirt_series(self, which: str, order: int = 1) -> PuiseuxSeries:
        """P-series rebuilt from lambda-ring strings (low order, unconstrained)."""
        key = f"{which}@{order}"
        cached = self._kvirt.get(key)
        if cached is not None:
            return cached
        vt = reduced(self.aux)
        if which == "P1":
            twist = lambda_string(vt, False, +1, order).scale(self.ch_delta_v)
        else:
            twist = lambda_string(vt, True, -1 if which == "P2" else +1, order)
        out = self.half.kvirt_tangent(order) * twist
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
        tt = reduced(self.tangent)
        vv = reduced(self.aux) - 24 * s.k
        if s.kind == "spin4k":
            comb1 = tt.scale(2) + vv
            comb2 = tt + lambda_power(tt, 2) + vv
            form = (self.ahat * self.ch_delta_m * self.ch_delta_v * comb1
                    + (self.ahat * self.ch_delta_v * comb2).scale(2 ** (2 * s.k + 1)))
        else:
            ll = reduced(self.line)
            line_part = _line_q1(ll) if s.kind == "spinc4k" else -ll
            form = self.ahat * self.exp_half_c * self.ch_delta_v * (tt + line_part + vv)
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
    """Top-weight, constraint-applied P-series for the setting, as a series of polynomials."""
    env = get_env(setting)
    return PuiseuxSeries.from_packed(env.packed(which), zero=env.gp_zero)


def decompose_setting(setting: Setting, which: str = "P2") -> Decomposition:
    """The basis decomposition of P2 (the verdict's, built once) or of P1/P3, from the packed series."""
    env = get_env(setting)
    if which == "P2":
        return env.decomposition()
    return decompose(env.packed(which), setting.k, env.gp_zero)


def cross_check_bundle_expansion(setting: Setting, exponent_units: int,
                                 which: str = "P1") -> GradedPolynomial:
    """Theta-path coefficient minus the lambda-ring path, at one q-exponent.

    Both paths are reduced to the top-weight component under the setting's
    constraint; the difference must vanish identically.  The lambda-ring
    series runs through the first whole power of q at or past the exponent.
    """
    env = get_env(setting)
    theta_side = env.coefficient(which, exponent_units)
    kv = env.kvirt_series(which, order=max(1, -(-exponent_units // Q_UNIT)))
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
        return not self.value


@dataclass
class VerificationReport:
    theorem: str
    setting: Setting
    checks: dict[str, Check] = field(default_factory=dict)
    h: list[GradedPolynomial] = field(default_factory=list)
    solve_coeffs: list[list[int]] = field(default_factory=list)
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


def _pipeline(report: VerificationReport, env: _Env) -> Decomposition:
    dec = env.decomposition()
    report.h = dec.h
    report.solve_coeffs = dec.solve_coeffs
    report.solve_integral = dec.integral_solve
    report.checks["decomposition_residual"] = Check(dec.residual)
    report.checks["transfer_residual"] = Check(
        transfer_residual(env.packed("P1"), dec.h, env.setting.l, env.setting.k, env.gp_zero))
    return dec


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
            _reality_residual(env, report.h + [env.coefficient("P1", 0)]))
    report.elapsed = time.perf_counter() - t0
    return report


def _verify_constant_term(report: VerificationReport, env: _Env):
    dec = _pipeline(report, env)
    lhs = env.constant_term_lhs()
    rhs = env.rhs_constant(dec.h)
    report.checks["main_identity"] = Check(lhs - rhs)
    report.checks["p1_constant_term"] = Check(env.coefficient("P1", 0) - lhs)
    report.checks["p1_half_coefficient"] = Check(env.coefficient("P1", HALF_UNIT))
    s = env.setting
    if s.kind == "spin4k":
        # explicit forms of the two leading coefficients
        x = env.ahat * (env.ch_delta_m + GradedPolynomial.scalar(2 ** (2 * s.k + 1), env.table, s.weight))
        h0_expected = apply_constraint(x.component(s.weight), s.kind).scale((-1) ** s.k)
        report.checks["h0_closed_form"] = Check(dec.h[0] - h0_expected)
        if len(dec.h) > 1:
            vt = reduced(env.aux) + 24 * s.k
            h1_expected = apply_constraint((x * vt).component(s.weight), s.kind).scale((-1) ** (s.k + 1))
            report.checks["h1_closed_form"] = Check(dec.h[1] - h1_expected)


def _verify_q1(report: VerificationReport, env: _Env):
    dec = _pipeline(report, env)
    lhs = env.q1_lhs()
    rhs = env.rhs_q1(dec.h)
    report.checks["main_identity"] = Check(lhs - rhs)
    # direct q^1 coefficient of P1 against the two bundle-built sides
    expected_q1 = lhs + env.constant_term_lhs().scale(24 * env.setting.k)
    report.checks["p1_q1_coefficient"] = Check(env.coefficient("P1", Q_UNIT) - expected_q1)
    if env.setting.kind == "spinc4k":
        # the reduced and unreduced line combinations must agree exactly:
        # the trivial-summand corrections cancel across the line terms
        report.checks["tilde_vs_untilde"] = Check(
            _line_q1(reduced(env.line)) - _line_q1(env.line),
            note="reduced and unreduced line combinations have equal characters")
    if env.setting.kind == "spinc4k2":
        s = env.setting
        unred = reduced(env.tangent) - env.line + reduced(env.aux) - 24 * s.k
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
    dec = _pipeline(report, env)
    W = s.weight
    x = env.ahat * (env.ch_delta_m + GradedPolynomial.scalar(2 ** (2 * s.k + 1), env.table, W))
    zero_nm1 = GradedPolynomial.zero(env.table, W)

    def kill_nm1(p: GradedPolynomial) -> GradedPolynomial:
        return p.substitute("nM1", zero_nm1)

    x_top = kill_nm1(x.component(W))
    xt_top = kill_nm1((x * env.tangent).component(W))
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
        + apply_constraint((x * env.tangent).component(W), s.kind).scale(coef_t)
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
    out: dict[str, Check] = {"p3_equals_p2_sign_flipped": Check(_sign_flip_residual(env))}
    if setting.kind == "spin4k" and setting.k == 1:
        out["degenerate_lhs_vanishes"] = Check(env.constant_term_lhs())
        out["degenerate_rhs_vanishes"] = Check(env.rhs_constant(env.decomposition().h))
    return out


def _sign_flip_residual(env: _Env) -> PuiseuxSeries:
    """P3 minus P2 under ``q^(1/2) -> -q^(1/2)``: one :func:`~anomcancel.algebra.mul_sum` over the packed series."""
    p2, p3 = env.packed("P2"), env.packed("P3")
    flipped = {}
    for key, nums in p2.cols.items():
        if any(n and i * p2.step % HALF_UNIT for i, n in enumerate(nums)):
            raise AlgebraError("sign flip needs all exponents to be multiples of 1/2")
        flipped[key] = [-n if i * p2.step // HALF_UNIT % 2 else n for i, n in enumerate(nums)]
    out = mul_sum([(p3, ONE, 1, [(0, 1)]), (p2._replace(cols=flipped), ONE, 1, [(0, -1)])])
    return PuiseuxSeries.from_packed(out, zero=env.gp_zero)


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

    # the same integer inverse as the decomposition: it exists, with integer
    # entries, exactly when the minor is unit lower-triangular, and raises otherwise
    unit_lower_inverse(leading_minor(k, k // 2 + 2))

    ok = implied is None or implied >= claimed
    return DivisibilityAudit(corollary, m, k, l, assumed_v2_h, claimed, implied, True,
                             "PASS" if ok else "GAP")
