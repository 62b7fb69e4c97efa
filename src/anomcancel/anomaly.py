"""End-to-end verification of the cancellation identities.

For each setting (spin dim-4k, spin^c dim-4k, spin^c dim-4k+2) the engine

1. assembles the three P-series from the closed-form logs of the normalized
   theta factors: the setting's first-class relation acts on the tangent and
   auxiliary families' elementary classes (``RootFamily.relation``), the logs
   on the tangent roots and the line are exponentiated together, and only
   the pairs of weights that add up to the top weight are multiplied with
   the auxiliary factor;
2. decomposes P2 over the triangular half-integer basis, solving the h_r and
   checking the residual against every computed order;
3. checks the transfer identity ``P1 = 2^l sum h_r (8 delta1)^(k-2r) eps1^r``;
4. compares the constant and q^1 coefficients of P1 with the identity's two
   sides, built independently from the lambda-ring bundle path and from one
   tangent genus (``_TangentHalf.genus``) at the top weight (``_Env.top``).
   Both routes build on the same families, so every form is already in the
   relation's image and no output is substituted into;
5. audits the 2-adic divisibility claims that follow from the 2-power
   prefactors of the h_r: each exponent is the valuation of a right-side
   scalar of step 4's identities (:func:`rhs_coefficients`).

Apart from the verdicts, :func:`cross_check_bundle_expansion` compares the two
routes as whole series: one residual per P-series, the packed theta route
minus the lambda-ring route's weight pieces, as one packed sum.

All comparisons are exact; a status is PASS only when every gating residual
is identically zero, and each gating check can fail
(``tests/test_check_census.py``).  Given the paper's modularity,
``transfer_residual`` through ``q^(k//2)``, the Sturm bound (1987) of weight
2k on an index-3 group, is a proof.  ``printed_identity_tangent_twist``
compares ``ch(Delta(M))`` with ``ch(T_C M)`` at the top weight with
``nM1 = 0`` and reads nothing else of the genus (:func:`_verify_corollary`).
The code's consistency: ``decomposition_residual`` (at the solved positions
it checks the solve, past them that P2 is modular),
``p3_equals_p2_sign_flipped``, ``p1_half_coefficient``, ``tilde_vs_untilde``
and the degenerate checks.  Route agreement: the crosscheck rows and the
checks against sides built from genera and bundles (``main_identity``,
``constant_term_identity``, ``p1_constant_term``, ``p1_q1_coefficient``,
``h*_closed_form``).  The non-gating checks are informational.

Stable range: at ``l >= W//2`` only P1's factor ``2^l`` depends on l.  The
table carries ``nV1..nV_(W//2)`` at every l and Newton's identities do not
involve l, so V's power sums through weight W are the same polynomials, and
``ch(Delta(V)) = 2^l prod_i cosh(v_i/2)``.

The tangent half of a setting (the table, the core of step 1, the tangent
genera and the tangent side of the lambda-ring path) depends only on (kind,
k, n_q) and is memoized in ``_tangent_cache``, so a grid over l builds it
once, with its theta objects' pieces by order; the rest, the transfer
residual among it, is per setting, in ``_env_cache``.  Their genera, bundles
and constant-term side are built on first read (``cached_property``), so a
verify builds only what its checks read.  The P-series stay
packed (``_Env.packed``), known through their lattice bound: the
decomposition, the transfer and the sign-flip check read them as they are,
the other checks read coefficients (``_Env.coefficient``), which raise past
the bound, and only :func:`build_P` turns a whole P-series into polynomials.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from math import gcd

from .algebra import ONE, AlgebraError, GradedPolynomial, QColumns, Record, dot, mul_sum
from .genus import (CONSTRAINT_KINDS, FAMILY_TM, FAMILY_V, LINE, RootFamily, build_generator_table,
                    classical_genus, exp_by_weight, power_sums_gp)
from .genus import prod_over_roots  # not called here: kept as the alias the benchmark tracer wraps
from .kvirt import complexified_bundle, lambda_power, lambda_string, reduced, theta_object
from .modforms import (Decomposition, decompose, leading_minor, transfer_residual,
                       unit_lower_inverse)
from .qseries import HALF_UNIT, Q_UNIT, PuiseuxSeries, require_known
from .theta import RootFactor, theta_log
from .theta import theta_factor  # not called here: kept as the alias the benchmark tracer wraps

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

THEOREM_IDS = tuple(_THEOREM_KIND)
DIVISIBILITY_IDS = tuple(_DIV_TABLE)


class Setting(Record):
    """One verification instance: manifold family, sizes, series order."""

    __slots__ = ("kind", "k", "l", "n_q")

    def __init__(self, kind: str, k: int, l: int, n_q: int):
        if kind not in CONSTRAINT_KINDS:
            raise AlgebraError(f"unknown setting kind {kind!r}")
        if k < 1 or l < 1:
            raise AlgebraError("k and l must be >= 1")
        if n_q < k + 2:
            raise AlgebraError(f"q-order {n_q} is insufficient for k={k}: need at least {k + 2} so the "
                               f"residual is over-determined well beyond the {k // 2 + 1} solved coefficients")
        super().__init__(kind, k, l, n_q)

    @property
    def weight(self) -> int:
        """Top weight ``W``: the manifold has dimension ``2W`` and ``W`` tangent roots."""
        return 2 * self.k + (1 if self.kind == "spinc4k2" else 0)

    @property
    def dim(self) -> int:
        return 2 * self.weight

    @property
    def spin_c(self) -> bool:
        return self.kind != "spin4k"

    def to_json_obj(self):
        return {"kind": self.kind, "k": self.k, "l": self.l,
                "n_q": self.n_q, "weight": self.weight, "dim": self.dim}


def make_setting(kind: str, k: int, l: int, n_q: int | None = None) -> Setting:
    return Setting(kind, k, l, (2 * k + 4) if n_q is None else n_q)


def rhs_coefficients(k: int, l: int, q1: bool) -> list[Fraction]:
    """The ``c_r`` of a right side ``sum_r c_r h_r``: ``2^(l+k)/64^r``, or ``-r 2^(l+k+6)/64^r`` at q^1."""
    return [(-64 * r if q1 else 1) * Fraction(2 ** (l + k), 64 ** r) for r in range(k // 2 + 1)]


_tangent_cache: dict[tuple[str, int, int], "_TangentHalf"] = {}
_env_cache: dict[Setting, "_Env"] = {}


def _line_q1(ll: GradedPolynomial) -> GradedPolynomial:
    """The line strings' share of the ``q^1`` coefficient of ``theta_c``: ``L + 2 lambda^2(L) - L^2``."""
    return ll + lambda_power(ll, 2).scale(2) - ll * ll


def _integer_part(f: QColumns) -> QColumns:
    """The positions of ``f`` at integer powers of ``q``, on a lattice of whole units."""
    r = Q_UNIT // gcd(Q_UNIT, f.step)
    return f._replace(step=f.step * r, cols={key: nums[::r] for key, nums in f.cols.items() if any(nums[::r])})


class _TangentHalf:
    """The part of a setting that does not depend on l, shared by every l of one (kind, k, n_q).

    It holds the generator table, the tangent and line power sums, the core,
    the tangent genera and bundles (each built on first read), and the
    tangent side of the lambda-ring path.  The table always carries
    ``nV1..nV_(W//2)``, the same at every l, so each l's auxiliary
    polynomials live on this table with no embedding:
    they never touch ``nV_i`` for i > l, and rendering skips zero exponents.
    The tangent family carries the setting's relation, so the genera and
    bundles built on it are already in the relation's image.
    """

    def __init__(self, s: Setting):
        self.kind, self.k, self.n_q, self.spin_c = s.kind, s.k, s.n_q, s.spin_c
        self.weight = W = s.weight
        self.table = build_generator_table(W, W // 2, s.spin_c, W)
        self.tm = RootFamily(FAMILY_TM, W, s.kind)
        self.tm_sums = power_sums_gp(self.tm, self.table)
        self.line_sums = power_sums_gp(LINE, self.table) if s.spin_c else None
        self._kvirt: dict[int, list] = {}

    # a spin^c setting never reads ch(Delta(M)), and a constant-term verify of 4.1 or 4.6 no bundle
    ahat = cached_property(lambda self: classical_genus("ahat", self.tm, self.table))
    ch_delta_m = cached_property(lambda self: classical_genus("spinor_ch", self.tm, self.table))
    tangent = cached_property(lambda self: complexified_bundle(self.tm, self.table))
    line = cached_property(lambda self: complexified_bundle(LINE, self.table) if self.spin_c else None)

    @cached_property
    def genus(self) -> GradedPolynomial:
        """``ahat e^(c/2)`` (spin^c) or ``ahat (ch(Delta(M)) + 2^(2k+1))`` (spin)."""
        return self.ahat * (classical_genus("exp_half_c", self.tm, self.table) if self.spin_c
                            else self.ch_delta_m + 2 ** (2 * self.k + 1))

    def exp(self, logs) -> list[QColumns]:
        """The weight pieces of an exp over the given power sums; piece n has weight 2n."""
        return exp_by_weight(logs, self.n_q)

    def log(self, kind: str) -> RootFactor:
        return theta_log(kind, self.n_q, self.weight)

    @cached_property
    def core(self) -> dict[int, QColumns]:
        """``{weight: part}``: the constrained P-series without the auxiliary factor.

        The parts stay in packed integer form; only ``packed`` reads them.
        """
        a = self.log("a")
        if self.kind == "spin4k":
            # 2^n * sum_i prod_TM a*t_i.  tau -> tau+1 fixes a and swaps t2 and t3, so exp(a+t3) is
            # exp(a+t2) with its half-integer positions negated, and the two sum to twice its integer part
            e1, e2 = (self.exp([(a + self.log(t), self.tm_sums)]) for t in ("t1", "t2"))
            n = 2 ** self.tm.n_roots
            return {2 * i: mul_sum([(f1, ONE, 1, [(0, n)]), (_integer_part(f2), ONE, 1, [(0, 2 * n)])])
                    for i, (f1, f2) in enumerate(zip(e1, e2))}
        if self.kind == "spinc4k":
            t123 = self.log("t1") + self.log("t2") + self.log("t3")
            return {2 * n: f for n, f in enumerate(self.exp([(a, self.tm_sums), (t123, self.line_sums)]))}
        # spinc4k2: the odd factor times sqrt(-1), i*d(u) = w*exp(log(d/z) at u), which is real
        w = QColumns.of(GradedPolynomial.generator("w", self.table))
        pieces = self.exp([(a, self.tm_sums), (self.log("d"), self.line_sums)])
        return {2 * n + 1: mul_sum([(f, w, 1, [(0, 1)])]) for n, f in enumerate(pieces)}

    def kvirt_tangent(self, order: int) -> list[tuple[list[QColumns], GradedPolynomial]]:
        """The lambda-ring tangent side: each theta object's weight pieces with the polynomial on it,
        ``ahat ch(Delta(M))`` on theta1 and ``2^(2k) ahat`` on theta2 and theta3 (spin), the genus (spin^c)."""
        if order not in self._kvirt:
            if self.kind == "spin4k":
                ahat_2k = self.ahat.scale(2 ** (2 * self.k))
                polys = {"theta1": self.ahat * self.ch_delta_m, "theta2": ahat_2k, "theta3": ahat_2k}
                self._kvirt[order] = [(theta_object(t, self.tangent, None, order), p) for t, p in polys.items()]
            else:
                name = "theta_c" if self.kind == "spinc4k" else "theta_c_star"
                self._kvirt[order] = [(theta_object(name, self.tangent, self.line, order), self.genus)]
        return self._kvirt[order]


class _Env:
    """One setting: its l-free tangent half plus the auxiliary bundle, P-series and decomposition."""

    def __init__(self, s: Setting):
        self.setting = s
        key = (s.kind, s.k, s.n_q)
        if key not in _tangent_cache:
            _tangent_cache[key] = _TangentHalf(s)
        self.half = half = _tangent_cache[key]
        self.table = half.table
        self.v = RootFamily(FAMILY_V, s.l, s.kind)
        self.v_sums = power_sums_gp(self.v, self.table)
        self._p: dict[str, QColumns] = {}

    # the l-free forms are read from the tangent half; these, like them, are built on first read
    ahat = property(lambda self: self.half.ahat)
    ch_delta_m = property(lambda self: self.half.ch_delta_m)
    genus = property(lambda self: self.half.genus)
    tangent = property(lambda self: self.half.tangent)
    line = property(lambda self: self.half.line)
    ch_delta_v = cached_property(lambda self: classical_genus("spinor_ch", self.v, self.table))
    aux = cached_property(lambda self: complexified_bundle(self.v, self.table))

    # -- theta path ---------------------------------------------------------

    def packed(self, which: str) -> QColumns:
        """The top-weight component of P1/P2/P3 under the setting's relation.

        The relation is already on the families' power sums, and the series is one
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

    def twist(self, which: str, order: int) -> tuple[list[QColumns], GradedPolynomial | None]:
        """The lambda-ring P1/P2/P3's auxiliary twist: a string's weight pieces, and ``ch(Delta(V))`` on P1's
        (``None``, for 1, on P2's and P3's)."""
        vt = reduced(self.aux)
        if which == "P1":
            return lambda_string(vt, False, +1, order), self.ch_delta_v
        return lambda_string(vt, True, -1 if which == "P2" else +1, order), None

    def coefficient(self, which: str, k: int) -> GradedPolynomial:
        """One coefficient of P1/P2/P3, at lattice ``k``, read from the packed form."""
        return self.packed(which).coefficient(k)

    @cached_property
    def decomposition(self) -> Decomposition:
        """The decomposition of P2, built once."""
        return decompose(self.packed("P2"), self.setting.k)

    @cached_property
    def transfer(self) -> PuiseuxSeries:
        """The transfer residual of P1 against the decomposition's ``h``, shared by every theorem row here."""
        s = self.setting
        return transfer_residual(self.packed("P1"), self.decomposition.h, s.l, s.k)

    # -- identity sides ---------------------------------------------------------

    def top(self, a: GradedPolynomial, b: GradedPolynomial | None = None) -> GradedPolynomial:
        """The top-weight component of ``a * b`` (of ``a``), for forms built from this setting's families.

        Only the pairs of terms whose weights add up to ``W`` are multiplied
        (:func:`~anomcancel.algebra.dot`).  The relation is already on every
        form the families build, so none is applied here.
        """
        W = self.setting.weight
        return a.component(W) if b is None else dot([(a, b)], self.table, floor=W)

    @cached_property
    def constant_term_lhs(self) -> GradedPolynomial:
        """Left side of the constant-term identity: the tangent genus times ``ch(Delta(V))``, built once."""
        return self.top(self.genus, self.ch_delta_v)

    def q1_lhs(self) -> GradedPolynomial:
        """Left side of the q^1 identity (the printed bundle combination)."""
        s = self.setting
        tt = reduced(self.tangent)
        vv = reduced(self.aux) - 24 * s.k
        if s.kind == "spin4k":
            comb1 = tt.scale(2) + vv
            comb2 = tt + lambda_power(tt, 2) + vv
            return self.top(self.ahat * self.ch_delta_v,
                            self.ch_delta_m * comb1 + comb2.scale(2 ** (2 * s.k + 1)))
        ll = reduced(self.line)
        line_part = _line_q1(ll) if s.kind == "spinc4k" else -ll
        return self.top(self.genus, self.ch_delta_v * (tt + line_part + vv))

    def rhs(self, h: list[GradedPolynomial], q1: bool) -> GradedPolynomial:
        """Right side of the constant-term (or ``q^1``) identity: ``sum_r c_r h_r``."""
        c = rhs_coefficients(self.setting.k, self.setting.l, q1)
        return sum((hr.scale(cr) for cr, hr in zip(c, h, strict=True) if cr), GradedPolynomial.zero(self.table))


def get_env(setting: Setting) -> _Env:
    env = _env_cache.get(setting)
    if env is None:
        env = _Env(setting)
        _env_cache[setting] = env
    return env


def build_P(setting: Setting, which: str) -> PuiseuxSeries:
    """Top-weight P-series for the setting, under its relation, as a series of polynomials."""
    return PuiseuxSeries.from_packed(get_env(setting).packed(which))


def decompose_setting(setting: Setting, which: str = "P2") -> Decomposition:
    """The basis decomposition of P2 (the verdict's, built once) or of P1/P3, from the packed series."""
    env = get_env(setting)
    if which == "P2":
        return env.decomposition
    return decompose(env.packed(which), setting.k)


def cross_check_bundle_expansion(setting: Setting, which: str, order: int) -> PuiseuxSeries:
    """The theta-route P1/P2/P3 minus the lambda-ring one, known through ``q^order``, from 0 to ``n_q``.

    One :func:`~anomcancel.algebra.mul_sum`: the packed P-series minus each pair of a theta-object piece and
    a twist piece, scattered over the terms of the polynomial on them that bring the pair's weight to ``W``.
    """
    if order < 0:
        raise AlgebraError(f"order {order} is below q^0: there is nothing to compare")
    env = get_env(setting)
    require_known(Q_UNIT * order, env.packed(which).bound)
    twist, on_twist = env.twist(which, order)
    products = [(env.packed(which), ONE, 1, [(0, 1)])]
    for pieces, poly in env.half.kvirt_tangent(order):
        den, groups = (poly if on_twist is None else poly * on_twist).int_form()
        rest = {setting.weight - w: [(key, -n) for key, n in items] for w, items in groups}
        products += [(f, g, den, rest[2 * (a + b)]) for a, f in enumerate(pieces)
                     for b, g in enumerate(twist) if 2 * (a + b) in rest]
    return PuiseuxSeries.from_packed(mul_sum(products))


# -- reports ---------------------------------------------------------------------


class Check:
    def __init__(self, value, gating: bool = True, note: str = ""):
        self.value, self.gating, self.note = value, gating, note     # value: GradedPolynomial or PuiseuxSeries

    @property
    def zero(self) -> bool:
        return not self.value

    def to_json_obj(self, basis: str = "standard"):
        """The report entry: the verdict, the gating flag, any note, and a nonzero value's text in ``basis``."""
        entry = {"zero": self.zero, "gating": self.gating}
        if self.note:
            entry["note"] = self.note
        if not self.zero:
            entry["value"] = (self.value.to_standard_basis() if basis == "standard" else self.value).to_text()
        return entry


class VerificationReport:
    def __init__(self, theorem: str, setting: Setting):
        self.theorem, self.setting, self.elapsed = theorem, setting, None
        self.checks: dict[str, Check] = {}
        self.h: list[GradedPolynomial] = []
        self.solve_coeffs: list[list[int]] = []
        self.variant_notes: list[str] = []

    @property
    def status(self) -> str:
        for c in self.checks.values():
            if c.gating and not c.zero:
                return "FAIL"
        return "PASS_WITH_VARIANT" if self.variant_notes else "PASS"

    def to_json_obj(self, basis: str = "standard", include_timings: bool = False):
        obj = {
            "schema": 1,
            "theorem": self.theorem,
            "setting": self.setting.to_json_obj(),
            "status": self.status,
            "h_normalized": [p.to_text() for p in self.h],
            "h_standard": [p.to_standard_basis().to_text() for p in self.h],
            "checks": {name: c.to_json_obj(basis) for name, c in sorted(self.checks.items())},
            "solve_coeffs": [[str(x) for x in row] for row in self.solve_coeffs],
            "variant_notes": list(self.variant_notes),
        }
        if basis == "normalized":
            obj.pop("h_standard")
        if include_timings and self.elapsed is not None:
            obj["elapsed_seconds"] = round(self.elapsed, 3)
        return obj


def _pipeline(report: VerificationReport, env: _Env) -> Decomposition:
    dec = env.decomposition
    report.h = dec.h
    report.solve_coeffs = dec.solve_coeffs
    report.checks["decomposition_residual"] = Check(dec.residual)
    report.checks["transfer_residual"] = Check(env.transfer)
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
    report.elapsed = time.perf_counter() - t0
    return report


def _verify_constant_term(report: VerificationReport, env: _Env):
    dec = _pipeline(report, env)
    lhs = env.constant_term_lhs
    rhs = env.rhs(dec.h, False)
    report.checks["main_identity"] = Check(lhs - rhs)
    report.checks["p1_constant_term"] = Check(env.coefficient("P1", 0) - lhs)
    report.checks["p1_half_coefficient"] = Check(env.coefficient("P1", HALF_UNIT))
    s = env.setting
    if s.kind == "spin4k":
        # explicit forms of the two leading coefficients
        report.checks["h0_closed_form"] = Check(dec.h[0] - env.top(env.genus).scale((-1) ** s.k))
        if len(dec.h) > 1:
            h1 = env.top(env.genus, reduced(env.aux) + 24 * s.k).scale((-1) ** (s.k + 1))
            report.checks["h1_closed_form"] = Check(dec.h[1] - h1)


def _verify_q1(report: VerificationReport, env: _Env):
    dec = _pipeline(report, env)
    lhs = env.q1_lhs()
    rhs = env.rhs(dec.h, True)
    report.checks["main_identity"] = Check(lhs - rhs)
    # direct q^1 coefficient of P1 against the two bundle-built sides
    expected_q1 = lhs + env.constant_term_lhs.scale(24 * env.setting.k)
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
        report.checks["unreduced_line_variant"] = Check(
            env.top(env.genus, env.ch_delta_v * unred) - env.rhs(dec.h, True), gating=False,
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
    With ``nM1 = 0`` the genus's middle weights drop out of the top weight,
    its top-weight part cancels between the sides and its constant term is a
    common factor: the check compares ``ch(Delta(M))`` with ``ch(T_C M)`` at
    the top weight and reads nothing else of the genus.
    """
    s = env.setting
    dec = _pipeline(report, env)

    def kill_nm1(p: GradedPolynomial) -> GradedPolynomial:
        return p.substitute("nM1", GradedPolynomial.zero(env.table))

    g_top, gt_top = env.top(env.genus), env.top(env.genus, env.tangent)
    x_top, xt_top = kill_nm1(g_top), kill_nm1(gt_top)
    if theorem == "3.3":
        coef_main, coef_t = Fraction(3 * 2 ** s.l, 2), Fraction(-(2 ** s.l), 16)
    else:
        coef_main, coef_t = Fraction(-(2 ** s.l), 2), Fraction(2 ** s.l, 8)
    rhs_tangent = x_top.scale(coef_main) + xt_top.scale(coef_t)
    lhs_tangent = kill_nm1(env.top(env.genus, env.ch_delta_m)).scale(Fraction(2 ** s.l, 2 ** (2 * s.k)))
    report.checks["printed_identity_tangent_twist"] = Check(
        lhs_tangent - rhs_tangent,
        note="auxiliary characters specialized to the tangent bundle, first class zero")

    lhs_generic = env.constant_term_lhs
    rhs_generic = g_top.scale(coef_main) + gt_top.scale(coef_t)
    report.checks["printed_identity_independent_v"] = Check(
        lhs_generic - rhs_generic, gating=False,
        note="literal reading with an independent auxiliary bundle; the exact "
             "coefficient carries ch(V_C), so a nonzero residual here is expected")

    report.checks["constant_term_identity"] = Check(lhs_generic - env.rhs(dec.h, False))
    report.variant_notes.append(
        "printed form verified under the tangent-twist reading; independent-V residual recorded")


# -- structural checks ------------------------------------------------------------


def structural_checks(setting: Setting) -> dict[str, Check]:
    """Sign-flip relation between P3 and P2, plus the degenerate k=1 spin case."""
    env = get_env(setting)
    out: dict[str, Check] = {"p3_equals_p2_sign_flipped": Check(_sign_flip_residual(env))}
    if setting.kind == "spin4k" and setting.k == 1:
        out["degenerate_lhs_vanishes"] = Check(env.constant_term_lhs)
        out["degenerate_rhs_vanishes"] = Check(env.rhs(env.decomposition.h, False))
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
    return PuiseuxSeries.from_packed(out)


# -- divisibility audits ------------------------------------------------------------


def _v2(x: Fraction) -> int:
    """The 2-adic valuation of a nonzero rational."""
    if x == 0:
        raise AlgebraError("v2(0) is infinite")
    num, den = x.numerator, x.denominator
    return (num & -num).bit_length() - (den & -den).bit_length()


class DivisibilityAudit:
    def __init__(self, corollary: str, m: int, k: int, l: int, assumed_v2_h: int,
                 claimed_exponent: int, implied_exponent: int | None, outcome: str):
        self.corollary, self.m, self.k, self.l, self.assumed_v2_h = corollary, m, k, l, assumed_v2_h
        self.claimed_exponent, self.outcome = claimed_exponent, outcome     # outcome: PASS or GAP
        self.implied_exponent = implied_exponent    # None: empty sum, divisible by everything

    def to_json_obj(self):
        return {
            "schema": 1,
            "corollary": self.corollary,
            "m": self.m, "k": self.k, "l": self.l,
            "assumed_v2_h": self.assumed_v2_h,
            "claimed_power_of_two": 2 ** self.claimed_exponent,
            "implied_power_of_two": None if self.implied_exponent is None else 2 ** self.implied_exponent,
            "empty_sum": self.implied_exponent is None,
            "outcome": self.outcome,
        }


def divisibility_check(corollary: str, m: int, l: int | None = None,
                       assumed_v2_h: int = 1) -> DivisibilityAudit:
    """2-adic audit of one divisibility claim.

    With ``k = 2m + 1`` the identity writes the index as ``sum_r c_r h_r``,
    with the scalars of :func:`rhs_coefficients`: the very ones the identity
    checks verify (``_Env.rhs``), constant-term or ``q^1`` as the claim is
    flavored.  Assuming ``v2(h_r) >= assumed_v2_h``, the least
    ``v2(c_r) + assumed_v2_h`` over the nonzero ``c_r`` bounds the guaranteed
    power of two.  The audit compares that
    bound against the claimed modulus at the weakest admissible rank
    ``l = 4m + 2``; like the decomposition, it also inverts the basis minor
    in integers, so the h_r are integer combinations of index data.
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

    exps = [_v2(c) + assumed_v2_h for c in rhs_coefficients(k, l, q1_flavor) if c]
    implied = min(exps) if exps else None

    # the same integer inverse as the decomposition: it exists, with integer
    # entries, exactly when the minor is unit lower-triangular, and raises otherwise
    unit_lower_inverse(leading_minor(k, k // 2 + 2))

    ok = implied is None or implied >= claimed
    return DivisibilityAudit(corollary, m, k, l, assumed_v2_h, claimed, implied, "PASS" if ok else "GAP")
