"""Symmetric-function engine: per-root factors to polynomial-valued series.

A multiplicative factor ``f(z)`` with f(0) = 1 is turned into
``prod_j f(z_j)`` over a family of formal roots by the log/Newton/exp route:
the logarithm collects ``z^{2m}`` columns, each column maps to the power sum
``s_m`` of the squared roots, power sums convert to the elementary generators
``n_i = e_i(z^2)`` (with ``e_i = 0`` beyond the family's root count), and the
exponential reassembles the product.  Explicit-root expansion is kept out of
the library and used only as a small-instance test oracle.

Root conventions: a rank-2n real family contributes n squared-root variables;
the tangent family of a dim-4k (resp. 4k+2) manifold has 2k (resp. 2k+1) of
them, an auxiliary rank-2l bundle has l, and the spin^c line contributes the
single weight-1 generator ``w = c/2``.  The line's root variable is
``u = -i*w``; writing every line quantity in ``w`` keeps all coefficients
rational (see :func:`eval_at_var`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, Generator, GeneratorTable, GradedPolynomial
from .qseries import PuiseuxSeries
from .theta import (RootFactor, cos_coeffs, invert_z_coeffs, sin_over_z_coeffs)

FAMILY_TM = "TM"
FAMILY_V = "V"
FAMILY_W = "W"

CONSTRAINT_KINDS = ("spin4k", "spinc4k", "spinc4k2")


@dataclass(frozen=True)
class RootFamily:
    family: str
    n_roots: int

    def __post_init__(self):
        if self.n_roots < 1:
            raise AlgebraError("a root family needs at least one root")


def build_generator_table(n_tm_roots: int, n_v_roots: int, include_w: bool,
                          max_weight: int) -> GeneratorTable:
    """Table of normalized generators for one verification setting.

    Tangent generators ``nM_i`` and auxiliary generators ``nV_i`` have weight
    ``2i`` and standard forms ``p_i = (-4)^i n_i``; the line generator ``w``
    has weight 1 and standard form ``c = 2*w``.  Generators whose weight
    exceeds the truncation, or whose index exceeds the family's root count,
    are omitted (they are identically zero there).
    """
    gens: list[Generator] = []
    for i in range(1, min(n_tm_roots, max_weight // 2) + 1):
        gens.append(Generator(f"nM{i}", 2 * i, FAMILY_TM, f"pM{i}", Fraction(-1, 4) ** i))
    for i in range(1, min(n_v_roots, max_weight // 2) + 1):
        gens.append(Generator(f"nV{i}", 2 * i, FAMILY_V, f"pV{i}", Fraction(-1, 4) ** i))
    if include_w:
        gens.append(Generator("w", 1, FAMILY_W, "c", Fraction(1, 2)))
    return GeneratorTable(gens)


def elementary_gp(fam: RootFamily, i: int, table: GeneratorTable, max_weight: int) -> GradedPolynomial:
    """``e_i`` of the family's squared roots as a table generator (or zero)."""
    if i == 0:
        return GradedPolynomial.one(table, max_weight)
    if i > fam.n_roots or 2 * i > max_weight:
        return GradedPolynomial.zero(table, max_weight)
    prefix = {FAMILY_TM: "nM", FAMILY_V: "nV"}[fam.family]
    return GradedPolynomial.generator(f"{prefix}{i}", table, max_weight)


def power_sum_gp(fam: RootFamily, m: int, table: GeneratorTable, max_weight: int) -> GradedPolynomial:
    """Power sum ``s_m`` of squared roots in the elementary generators."""
    if m == 0:
        return GradedPolynomial.scalar(fam.n_roots, table, max_weight)
    e = [elementary_gp(fam, i, table, max_weight) for i in range(m + 1)]
    s: list[GradedPolynomial] = [GradedPolynomial.scalar(fam.n_roots, table, max_weight)]
    for i in range(1, m + 1):
        acc = GradedPolynomial.zero(table, max_weight)
        for j in range(1, i):
            term = e[j] * s[i - j]
            acc = acc + (term if j % 2 == 1 else -term)
        lead = e[i].scale(i)
        s.append(acc + (lead if i % 2 == 1 else -lead))
    return s[m]


def _factor_log(f: RootFactor) -> dict[tuple[int, int], Fraction]:
    """``log f`` for an even factor with z=0 slice 1; terms have z-degree >= 2."""
    u = {dk: c for dk, c in f.terms.items() if dk != (0, 0)}
    if any(d == 0 for d, _ in u):
        raise AlgebraError("factor must have z=0 slice identically 1")
    out: dict[tuple[int, int], Fraction] = {}
    power = dict(u)
    sign = 1
    m = 1
    while power:
        inv_m = Fraction(sign, m)
        for dk, c in power.items():
            t = c * inv_m
            s = out.get(dk)
            out[dk] = t if s is None else s + t
        nxt: dict[tuple[int, int], Fraction] = {}
        for (d1, k1), c1 in power.items():
            for (d2, k2), c2 in u.items():
                d, k = d1 + d2, k1 + k2
                if d > f.z_bound or k > f.q_bound:
                    continue
                p = c1 * c2
                s = nxt.get((d, k))
                nxt[(d, k)] = p if s is None else s + p
        power = {dk: c for dk, c in nxt.items() if c}
        sign = -sign
        m += 1
    return {dk: c for dk, c in out.items() if c}


def _exp_gp_series(S: PuiseuxSeries, max_weight: int) -> PuiseuxSeries:
    """``exp`` of a polynomial-valued series whose terms all have weight >= 2."""
    zero = S.zero
    one = zero.one_like()
    out = PuiseuxSeries.constant(one, S.order_bound, zero)
    term = out
    for t in range(1, max_weight // 2 + 1):
        term = (term * S).map_coefficients(lambda p: p.scale(Fraction(1, t)))
        if term.is_zero():
            break
        out = out + term
    return out


def prod_over_roots(f: RootFactor, fam: RootFamily, table: GeneratorTable,
                    max_weight: int, order: int) -> PuiseuxSeries:
    """``prod_{j=1..n} f(z_j)`` expanded in the family's generators.

    The factor must be even with constant term 1; unit constants (such as a
    per-root 2) are the caller's responsibility.
    """
    if f.parity != "even":
        raise AlgebraError("prod_over_roots needs an even factor")
    if f.coefficient(0, 0) != 1:
        raise AlgebraError("prod_over_roots needs constant term 1")
    bound = min(8 * order, f.q_bound)
    zero = GradedPolynomial.zero(table, max_weight)
    log_terms = _factor_log(f)
    columns: dict[int, dict[int, Fraction]] = {}
    for (d, k), c in log_terms.items():
        if k > bound or d % 2 or d // 2 > max_weight // 2:
            continue
        columns.setdefault(d // 2, {})[k] = c
    S = PuiseuxSeries.zero_series(bound, zero)
    for m, col in sorted(columns.items()):
        sm = power_sum_gp(fam, m, table, max_weight)
        if not sm:
            continue
        S = S + PuiseuxSeries({k: sm.scale(c) for k, c in col.items()}, bound, zero)
    return _exp_gp_series(S, max_weight)


def additive_over_roots(z2_coeffs, fam: RootFamily, table: GeneratorTable,
                        max_weight: int) -> GradedPolynomial:
    """``sum_{j=1..n} g(z_j^2)`` where ``z2_coeffs[m]`` multiplies ``z^(2m)``."""
    out = GradedPolynomial.zero(table, max_weight)
    for m, c in enumerate(z2_coeffs):
        if not c:
            continue
        out = out + power_sum_gp(fam, m, table, max_weight).scale(c)
    return out


def eval_at_var(f: RootFactor, table: GeneratorTable, max_weight: int,
                order: int) -> PuiseuxSeries:
    """Evaluate a factor at the line root ``z = u = -i*w``, in the real generator ``w``.

    Maps ``z^d -> (-1)^(d//2) w^d``.  For an even factor that is exactly
    ``f(-i*w)``; for an odd factor it is ``i*f(-i*w)``, the real form the
    spin^c dimension-(4k+2) product needs.
    """
    bound = min(8 * order, f.q_bound)
    zero = GradedPolynomial.zero(table, max_weight)
    columns: dict[int, GradedPolynomial] = {}
    w_pow = {0: GradedPolynomial.one(table, max_weight)}
    for (d, k), c in f.terms.items():
        if k > bound or d > max_weight:
            continue
        if d not in w_pow:
            w_pow[d] = GradedPolynomial.generator("w", table, max_weight, power=d)
        gp = w_pow[d].scale(-c if (d // 2) % 2 else c)
        if not gp:
            continue
        columns[k] = columns.get(k, zero) + gp
    return PuiseuxSeries({k: v for k, v in columns.items() if v}, bound, zero)


def _mult_z_coeffs(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if i + j < n and y:
                out[i + j] += x * y
    return out


GENUS_KINDS = ("ahat", "lhat", "spinor_ch", "exp_half_c")


def classical_genus(kind: str, fam: RootFamily, table: GeneratorTable,
                    max_weight: int) -> GradedPolynomial:
    """Multiplicative genera and character forms used by the verifications.

    ``ahat`` is ``prod z_j/sin z_j``; ``lhat`` is ``prod 2 z_j cot z_j``;
    ``spinor_ch`` is ``prod 2 cos z_j`` (spinor character, rank ``2^n``);
    ``exp_half_c`` is ``e^{iu} = e^{w}``, the half line-class exponential.
    """
    if kind == "exp_half_c":
        out = GradedPolynomial.one(table, max_weight)
        fact = 1
        for d in range(1, max_weight + 1):
            fact *= d
            out = out + GradedPolynomial.generator("w", table, max_weight, power=d).scale(
                Fraction(1, fact))
        return out
    zb = 2 * (max_weight // 2)
    if kind == "ahat":
        coeffs = invert_z_coeffs(sin_over_z_coeffs(zb))
        unit = 1
    elif kind == "lhat":
        coeffs = _mult_z_coeffs(cos_coeffs(zb), invert_z_coeffs(sin_over_z_coeffs(zb)))
        unit = 2 ** fam.n_roots
    elif kind == "spinor_ch":
        coeffs = cos_coeffs(zb)
        unit = 2 ** fam.n_roots
    else:
        raise AlgebraError(f"unknown genus kind {kind!r}")
    factor = RootFactor.from_z_coeffs(coeffs, zb, 0)
    series = prod_over_roots(factor, fam, table, max_weight, order=0)
    return series.coefficient(0).scale(unit)


def constraint_replacement(kind: str, table: GeneratorTable, max_weight: int) -> tuple[str, GradedPolynomial]:
    """The generator substitution implementing a setting's first-class relation.

    * ``spin4k``:   auxiliary class vanishes, ``nV1 -> 0``;
    * ``spinc4k``:  ``nM1 -> 3u^2 + nV1 = -3w^2 + nV1``;
    * ``spinc4k2``: ``nM1 -> u^2 + nV1 = -w^2 + nV1``.
    """
    if kind == "spin4k":
        return "nV1", GradedPolynomial.zero(table, max_weight)
    w2 = GradedPolynomial.generator("w", table, max_weight, power=2)
    nv1 = GradedPolynomial.generator("nV1", table, max_weight)
    if kind == "spinc4k":
        return "nM1", nv1 - w2.scale(3)
    if kind == "spinc4k2":
        return "nM1", nv1 - w2
    raise AlgebraError(f"unknown constraint kind {kind!r}")


def apply_constraint(obj, kind: str):
    """Apply the setting's relation to a polynomial or a polynomial-valued series."""
    if isinstance(obj, PuiseuxSeries):
        name, repl = constraint_replacement(kind, obj.zero.table, obj.zero.max_weight)
        return obj.map_coefficients(lambda p: p.substitute(name, repl))
    name, repl = constraint_replacement(kind, obj.table, obj.max_weight)
    return obj.substitute(name, repl)
