"""Symmetric-function engine: per-root factors to polynomial-valued series.

A multiplicative factor ``f(z)`` with f(0) = 1 enters through its log, which
:func:`anomcancel.theta.theta_log` gives in closed form as integer columns
(one scalar :class:`~anomcancel.algebra.QColumns` per ``z^2m``), read here
as they are.  ``prod_j f(z_j)``
over a family of formal roots is then assembled by the log/Newton/exp route:
the ``z^{2m}`` column of the log multiplies the power sum ``s_m`` of the
squared roots, power sums convert to the elementary generators
``n_i = e_i(z^2)`` by Newton's identities (with ``e_i = 0`` beyond the
family's root count), and one exp, run weight piece by weight piece with the
Euler recurrence ``n*F_n = sum_j j*S_j*F_(n-j)``, reassembles the product.
The pieces ``F_n`` stay in the packed integer form of
:class:`~anomcancel.algebra.QColumns`: each step of the recurrence is one
:func:`~anomcancel.algebra.mul_sum`, a big-int multiply per pair of a log
column and a monomial of ``F_(n-j)`` with fields as wide as
:func:`~anomcancel.algebra.field_width` bounds, and only the callers that
hand a series on (:func:`exp_over_roots`) turn it into ``Fraction``s.
Logs on several families go into one exp (:func:`exp_by_weight`), which
returns the result split by weight, each piece carrying the lattice bound
it is known through, so a caller that reads only the top
weight of a product multiplies only the pairs of pieces whose weights add up
to it.  A setting's first-class relation is a weight-preserving ring map, so
it commutes with the exp: it is applied once to each family's power sums
(:func:`constrained_power_sums`), never to a series.  Evaluation at the
spin^c line root and the classical genera go through the same exp.
Explicit-root expansion is kept out of the library and used only as a
small-instance test oracle.

Root conventions: a rank-2n real family contributes n squared-root variables;
the tangent family of a dim-4k (resp. 4k+2) manifold has 2k (resp. 2k+1) of
them, an auxiliary rank-2l bundle has l, and the spin^c line is the one-root
family :data:`LINE` over the single weight-1 generator ``w = c/2``.  The
line's root variable is ``u = -i*w``, so its squared root is ``-w^2`` and its
power sums are ``(-w^2)^m``; writing every line quantity in ``w`` keeps all
coefficients rational (see :func:`eval_at_var`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .algebra import (ONE, AlgebraError, Generator, GeneratorTable, GradedPolynomial, QColumns,
                      int_numerators, mul_sum)
from .qseries import Q_UNIT, PuiseuxSeries
from .theta import RootFactor, log_cos_coeffs, log_sin_over_z

FAMILY_TM = "TM"
FAMILY_V = "V"
FAMILY_W = "W"

CONSTRAINT_KINDS = ("spin4k", "spinc4k", "spinc4k2")     # the setting kinds, one relation each

_power_sums_cache: dict[tuple, tuple[GradedPolynomial, ...]] = {}


@dataclass(frozen=True)
class RootFamily:
    family: str
    n_roots: int

    def __post_init__(self):
        if self.n_roots < 1:
            raise AlgebraError("a root family needs at least one root")
        if self.family == FAMILY_W and self.n_roots != 1:
            raise AlgebraError("the spin^c line is a single root")


LINE = RootFamily(FAMILY_W, 1)


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
    """``e_i`` of the family's squared roots as a table generator (or zero).

    The line's one squared root is ``u^2 = -w^2``.
    """
    if i == 0:
        return GradedPolynomial.one(table, max_weight)
    if i > fam.n_roots or 2 * i > max_weight:
        return GradedPolynomial.zero(table, max_weight)
    if fam.family == FAMILY_W:
        return GradedPolynomial.generator("w", table, max_weight, power=2).scale(-1)
    prefix = {FAMILY_TM: "nM", FAMILY_V: "nV"}[fam.family]
    return GradedPolynomial.generator(f"{prefix}{i}", table, max_weight)


def power_sums_gp(fam: RootFamily, m_max: int, table: GeneratorTable,
                  max_weight: int) -> list[GradedPolynomial]:
    """Power sums ``s_0..s_m_max`` of squared roots in the elementary generators (Newton).

    The sums through ``s_(max_weight//2)`` are built once per family, table
    and weight; ``s_m`` has weight ``2m``, so the later ones vanish and are
    left out.
    """
    key = (fam, table, max_weight)
    sums = _power_sums_cache.get(key)
    if sums is None:
        m_top = max_weight // 2
        e = [elementary_gp(fam, i, table, max_weight) for i in range(m_top + 1)]
        s: list[GradedPolynomial] = [GradedPolynomial.scalar(fam.n_roots, table, max_weight)]
        for i in range(1, m_top + 1):
            acc = GradedPolynomial.zero(table, max_weight)
            for j in range(1, i):
                term = e[j] * s[i - j]
                acc = acc + (term if j % 2 == 1 else -term)
            lead = e[i].scale(i)
            s.append(acc + (lead if i % 2 == 1 else -lead))
        sums = _power_sums_cache[key] = tuple(s)
    return list(sums[:m_max + 1])


def exp_by_weight(logs: Sequence[tuple[RootFactor, Sequence[GradedPolynomial]]], table: GeneratorTable,
                  max_weight: int, order: int) -> list[QColumns]:
    """``F[n]``: the weight-2n part of ``F = exp(S)``, ``S = sum_(log, s) sum_m s_m * [z^2m] log``.

    Each entry pairs the log of an even per-root factor with the power sums
    ``s_0..s_(max_weight//2)`` of one root family, so one exp multiplies the
    factors of several families.  ``s_m`` is homogeneous of weight ``2m``
    and the Euler operator (weight/2) is a derivation, so ``n*F_n = sum_m m
    * s_m * c_m * F_(n-m)`` over the logs' z^2m columns ``c_m``.  Each
    ``F_n`` is one :func:`~anomcancel.algebra.mul_sum`: per column, ``c_m``
    multiplies each monomial of ``F_(n-m)`` once, and the product is
    scattered over the terms of ``s_m`` with integer scalars: ``m`` times
    their numerators, over ``n`` times their denominator.  ``F[n]`` is in
    packed integer form (:class:`~anomcancel.algebra.QColumns`), known
    through ``q^order`` or the logs' least ``q_bound`` if that is less:
    ``F[0]`` is the unit known through that bound, so every piece is (each
    ``mul_sum`` cuts its operands there), and a piece with no product is
    zero there.
    """
    bound = min(min(Q_UNIT * order, log.q_bound) for log, _ in logs)
    key = table.packing(max_weight).key
    columns = []
    for log, sums in logs:
        if any(d % 2 or d == 0 for d in log.cols):
            raise AlgebraError("a root-factor log must be even in z and vanish at z = 0")
        if log.z_bound < 2 * (max_weight // 2):
            raise AlgebraError(f"log known through z^{log.z_bound}, weight {max_weight} needs more")
        for d, c in log.cols.items():
            m = d // 2
            if d > max_weight or not sums[m]:
                continue
            if not sums[m].is_homogeneous(d):
                raise AlgebraError(f"power sum s_{m} must be homogeneous of weight {d}")
            den, terms = int_numerators(sums[m].terms)
            columns.append((m, c, den, [(key(e), m * n) for e, n in terms.items()]))
    f = [ONE._replace(bound=bound)]
    for n in range(1, max_weight // 2 + 1):
        products = [(c, f[n - m], n * den, terms) for m, c, den, terms in columns if m <= n]
        f.append(mul_sum(products) if products else f[0]._replace(cols={}))
    return f


def exp_over_roots(logs: Sequence[tuple[RootFactor, Sequence[GradedPolynomial]]], table: GeneratorTable,
                   max_weight: int, order: int) -> PuiseuxSeries:
    """:func:`exp_by_weight` as one series, the sum of its disjoint weight pieces."""
    return PuiseuxSeries.from_packed(*exp_by_weight(logs, table, max_weight, order),
                                     zero=GradedPolynomial.zero(table, max_weight))


def prod_over_roots(log: RootFactor, fam: RootFamily, table: GeneratorTable,
                    max_weight: int, order: int) -> PuiseuxSeries:
    """``prod_{j=1..n} f(z_j) = exp(sum_m s_m * [z^2m] log f)`` in the family's generators.

    ``log`` is the log of an even per-root factor with ``f(0) = 1`` (see
    :func:`anomcancel.theta.theta_log`): even in z, with no z^0 terms.  Unit
    constants (such as a per-root 2) are the caller's responsibility.
    """
    sums = power_sums_gp(fam, max_weight // 2, table, max_weight)
    return exp_over_roots([(log, sums)], table, max_weight, order)


def additive_over_roots(z2_coeffs, fam: RootFamily, table: GeneratorTable,
                        max_weight: int) -> GradedPolynomial:
    """``sum_{j=1..n} g(z_j^2)`` where ``z2_coeffs[m]`` multiplies ``z^(2m)``."""
    sums = power_sums_gp(fam, len(z2_coeffs) - 1, table, max_weight)
    out = GradedPolynomial.zero(table, max_weight)
    for m, c in enumerate(z2_coeffs):
        if c:
            out = out + sums[m].scale(c)
    return out


def eval_at_var(log: RootFactor, table: GeneratorTable, max_weight: int,
                order: int) -> PuiseuxSeries:
    """``f(u)`` at the line root ``u = -i*w``, from the log of an even factor.

    This is the product over the one-root family :data:`LINE`.  An odd
    factor ``d = z * exp(log(d/z))`` enters as ``w * eval_at_var(log(d/z))``,
    which is ``i*d(u)``: the real form the spin^c dimension-(4k+2) product
    needs.
    """
    return prod_over_roots(log, LINE, table, max_weight, order)


def classical_genus(kind: str, fam: RootFamily, table: GeneratorTable,
                    max_weight: int) -> GradedPolynomial:
    """Multiplicative genera and character forms used by the verifications.

    ``ahat`` is ``prod z_j/sin z_j``;
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
    log_sin = log_sin_over_z(zb)
    if kind == "ahat":
        coeffs = [-c for c in log_sin]
        unit = 1
    elif kind == "spinor_ch":
        coeffs = log_cos_coeffs(zb)
        unit = 2 ** fam.n_roots
    else:
        raise AlgebraError(f"unknown genus kind {kind!r}")
    log = RootFactor.from_z_coeffs(coeffs, zb, 0)
    series = prod_over_roots(log, fam, table, max_weight, order=0)
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


def apply_constraint(poly: GradedPolynomial, kind: str) -> GradedPolynomial:
    """Apply the setting's relation to a polynomial."""
    if not isinstance(poly, GradedPolynomial):
        raise AlgebraError(f"the relation applies to a polynomial, not a {type(poly).__name__}")
    name, repl = constraint_replacement(kind, poly.table, poly.max_weight)
    return poly.substitute(name, repl)


def constrained_power_sums(fam: RootFamily, kind: str, table: GeneratorTable,
                           max_weight: int) -> list[GradedPolynomial]:
    """Power sums ``s_0..s_(max_weight//2)`` of the family with the setting's relation applied.

    The relation is a weight-preserving ring map, so it commutes with the
    exp, with products and with weight components: an exp over these sums is
    the relation applied to the exp over the plain ones.
    """
    return [apply_constraint(s, kind) for s in power_sums_gp(fam, max_weight // 2, table, max_weight)]
