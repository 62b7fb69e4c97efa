"""Symmetric-function engine: per-root factors to polynomial-valued series.

A multiplicative factor ``f(z)`` with f(0) = 1 enters through its log, which
:func:`anomcancel.theta.theta_log` gives in closed form as integer columns
(one scalar :class:`~anomcancel.algebra.QColumns` per ``z^2m``), read here
as they are.  ``prod_j f(z_j)``
over a family of formal roots is then assembled by the log/Newton/exp route:
the ``z^{2m}`` column of the log multiplies the power sum ``s_m`` of the
squared roots, power sums convert to the elementary generators
``n_i = e_i(z^2)`` by Newton's identities (one
:func:`~anomcancel.algebra.dot` per sum, with ``e_i = 0`` beyond the
family's root count), and one exp, run weight piece by weight piece with the
Euler recurrence ``n*F_n = sum_j j*S_j*F_(n-j)``, reassembles the product:
:func:`~anomcancel.algebra.exp_by_grade`, which the lambda-ring strings of
``kvirt`` run too.  The pieces ``F_n`` stay in the packed integer form of
:class:`~anomcancel.algebra.QColumns`, and only the callers that hand a
series on (:func:`prod_over_roots`) turn it into ``Fraction``s.
Logs on several families go into one exp (:func:`exp_by_weight`), which
returns the result split by weight, each piece carrying the lattice bound
it is known through, so a caller that reads only the top
weight of a product multiplies only the pairs of pieces whose weights add up
to it.  A setting's first-class relation is a weight-preserving ring map, so
it commutes with products, exps, weight components and Adams operations: a
family carries it (``RootFamily.relation``) and it is applied once per
family, to ``e_1``, the one weight-2 class and so the only elementary class it
can touch (:func:`elementary_gp`), so the power sums and
every genus, bundle and series built from them are already in its image; it
is never applied to an output.  Evaluation at the
spin^c line root and the classical genera go through the same exp; the
genera read their logs as the q^0 slices of ``theta_log`` (``z/sin z`` of
the Witten factor, ``cos z`` of ``t1``).
Explicit-root expansion is kept out of the library and used only as a
small-instance test oracle.

A ring is a :class:`~anomcancel.algebra.GeneratorTable`, whose ``cap`` is the
truncation weight: every function here takes the table and no weight of its
own, the power sums run through ``s_(cap//2)``, and only
:func:`build_generator_table` chooses a cap.

Root conventions: a rank-2n real family contributes n squared-root variables;
the tangent family of a dim-4k (resp. 4k+2) manifold has 2k (resp. 2k+1) of
them, an auxiliary rank-2l bundle has l, and the spin^c line is the one-root
family :data:`LINE` over the single weight-1 generator ``w = c/2``.  The
line's root variable is ``u = -i*w``, so its squared root is ``-w^2`` and its
power sums are ``(-w^2)^m``; writing every line quantity in ``w`` keeps all
coefficients rational (see :func:`eval_at_var`).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .algebra import AlgebraError, Generator, GeneratorTable, GradedPolynomial, QColumns, Record, dot, exp_by_grade
from .qseries import Q_UNIT, PuiseuxSeries
from .theta import RootFactor, theta_log

FAMILY_TM = "TM"
FAMILY_V = "V"
FAMILY_W = "W"

CONSTRAINT_KINDS = ("spin4k", "spinc4k", "spinc4k2")     # the setting kinds, one relation each

_power_sums_cache: dict[tuple, tuple[GradedPolynomial, ...]] = {}


class RootFamily(Record):
    """``n_roots`` formal roots of one family; ``relation``, a setting kind, holds on their classes."""

    __slots__ = ("family", "n_roots", "relation")

    def __init__(self, family: str, n_roots: int, relation: str | None = None):
        if n_roots < 1:
            raise AlgebraError("a root family needs at least one root")
        if family == FAMILY_W and n_roots != 1:
            raise AlgebraError("the spin^c line is a single root")
        if relation is not None and relation not in CONSTRAINT_KINDS:
            raise AlgebraError(f"unknown constraint kind {relation!r}")
        super().__init__(family, n_roots, relation)


LINE = RootFamily(FAMILY_W, 1)


def build_generator_table(n_tm_roots: int, n_v_roots: int, include_w: bool,
                          max_weight: int) -> GeneratorTable:
    """The ring of one verification setting: normalized generators, truncated at ``max_weight``.

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
    return GeneratorTable(gens, max_weight)


def elementary_gp(fam: RootFamily, i: int, table: GeneratorTable) -> GradedPolynomial:
    """``e_i`` of the family's squared roots as a table generator (or zero), under its relation.

    A relation replaces a weight-2 class, so it can touch ``e_1`` only; the
    line's one squared root ``u^2 = -w^2`` it never touches.
    """
    if i == 0:
        return GradedPolynomial.one(table)
    if i > fam.n_roots or 2 * i > table.cap:
        return GradedPolynomial.zero(table)
    if fam.family == FAMILY_W:
        return GradedPolynomial.generator("w", table, power=2).scale(-1)
    prefix = {FAMILY_TM: "nM", FAMILY_V: "nV"}[fam.family]
    e = GradedPolynomial.generator(f"{prefix}{i}", table)
    return e if fam.relation is None or i > 1 else apply_constraint(e, fam.relation)


def power_sums_gp(fam: RootFamily, table: GeneratorTable) -> tuple[GradedPolynomial, ...]:
    """Power sums ``s_0..s_(cap//2)`` of squared roots in the elementary generators (Newton).

    They are built once per family (with its relation, put on ``e_1`` once)
    and table, each by one :func:`~anomcancel.algebra.dot`: ``s_i =
    sum_(j<i) (-1)^(j-1) e_j s_(i-j) + (-1)^(i-1) i e_i``.  ``s_m`` has
    weight ``2m``, so the later ones vanish and are left out.
    """
    key = (fam, table)
    sums = _power_sums_cache.get(key)
    if sums is None:
        e = [elementary_gp(fam, i, table) for i in range(table.cap // 2 + 1)]
        signed = [p if j % 2 else -p for j, p in enumerate(e)]      # (-1)^(j-1) e_j
        s: list[GradedPolynomial] = [GradedPolynomial.scalar(fam.n_roots, table)]
        for i in range(1, len(e)):
            s.append(dot([(signed[j], s[i - j]) for j in range(1, i)] + [(signed[i].scale(i), e[0])], table))
        sums = _power_sums_cache[key] = tuple(s)
    return sums


def exp_by_weight(logs: Sequence[tuple[RootFactor, Sequence[GradedPolynomial]]], order: int) -> list[QColumns]:
    """``F[n]``: the weight-2n part of ``F = exp(S)``, ``S = sum_(log, s) sum_m s_m * [z^2m] log``.

    Each entry pairs the log of an even per-root factor with the power sums
    ``s_0..s_(cap//2)`` of one root family, so one exp multiplies the
    factors of several families; the weight is the cap of the sums' table,
    which must be one table.  Each z^2m column of a log, scattered over the
    terms of ``s_m`` (weight ``2m``), is a grade-m term for
    :func:`~anomcancel.algebra.exp_by_grade`.  The pieces are known through
    ``q^order``, or the logs' least ``q_bound`` if that is less.
    """
    table = logs[0][1][0].table
    cap, bound = table.cap, min(min(Q_UNIT * order, log.q_bound) for log, _ in logs)
    columns = []
    for log, sums in logs:
        if sums[0].table != table:
            raise AlgebraError("power sums from different generator tables go into one exp")
        if any(d % 2 or d == 0 for d in log.cols):
            raise AlgebraError("a root-factor log must be even in z and vanish at z = 0")
        if log.z_bound < 2 * (cap // 2):
            raise AlgebraError(f"log known through z^{log.z_bound}, weight {cap} needs more")
        for d, c in log.cols.items():
            m = d // 2
            if d > cap or not sums[m]:
                continue
            if not sums[m].is_homogeneous(d):
                raise AlgebraError(f"power sum s_{m} must be homogeneous of weight {d}")
            den, groups = sums[m].int_form()
            columns.append((m, c, den, [item for _, items in groups for item in items]))
    return exp_by_grade(columns, table, bound)


def prod_over_roots(log: RootFactor, fam: RootFamily, table: GeneratorTable, order: int) -> PuiseuxSeries:
    """``prod_{j=1..n} f(z_j) = exp(sum_m s_m * [z^2m] log f)`` in the family's generators.

    ``log`` is the log of an even per-root factor with ``f(0) = 1`` (see
    :func:`anomcancel.theta.theta_log`): even in z, with no z^0 terms.  Unit
    constants (such as a per-root 2) are the caller's responsibility.
    """
    return PuiseuxSeries.from_pieces(exp_by_weight([(log, power_sums_gp(fam, table))], order))


def additive_over_roots(z2_coeffs, fam: RootFamily, table: GeneratorTable) -> GradedPolynomial:
    """``sum_{j=1..n} g(z_j^2)`` where ``z2_coeffs[m]`` multiplies ``z^(2m)``, read through ``m = cap//2``."""
    out = GradedPolynomial.zero(table)
    for c, s in zip(z2_coeffs, power_sums_gp(fam, table)):
        if c:
            out = out + s.scale(c)
    return out


def eval_at_var(log: RootFactor, table: GeneratorTable, order: int) -> PuiseuxSeries:
    """``f(u)`` at the line root ``u = -i*w``, from the log of an even factor.

    This is the product over the one-root family :data:`LINE`.  An odd
    factor ``d = z * exp(log(d/z))`` enters as ``w * eval_at_var(log(d/z))``,
    which is ``i*d(u)``: the real form the spin^c dimension-(4k+2) product
    needs.
    """
    return prod_over_roots(log, LINE, table, order)


def classical_genus(kind: str, fam: RootFamily, table: GeneratorTable) -> GradedPolynomial:
    """Multiplicative genera and character forms used by the verifications.

    ``ahat`` is ``prod z_j/sin z_j``;
    ``spinor_ch`` is ``prod 2 cos z_j`` (spinor character, rank ``2^n``);
    ``exp_half_c`` is ``e^{iu} = e^{w}``, the half line-class exponential.
    """
    if kind == "exp_half_c":        # sum_d w^d / d!
        w = table.index("w")
        return GradedPolynomial(table, {tuple(d * (j == w) for j in range(len(table))): Fraction(1, factorial(d))
                                        for d in range(table.cap + 1)})
    if kind not in ("ahat", "spinor_ch"):
        raise AlgebraError(f"unknown genus kind {kind!r}")
    # the q^0 slices of the Witten factor (z/sin z) and of t1 (cos z)
    log = theta_log("a" if kind == "ahat" else "t1", 0, 2 * (table.cap // 2))
    unit = 1 if kind == "ahat" else 2 ** fam.n_roots
    series = prod_over_roots(log, fam, table, order=0)
    return series.coefficient(0).scale(unit)


def constraint_replacement(kind: str, table: GeneratorTable) -> tuple[str, GradedPolynomial]:
    """The generator substitution implementing a setting's first-class relation.

    * ``spin4k``:   auxiliary class vanishes, ``nV1 -> 0``;
    * ``spinc4k``:  ``nM1 -> 3u^2 + nV1 = -3w^2 + nV1``;
    * ``spinc4k2``: ``nM1 -> u^2 + nV1 = -w^2 + nV1``.
    """
    if kind == "spin4k":
        return "nV1", GradedPolynomial.zero(table)
    w2 = GradedPolynomial.generator("w", table, power=2)
    nv1 = GradedPolynomial.generator("nV1", table)
    if kind == "spinc4k":
        return "nM1", nv1 - w2.scale(3)
    if kind == "spinc4k2":
        return "nM1", nv1 - w2
    raise AlgebraError(f"unknown constraint kind {kind!r}")


def apply_constraint(poly: GradedPolynomial, kind: str) -> GradedPolynomial:
    """Apply the setting's relation to a polynomial."""
    if not isinstance(poly, GradedPolynomial):
        raise AlgebraError(f"the relation applies to a polynomial, not a {type(poly).__name__}")
    name, repl = constraint_replacement(kind, poly.table)
    return poly.substitute(name, repl)
