"""Symmetric-function engine: per-root factors to polynomial-valued series.

A multiplicative factor ``f(z)`` with f(0) = 1 enters through its log, which
:func:`anomcancel.theta.theta_log` gives in closed form.  ``prod_j f(z_j)``
over a family of formal roots is then assembled by the log/Newton/exp route:
the ``z^{2m}`` column of the log multiplies the power sum ``s_m`` of the
squared roots, power sums convert to the elementary generators
``n_i = e_i(z^2)`` by Newton's identities (with ``e_i = 0`` beyond the
family's root count), and one exp, run weight piece by weight piece with the
Euler recurrence ``n*F_n = sum_j j*S_j*F_(n-j)``, reassembles the product.
Evaluation at the spin^c line root and the classical genera go through the
same exp.  Explicit-root expansion is kept out of the library and used only
as a small-instance test oracle.

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
from .theta import RootFactor, log_cos_coeffs, log_z_coeffs, sin_over_z_coeffs

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


def power_sums_gp(fam: RootFamily, m_max: int, table: GeneratorTable,
                  max_weight: int) -> list[GradedPolynomial]:
    """Power sums ``s_0..s_m_max`` of squared roots in the elementary generators (Newton)."""
    e = [elementary_gp(fam, i, table, max_weight) for i in range(m_max + 1)]
    s: list[GradedPolynomial] = [GradedPolynomial.scalar(fam.n_roots, table, max_weight)]
    for i in range(1, m_max + 1):
        acc = GradedPolynomial.zero(table, max_weight)
        for j in range(1, i):
            term = e[j] * s[i - j]
            acc = acc + (term if j % 2 == 1 else -term)
        lead = e[i].scale(i)
        s.append(acc + (lead if i % 2 == 1 else -lead))
    return s


def _log_columns(log: RootFactor, max_weight: int, order: int) -> tuple[int, dict[int, dict[int, Fraction]]]:
    """``(bound, {m: {lattice: coeff}})``: the z^2m columns of a log through q^order."""
    if any(d % 2 or d == 0 for d, _ in log.terms):
        raise AlgebraError("a root-factor log must be even in z and vanish at z = 0")
    if log.z_bound < 2 * (max_weight // 2):
        raise AlgebraError(f"log known through z^{log.z_bound}, weight {max_weight} needs more")
    bound = min(8 * order, log.q_bound)
    columns: dict[int, dict[int, Fraction]] = {}
    for (d, k), c in log.terms.items():
        if k <= bound and d <= max_weight:
            columns.setdefault(d // 2, {})[k] = c
    return bound, columns


def _exp_weight_pieces(pieces: dict[int, tuple[GradedPolynomial, dict[int, Fraction]]],
                       bound: int, table: GeneratorTable, max_weight: int) -> PuiseuxSeries:
    """``F = exp(S)`` for ``S = sum_j p_j * c_j(q)``, one weight piece at a time.

    ``p_j`` is homogeneous of weight ``2j`` and ``c_j`` a scalar q-series
    ``{lattice: coeff}``.  The Euler operator (weight/2) is a derivation, so
    the weight-2n piece of F obeys ``n*F_n = sum_j j * p_j * c_j * F_(n-j)``.
    Each q-position of ``F_n`` is one :func:`dot` over the pairs
    ``(F_(n-j)[k2], p_j)`` with scalars ``c_j[k1] * j/n``, ``k1 + k2 = k``;
    the kernel sums the pairs that share ``p_j`` first, so each ``p_j``
    multiplies once per position.  The pieces have disjoint weights, so
    ``F`` is their union.
    """
    one = GradedPolynomial.one(table, max_weight)
    pieces_of_f: list[dict[int, GradedPolynomial]] = [{0: one}]
    for n in range(1, max_weight // 2 + 1):
        pairs: dict[int, tuple[list, list]] = {}
        for j, (poly, col) in pieces.items():
            if j > n:
                continue
            for k1, c in col.items():
                cj = c * Fraction(j, n)
                for k2, g in pieces_of_f[n - j].items():
                    if k1 + k2 <= bound:
                        ps, ss = pairs.setdefault(k1 + k2, ([], []))
                        ps.append((g, poly))
                        ss.append(cj)
        piece = {k: one.dot(ps, ss) for k, (ps, ss) in pairs.items()}
        pieces_of_f.append({k: g for k, g in piece.items() if g})
    total: dict[int, dict] = {}
    for piece in pieces_of_f:
        for k, g in piece.items():
            total.setdefault(k, {}).update(g.terms)
    return PuiseuxSeries({k: GradedPolynomial(table, t, max_weight) for k, t in total.items()},
                         bound, GradedPolynomial.zero(table, max_weight))


def prod_over_roots(log: RootFactor, fam: RootFamily, table: GeneratorTable,
                    max_weight: int, order: int) -> PuiseuxSeries:
    """``prod_{j=1..n} f(z_j) = exp(sum_m s_m * [z^2m] log f)`` in the family's generators.

    ``log`` is the log of an even per-root factor with ``f(0) = 1`` (see
    :func:`anomcancel.theta.theta_log`): even in z, with no z^0 terms.  Unit
    constants (such as a per-root 2) are the caller's responsibility.
    """
    bound, columns = _log_columns(log, max_weight, order)
    sums = power_sums_gp(fam, max(columns, default=0), table, max_weight)
    pieces = {m: (sums[m], col) for m, col in columns.items() if sums[m]}
    return _exp_weight_pieces(pieces, bound, table, max_weight)


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

    The line is a one-root family whose squared root is ``u^2 = -w^2``, so
    its power sums are ``(-w^2)^m`` and the same exp applies.  An odd factor
    ``d = z * exp(log(d/z))`` enters as ``w * eval_at_var(log(d/z))``, which
    is ``i*d(u)``: the real form the spin^c dimension-(4k+2) product needs.
    """
    bound, columns = _log_columns(log, max_weight, order)
    pieces = {}
    for m, col in columns.items():
        u_2m = GradedPolynomial.generator("w", table, max_weight, power=2 * m).scale((-1) ** m)
        pieces[m] = (u_2m, col)
    return _exp_weight_pieces(pieces, bound, table, max_weight)


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
    log_sin = log_z_coeffs(sin_over_z_coeffs(zb))
    if kind == "ahat":
        coeffs = [-c for c in log_sin]
        unit = 1
    elif kind == "lhat":
        coeffs = [lc - c for lc, c in zip(log_cos_coeffs(zb), log_sin)]
        unit = 2 ** fam.n_roots
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


def apply_constraint(obj, kind: str):
    """Apply the setting's relation to a polynomial or a polynomial-valued series."""
    if isinstance(obj, PuiseuxSeries):
        name, repl = constraint_replacement(kind, obj.zero.table, obj.zero.max_weight)
        return obj.map_coefficients(lambda p: p.substitute(name, repl))
    name, repl = constraint_replacement(kind, obj.table, obj.max_weight)
    return obj.substitute(name, repl)
