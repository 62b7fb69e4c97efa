"""Level-2 modular generators and the triangular weight-2k decomposition.

The two pairs of generators are built from theta nulls:

* ``delta1 = (theta2^4 + theta3^4)/8``, ``eps1 = theta2^4 theta3^4 / 16``
  (integer-exponent expansions, lower congruence group);
* ``delta2 = -(theta1^4 + theta3^4)/8``, ``eps2 = theta1^4 theta3^4 / 16``
  (half-integer exponents, upper congruence group).

A weight-2k form over the upper group decomposes as
``sum_r h_r (8*delta2)^(k-2r) eps2^r`` with ``0 <= r <= k//2``.  The basis is
triangular: element ``r`` starts at ``q^(r/2)`` with unit leading coefficient,
so the ``h_r`` are solved successively from the first coefficients and, since
the basis expansions are integral, each ``h_r`` is an integer combination of
the input coefficients.  The residual against the *full* available order is
the q-expansion witness that the input really lies in the span.

Everything runs in the packed integer form of
:class:`~anomcancel.algebra.QColumns`.  Each group's pair ``(8*delta, eps)``
is built once per order from the nulls' integer coefficients, each fourth
power as two squarings by :func:`~anomcancel.algebra.mul_sum`: the upper pair
on step 4 (``q^(1/2)``), the lower pair on step 8 with ``16*eps1`` over the
denominator 16.  The rows ``(8*delta)^(k-2r) eps^r`` of one ``(group, k,
order)`` are built together from shared powers of ``(8*delta)^2`` and
``eps``.  A residual ``P - s * sum_r h_r * row_r`` is one ``mul_sum``, each
``h_r`` a single-position operand, and only its nonzero result turns into
polynomials.  :func:`delta_eps` and :func:`basis_element` are ``Fraction``
views of the same integer columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .algebra import AlgebraError, GradedPolynomial, QColumns, mul_sum
from .qseries import PuiseuxSeries
from .theta import HALF_UNIT, Q_UNIT, theta_null

GROUP_LOWER = "Gamma_0(2)"   # integer-exponent side  (delta1, eps1)
GROUP_UPPER = "Gamma^0(2)"   # half-integer side      (delta2, eps2)

DELTA_EPS_KINDS = ("delta1", "eps1", "delta2", "eps2")
_GROUP_OF = {"delta1": GROUP_LOWER, "eps1": GROUP_LOWER, "delta2": GROUP_UPPER, "eps2": GROUP_UPPER}

_UNIT = [(0, 1)]   # mul_sum scatter: the product itself, at the constant monomial

_gen_cache: dict[tuple, tuple[QColumns, QColumns]] = {}
_basis_cache: dict[tuple, tuple[QColumns, ...]] = {}


def _fourth_power(nums: list[int], step: int, count: int) -> list[int]:
    """The first ``count`` positions of the fourth power of an integer series: two squarings."""
    c = QColumns(1, step, {0: nums})
    for _ in range(2):
        c = mul_sum([(c, c, 1, _UNIT)], step, count)
    return c.cols[0]


def _on_step8(nums: list[int]) -> list[int]:
    if any(nums[1::2]):
        raise AlgebraError("a lower-group generator left the integer lattice")
    return nums[::2]


def _generators(group: str, order: int) -> tuple[QColumns, QColumns]:
    """``(8*delta, eps)`` of one group through ``q^order`` (built once per order)."""
    key = (group, order)
    pair = _gen_cache.get(key)
    if pair is not None:
        return pair
    count = 2 * order + 1     # step-4 positions through q^order

    def null(kind):
        terms = theta_null(kind, order).terms
        return [int(terms.get(HALF_UNIT * i, 0)) for i in range(count)]

    t3 = _fourth_power(null("theta3"), HALF_UNIT, count)
    if group == GROUP_UPPER:
        # (2*theta1)^4 = q^(1/2) * u^4, with u = 2*theta1 / q^(1/8) on the integer lattice
        terms = theta_null("theta1", order).terms
        u4 = _fourth_power([2 * int(terms.get(Q_UNIT * i + 1, 0)) for i in range(order + 1)],
                           Q_UNIT, order + 1)
        t1 = [0] * count
        t1[1::2] = u4[:order]
        a, b = QColumns(1, HALF_UNIT, {0: t1}), QColumns(1, HALF_UNIT, {0: t3})
        pair = (QColumns(1, HALF_UNIT, {0: [-x - y for x, y in zip(t1, t3)]}),
                mul_sum([(a, b, 16, _UNIT)], HALF_UNIT, count))
    elif group == GROUP_LOWER:
        t2 = _fourth_power(null("theta2"), HALF_UNIT, count)
        a, b = QColumns(1, HALF_UNIT, {0: t2}), QColumns(1, HALF_UNIT, {0: t3})
        pair = (QColumns(1, Q_UNIT, {0: _on_step8([x + y for x, y in zip(t2, t3)])}),
                QColumns(16, Q_UNIT, {0: _on_step8(mul_sum([(a, b, 1, _UNIT)], HALF_UNIT, count).cols[0])}))
    else:
        raise AlgebraError(f"unknown group {group!r}")
    _gen_cache[key] = pair
    return pair


def _view(c: QColumns, order: int, den: int = 1) -> PuiseuxSeries:
    """A scalar column divided by ``den`` as a ``Fraction`` series through ``q^order``."""
    d = c.den * den
    return PuiseuxSeries({i * c.step: Fraction(n, d) for i, n in enumerate(c.cols.get(0, ())) if n},
                         Q_UNIT * order, Fraction(0))


def delta_eps(which: str, order: int) -> PuiseuxSeries:
    """One of the four level-2 generators through ``q^order``."""
    group = _GROUP_OF.get(which)
    if group is None:
        raise AlgebraError(f"unknown generator {which!r}")
    d8, eps = _generators(group, order)
    return _view(d8, order, 8) if which.startswith("delta") else _view(eps, order)


def _basis_rows(group: str, k: int, order: int) -> tuple[QColumns, ...]:
    """The rows ``(8*delta)^(k-2r) * eps^r``, ``r = 0..k//2``, through ``q^order`` (built once).

    The rows share the powers of ``(8*delta)^2`` and of ``eps``: about k
    products in all.  Upper rows are triangular: row ``r`` vanishes below
    ``q^(r/2)`` and has the leading coefficient ``(-1)^k`` there, whenever
    that position is within the order.
    """
    key = (group, k, order)
    rows = _basis_cache.get(key)
    if rows is not None:
        return rows
    d8, eps = _generators(group, order)
    step, count, n = d8.step, Q_UNIT * order // d8.step + 1, k // 2

    def mul(a, b):
        return mul_sum([(a, b, 1, _UNIT)], step, count)

    one = QColumns(1, step, {0: [1]})
    d2 = mul(d8, d8)
    d_pows = [d8 if k % 2 else one]           # (8*delta)^(k%2 + 2i)
    e_pows = [one]                            # eps^i
    for _ in range(n):
        d_pows.append(mul(d_pows[-1], d2))
        e_pows.append(mul(e_pows[-1], eps))
    rows = tuple(mul(d_pows[n - r], e_pows[r]) for r in range(n + 1))
    if group == GROUP_UPPER:
        for r, row in enumerate(rows):
            nums = row.cols.get(0, ())
            lead = next((i for i, x in enumerate(nums) if x), count)
            if lead != min(r, count) or (lead < count and nums[lead] != (-1) ** k * row.den):
                raise AlgebraError("upper basis element lost triangularity")
    _basis_cache[key] = rows
    return rows


@dataclass(frozen=True)
class ModularBasisElement:
    group: str
    k: int
    r: int
    series: PuiseuxSeries


def basis_element(group: str, k: int, r: int, order: int) -> ModularBasisElement:
    """``(8*delta)^(k-2r) * eps^r`` for the requested group.

    The exponent is ``k - 2r`` so every term has weight 2k (delta has weight
    2, eps weight 4).  Upper-group elements are triangular: the series starts
    at ``q^(r/2)`` with leading coefficient ``(-1)^k``.
    """
    if k < 0:
        raise AlgebraError(f"k={k} must be >= 0")
    if not 0 <= r <= k // 2:
        raise AlgebraError(f"r={r} outside 0..{k // 2}")
    row = _basis_rows(group, k, order)[r]
    if group == GROUP_UPPER and HALF_UNIT * r > Q_UNIT * order:
        raise AlgebraError(f"upper basis element r={r} starts beyond q^{order}")
    return ModularBasisElement(group, k, r, _view(row, order))


@dataclass(frozen=True)
class Decomposition:
    """Result of expressing a series over the upper-group basis."""

    k: int
    h: list[GradedPolynomial]
    residual: PuiseuxSeries
    solve_coeffs: list[list[Fraction]]
    integral_solve: bool

    @property
    def residual_zero(self) -> bool:
        return self.residual.is_zero()

    def to_json_obj(self):
        return {
            "h": [p.to_json_obj() for p in self.h],
            "residual_zero": self.residual_zero,
            "solve_coeffs": [[str(c) for c in row] for row in self.solve_coeffs],
            "integral_solve": self.integral_solve,
        }


def _packed_sum(terms: dict, h: list[GradedPolynomial], rows: tuple[QColumns, ...], scale: int,
                bound: int, zero: GradedPolynomial) -> PuiseuxSeries:
    """``terms + scale * sum_r h_r * rows_r`` through lattice ``bound``: one :func:`mul_sum`.

    ``terms`` maps lattice positions to polynomial coefficients.  The output
    step is the gcd of the rows' step and the positions of ``terms`` within
    the bound, so a term off the rows' lattice stays in the result.
    """
    table, cap = zero.table, zero.max_weight
    if any(p.table != table or p.max_weight != cap for p in h):
        raise AlgebraError("basis coefficients live in another polynomial ring")
    terms = {k: c for k, c in terms.items() if k <= bound}
    step = gcd(rows[0].step, *terms)
    products = [(QColumns.from_polys({0: p}, step), row, 1, [(0, scale)]) for p, row in zip(h, rows)]
    products.append((QColumns.from_polys(terms, step), QColumns(1, step, {0: [1]}), 1, _UNIT))
    out = mul_sum(products, step, bound // step + 1)
    return PuiseuxSeries(out.polys(table, cap), bound, zero)


def decompose(P: PuiseuxSeries, k: int, order: int | None = None) -> Decomposition:
    """Solve ``P = sum_r h_r (8*delta2)^(k-2r) eps2^r`` and report the residual.

    ``P`` has graded-polynomial coefficients on the half-integer lattice.  The
    ``h_r`` come out of the triangular system at ``q^0 .. q^(r/2)``; the
    residual is then checked against every further coefficient ``P`` carries.
    ``solve_coeffs`` is the inverse of the leading basis minor, recording each
    ``h_r`` as an (integer) combination of the input coefficients.
    """
    if not P.support_on_lattice(HALF_UNIT):
        raise AlgebraError("decomposition input must live on the half-integer lattice")
    n_unknowns = k // 2 + 1
    if P.order_bound < Q_UNIT * n_unknowns:
        raise AlgebraError(
            f"series order {P.order_bound} lattice units cannot determine {n_unknowns} coefficients")
    if order is None:
        order = P.order_bound // Q_UNIT
    elif 2 * order < k // 2:
        raise AlgebraError(f"basis order {order} cannot hold the leading {n_unknowns} coefficients")
    rows = _basis_rows(GROUP_UPPER, k, order)
    # minor[j][s]: basis row s at q^(j/2), read from the integer rows
    minor = [[Fraction(row.cols[0][j], row.den) for row in rows] for j in range(n_unknowns)]

    h: list[GradedPolynomial] = []
    for r in range(n_unknowns):
        acc = P.coefficient(HALF_UNIT * r)
        for s in range(r):
            acc = acc - h[s].scale(minor[r][s])
        h.append(acc.scale(1 / minor[r][r]))

    inv = _invert_lower_triangular(minor)
    integral = all(c.denominator == 1 for row in inv for c in row)
    for r in range(n_unknowns):
        from_matrix = P.zero
        for j in range(n_unknowns):
            from_matrix = from_matrix + P.coefficient(HALF_UNIT * j).scale(inv[r][j])
        if from_matrix != h[r]:
            raise AlgebraError("triangular solve and matrix inverse disagree")

    residual = _packed_sum(P.terms, h, rows, -1, min(P.order_bound, Q_UNIT * order), P.zero)
    return Decomposition(k, h, residual, inv, integral)


def _invert_lower_triangular(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    inv = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        inv[r][r] = 1 / m[r][r]
        for j in range(r - 1, -1, -1):
            inv[r][j] = -sum((m[r][i] * inv[i][j] for i in range(j, r)), Fraction(0)) / m[r][r]
    return inv


def reconstruct(h: list[GradedPolynomial], group: str, k: int, order: int,
                zero: GradedPolynomial) -> PuiseuxSeries:
    """``sum_r h_r * basis(group, k, r)`` as a polynomial-valued series."""
    if len(h) > k // 2 + 1:
        raise AlgebraError(f"{len(h)} coefficients for the {k // 2 + 1} basis elements of k={k}")
    return _packed_sum({}, h, _basis_rows(group, k, order), 1, Q_UNIT * order, zero)


def transfer_residual(P1: PuiseuxSeries, h: list[GradedPolynomial], l: int, k: int) -> PuiseuxSeries:
    """Residual of ``P1 = 2^l sum_r h_r (8*delta1)^(k-2r) eps1^r``.

    A zero residual is the q-expansion witness of the modular transfer from
    the upper-group decomposition to the integer-exponent side.
    """
    if len(h) != k // 2 + 1:
        raise AlgebraError("coefficient list length does not match k")
    order = P1.order_bound // Q_UNIT
    return _packed_sum(P1.terms, h, _basis_rows(GROUP_LOWER, k, order), -(2 ** l), Q_UNIT * order,
                       P1.zero)


def integrality_report(order: int) -> dict[str, bool]:
    """Whether the normalized generator streams are integral through ``q^order``.

    Checks ``8*delta2``, ``eps2``, ``16*eps1`` and ``delta1 - 1/4``.
    """
    out = {}
    d1 = delta_eps("delta1", order)
    checks = {
        "8*delta2": delta_eps("delta2", order).scale(8),
        "eps2": delta_eps("eps2", order),
        "16*eps1": delta_eps("eps1", order).scale(16),
        "delta1-1/4": d1 - PuiseuxSeries.constant(Fraction(1, 4), d1.order_bound, Fraction(0)),
    }
    for name, series in checks.items():
        out[name] = all(c.denominator == 1 for c in series.terms.values())
    return out
