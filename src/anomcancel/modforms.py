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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraError, GradedPolynomial
from .qseries import PuiseuxSeries
from .theta import HALF_UNIT, Q_UNIT, theta_null

GROUP_LOWER = "Gamma_0(2)"   # integer-exponent side  (delta1, eps1)
GROUP_UPPER = "Gamma^0(2)"   # half-integer side      (delta2, eps2)

DELTA_EPS_KINDS = ("delta1", "eps1", "delta2", "eps2")

_gen_cache: dict[tuple, PuiseuxSeries] = {}


def delta_eps(which: str, order: int) -> PuiseuxSeries:
    """One of the four level-2 generators through ``q^order``."""
    key = (which, order)
    cached = _gen_cache.get(key)
    if cached is not None:
        return cached
    bound = Q_UNIT * order
    if which in ("delta1", "eps1"):
        a = theta_null("theta2", order) ** 4
        b = theta_null("theta3", order) ** 4
    elif which in ("delta2", "eps2"):
        a = (theta_null("theta1", order).scale(2) ** 4).truncate(bound)
        b = theta_null("theta3", order) ** 4
    else:
        raise AlgebraError(f"unknown generator {which!r}")
    if which.startswith("delta"):
        out = (a + b).scale(Fraction(1, 8) if which == "delta1" else Fraction(-1, 8))
    else:
        out = (a * b).scale(Fraction(1, 16))
    out = out.truncate(bound)
    _gen_cache[key] = out
    return out


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
    if group == GROUP_UPPER:
        d, e = delta_eps("delta2", order), delta_eps("eps2", order)
    elif group == GROUP_LOWER:
        d, e = delta_eps("delta1", order), delta_eps("eps1", order)
    else:
        raise AlgebraError(f"unknown group {group!r}")
    series = (d.scale(8) ** (k - 2 * r)) * (e ** r)
    series = series.truncate(Q_UNIT * order)
    if group == GROUP_UPPER:
        lead = series.leading_exponent()
        if lead != HALF_UNIT * r or series.coefficient(lead) != (-1) ** k:
            raise AlgebraError("upper basis element lost triangularity")
    return ModularBasisElement(group, k, r, series)


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


def _combine(h: list[GradedPolynomial], series: list[PuiseuxSeries], bound: int,
             zero: GradedPolynomial) -> PuiseuxSeries:
    """``sum_r h_r * series_r`` through lattice ``bound``: one :func:`dot` per q-position."""
    bound = min([bound] + [s.order_bound for s in series])
    one = zero.one_like()
    pairs = [(hr, one) for hr in h]
    positions = sorted({k for s in series for k in s.terms if k <= bound})
    return PuiseuxSeries({k: zero.dot(pairs, [s.coefficient(k) for s in series]) for k in positions},
                         bound, zero)


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
    zero = P.zero
    basis = [basis_element(GROUP_UPPER, k, r, order) for r in range(n_unknowns)]

    h: list[GradedPolynomial] = []
    for r in range(n_unknowns):
        acc = P.coefficient(HALF_UNIT * r)
        for s in range(r):
            acc = acc - h[s].scale(basis[s].series.coefficient(HALF_UNIT * r))
        lead = basis[r].series.coefficient(HALF_UNIT * r)
        h.append(acc.scale(1 / lead))

    minor = [[basis[s].series.coefficient(HALF_UNIT * j) for s in range(n_unknowns)]
             for j in range(n_unknowns)]
    inv = _invert_lower_triangular(minor)
    integral = all(c.denominator == 1 for row in inv for c in row)
    for r in range(n_unknowns):
        from_matrix = zero
        for j in range(n_unknowns):
            from_matrix = from_matrix + P.coefficient(HALF_UNIT * j).scale(inv[r][j])
        if from_matrix != h[r]:
            raise AlgebraError("triangular solve and matrix inverse disagree")

    residual = P - _combine(h, [b.series for b in basis], P.order_bound, zero)
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
    series = [basis_element(group, k, r, order).series for r in range(len(h))]
    return _combine(h, series, Q_UNIT * order, zero)


def transfer_residual(P1: PuiseuxSeries, h: list[GradedPolynomial], l: int, k: int) -> PuiseuxSeries:
    """Residual of ``P1 = 2^l sum_r h_r (8*delta1)^(k-2r) eps1^r``.

    A zero residual is the q-expansion witness of the modular transfer from
    the upper-group decomposition to the integer-exponent side.
    """
    if len(h) != k // 2 + 1:
        raise AlgebraError("coefficient list length does not match k")
    order = P1.order_bound // Q_UNIT
    zero = P1.zero
    rebuilt = reconstruct(h, GROUP_LOWER, k, order, zero)
    return P1 - rebuilt.scale(2 ** l)


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
