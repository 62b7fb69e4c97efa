"""Level-2 modular generators and the triangular weight-2k decomposition.

The two pairs of generators are theta-null fourth powers with divisor-sum
expansions (K. Liu, *Modular invariance and characteristic numbers*, 1995):

* ``delta1 = (theta2^4 + theta3^4)/8 = 1/4 + 6 sum sigma_odd(n) q^n`` and
  ``eps1 = theta2^4 theta3^4 / 16 = 1/16 + sum (sum_{d|n} (-1)^d d^3) q^n``
  (lower congruence group);
* ``delta2 = -(theta1^4 + theta3^4)/8 = -1/8 - 3 sum sigma_odd(n) q^(n/2)`` and
  ``eps2 = theta1^4 theta3^4 / 16 = sum (sum_{d|n, n/d odd} d^3) q^(n/2)``
  (upper congruence group), ``sigma_odd(n)`` summing the odd divisors of ``n``.

A weight-2k form over the upper group decomposes as
``sum_r h_r (8*delta2)^(k-2r) eps2^r`` with ``0 <= r <= k//2``.  The basis is
triangular: element ``r`` starts at ``q^(r/2)`` with unit leading coefficient,
so the ``h_r`` are solved successively from the first coefficients and, since
the basis expansions are integral, each ``h_r`` is an integer combination of
the input coefficients.  The residual against the *full* available order is
the q-expansion witness that the input really lies in the span.

Everything runs in the packed integer form of
:class:`~anomcancel.algebra.QColumns`.  Each group's pair ``(8*delta, eps)``
is built once per order by one divisor sieve (:func:`_divisor_sums`): the
upper pair on step 4 (``q^(1/2)``), the lower pair on step 8 with
``16*eps1`` over the denominator 16.  The rows ``(8*delta)^(k-2r) eps^r`` of
one ``(group, k, order)`` are built together from shared powers of
``(8*delta)^2`` and ``eps`` by :func:`~anomcancel.algebra.mul_sum`.  A
residual ``P - s * sum_r h_r * row_r`` is one ``mul_sum``, each ``h_r`` a
single-position operand, and only its nonzero result turns into
polynomials.  The ``h_r`` themselves come from P2's integer numerators: the
leading minor is unit lower-triangular with integer entries, so
back-substitution needs no division, and it is checked against the minor's
integer inverse (:func:`unit_lower_inverse`).  :func:`decompose` and
:func:`transfer_residual` take the packed series the verdict path holds,
which carries the lattice bound it is known through, and the polynomial
ring its monomials pack; nothing converts polynomials into that form.  The
generators and rows carry the bound ``q^order``, so each residual is known
through the lesser of the series' bound and the basis order.
:func:`delta_eps` and :func:`basis_element` are ``Fraction`` views of the
same integer columns (:meth:`~anomcancel.qseries.PuiseuxSeries.from_packed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import ONE, AlgebraError, GradedPolynomial, QColumns, mul_sum
from .qseries import HALF_UNIT, Q_UNIT, PuiseuxSeries

GROUP_LOWER = "Gamma_0(2)"   # integer-exponent side  (delta1, eps1)
GROUP_UPPER = "Gamma^0(2)"   # half-integer side      (delta2, eps2)

DELTA_EPS_KINDS = ("delta1", "eps1", "delta2", "eps2")
_GROUP_OF = {"delta1": GROUP_LOWER, "eps1": GROUP_LOWER, "delta2": GROUP_UPPER, "eps2": GROUP_UPPER}

_UNIT = [(0, 1)]   # mul_sum scatter: the product itself, at the constant monomial

_gen_cache: dict[tuple, tuple[QColumns, QColumns]] = {}
_basis_cache: dict[tuple, tuple[QColumns, ...]] = {}


def _divisor_sums(count: int) -> tuple[list[int], list[int], list[int]]:
    """``sum_{d|n, d odd} d``, ``sum_{d|n, n/d odd} d^3`` and ``sum_{d|n} (-1)^d d^3`` for ``n < count``.

    One sieve over the divisors; each list holds 0 at ``n = 0``.  The first
    two give ``8*delta2`` and ``eps2`` at ``q^(n/2)``:

    >>> odd, eps2, _ = _divisor_sums(5)
    >>> [-1] + [-24 * s for s in odd[1:]], eps2
    ([-1, -24, -24, -96, -24], [0, 1, 8, 28, 64])
    """
    odd, cube_odd_cofactor, cube_signed = [0] * count, [0] * count, [0] * count
    for d in range(1, count):
        for j, n in enumerate(range(d, count, d), 1):     # n = j * d
            odd[n] += d % 2 * d
            cube_odd_cofactor[n] += j % 2 * d ** 3
            cube_signed[n] += (-1) ** d * d ** 3
    return odd, cube_odd_cofactor, cube_signed


def _generators(group: str, order: int) -> tuple[QColumns, QColumns]:
    """``(8*delta, eps)`` of one group through ``q^order`` (built once per order)."""
    key = (group, order)
    pair = _gen_cache.get(key)
    if pair is not None:
        return pair
    if order < 1:
        raise AlgebraError("order must be >= 1")
    bound = Q_UNIT * order
    if group == GROUP_UPPER:
        odd, eps, _ = _divisor_sums(2 * order + 1)      # positions q^(n/2)
        pair = (QColumns(1, HALF_UNIT, {0: [-1] + [-24 * s for s in odd[1:]]}, bound),
                QColumns(1, HALF_UNIT, {0: eps}, bound))
    elif group == GROUP_LOWER:
        odd, _, signed = _divisor_sums(order + 1)       # positions q^n
        pair = (QColumns(1, Q_UNIT, {0: [2] + [48 * s for s in odd[1:]]}, bound),
                QColumns(16, Q_UNIT, {0: [1] + [16 * s for s in signed[1:]]}, bound))
    else:
        raise AlgebraError(f"unknown group {group!r}")
    _gen_cache[key] = pair
    return pair


def delta_eps(which: str, order: int) -> PuiseuxSeries:
    """One of the four level-2 generators through ``q^order``."""
    group = _GROUP_OF.get(which)
    if group is None:
        raise AlgebraError(f"unknown generator {which!r}")
    d8, eps = _generators(group, order)
    return PuiseuxSeries.from_packed(d8._replace(den=8 * d8.den) if which.startswith("delta") else eps,
                                     zero=Fraction(0))


def _basis_rows(group: str, k: int, order: int) -> tuple[QColumns, ...]:
    """The rows ``(8*delta)^(k-2r) * eps^r``, ``r = 0..k//2``, through ``q^order`` (built once).

    The rows share the powers of ``(8*delta)^2`` and of ``eps``: about k
    products in all, none by the unit.  Upper rows are triangular: row ``r``
    vanishes below ``q^(r/2)`` and has the leading coefficient ``(-1)^k``
    there, whenever that position is within the order.
    """
    key = (group, k, order)
    rows = _basis_cache.get(key)
    if rows is not None:
        return rows
    d8, eps = _generators(group, order)
    n, one = k // 2, ONE._replace(bound=d8.bound)     # the k=0 row keeps the order's bound

    def mul(a, b):
        return b if a is one else a if b is one else mul_sum([(a, b, 1, _UNIT)])

    d2 = mul(d8, d8) if n else None           # (8*delta)^2, unused when k < 2
    d_pows = [d8 if k % 2 else one]           # (8*delta)^(k%2 + 2i)
    e_pows = [one]                            # eps^i
    for _ in range(n):
        d_pows.append(mul(d_pows[-1], d2))
        e_pows.append(mul(e_pows[-1], eps))
    rows = tuple(mul(d_pows[n - r], e_pows[r]) for r in range(n + 1))
    if group == GROUP_UPPER:
        known = d8.bound // d8.step + 1       # positions through q^order
        for r, row in enumerate(rows):
            nums = row.cols.get(0, ())
            lead = next((i for i, x in enumerate(nums) if x), known)
            if lead != min(r, known) or (lead < known and nums[lead] != (-1) ** k * row.den):
                raise AlgebraError("upper basis element lost triangularity")
    _basis_cache[key] = rows
    return rows


def basis_element(group: str, k: int, r: int, order: int) -> PuiseuxSeries:
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
    return PuiseuxSeries.from_packed(row, zero=Fraction(0))


@dataclass(frozen=True)
class Decomposition:
    """Result of expressing a series over the upper-group basis.

    ``solve_coeffs`` is the integer inverse of the leading minor, so
    ``integral_solve`` always holds: a minor with no integer inverse raises.
    """

    h: list[GradedPolynomial]
    residual: PuiseuxSeries
    solve_coeffs: list[list[int]]
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


def leading_minor(k: int, order: int) -> list[list[int]]:
    """``minor[j][r]``: upper basis row ``r`` at ``q^(j/2)``, ``j, r = 0..k//2``, as integers."""
    rows = _basis_rows(GROUP_UPPER, k, order)
    if any(row.den != 1 for row in rows):
        raise AlgebraError("upper basis rows must be integral")
    return [[row.cols[0][j] for row in rows] for j in range(k // 2 + 1)]


def unit_lower_inverse(m: list[list[int]]) -> list[list[int]]:
    """The inverse of an integer lower-triangular matrix with diagonal entries ``±1``, in integers.

    Each diagonal entry is its own inverse, so no step divides; any other
    diagonal entry, or an entry above the diagonal, raises ``AlgebraError``.

    >>> unit_lower_inverse([[1, 0], [24, -1]])
    [[1, 0], [24, -1]]
    """
    n = len(m)
    if any(m[r][r] not in (1, -1) or any(m[r][r + 1:]) for r in range(n)):
        raise AlgebraError("leading basis minor is not unit lower-triangular")
    inv = [[0] * n for _ in range(n)]
    for r in range(n):
        inv[r][r] = m[r][r]
        for j in range(r - 1, -1, -1):
            inv[r][j] = -m[r][r] * sum(m[r][i] * inv[i][j] for i in range(j, r))
    return inv


def _packed_sum(P: QColumns, h: list[GradedPolynomial], rows: tuple[QColumns, ...], scale: int,
                zero: GradedPolynomial) -> PuiseuxSeries:
    """``P + scale * sum_r h_r * rows_r`` as one :func:`mul_sum`, through the least bound of ``P`` and the rows.

    ``P`` is a packed series on the ring of ``zero``.  Each ``h_r`` enters
    through its integer form as an exact single-position operand, so the
    output step is the gcd of the rows' step and ``P``'s, and a term of
    ``P`` off the rows' lattice stays in the result.
    """
    table, cap = zero.table, zero.max_weight
    if any(p.table != table or p.max_weight != cap for p in h):
        raise AlgebraError("basis coefficients live in another polynomial ring")
    products = []
    for p, row in zip(h, rows):
        den, groups = p.int_form()
        products.append((QColumns(den, 1, {key: [n] for _, items in groups for key, n in items}),
                         row, 1, [(0, scale)]))
    products.append((P, ONE, 1, _UNIT))
    return PuiseuxSeries.from_packed(mul_sum(products), zero=zero)


def decompose(P: QColumns, k: int, zero: GradedPolynomial) -> Decomposition:
    """Solve ``P = sum_r h_r (8*delta2)^(k-2r) eps2^r`` and report the residual.

    ``P`` is a packed series known through lattice ``P.bound``, on the
    half-integer lattice, whose monomials are packed for the ring of
    ``zero``.  The ``h_r`` come out of the triangular system at ``q^0 ..
    q^(r/2)`` by back-substitution on ``P``'s integer numerators: the
    leading minor is unit lower-triangular with integer entries
    (:func:`leading_minor`), so no step divides and every ``h_r`` keeps
    ``P``'s denominator.  ``solve_coeffs`` is the minor's integer inverse,
    recording each ``h_r`` as an integer combination of the input
    coefficients, and the solve is checked against it.  The residual is then
    checked against every further coefficient ``P`` carries, through
    ``q^order`` (by default the whole of ``P``).

    The upper row ``8*delta2`` itself, through ``q^2`` (lattice 16):

    >>> from anomcancel.genus import build_generator_table
    >>> zero = GradedPolynomial.zero(build_generator_table(1, 0, True, 2), 2)
    >>> dec = decompose(QColumns(1, HALF_UNIT, {0: [-1, -24, -24, -96, -24]}, 16), 1, zero)
    >>> [p.to_text() for p in dec.h], dec.residual_zero
    (['1'], True)
    """
    if P.step % HALF_UNIT and any(n for nums in P.cols.values() for i, n in enumerate(nums)
                                  if i * P.step % HALF_UNIT):
        raise AlgebraError("decomposition input must live on the half-integer lattice")
    n_unknowns = k // 2 + 1
    if P.bound < Q_UNIT * n_unknowns:
        raise AlgebraError(
            f"series order {P.bound} lattice units cannot determine {n_unknowns} coefficients")
    order = P.bound // Q_UNIT
    minor = leading_minor(k, order)
    inv = unit_lower_inverse(minor)
    at = [divmod(HALF_UNIT * j, P.step) for j in range(n_unknowns)]
    solved: dict[int, list[int]] = {}
    for key, nums in P.cols.items():
        c = [nums[i] if not off and i < len(nums) else 0 for i, off in at]   # P at q^(j/2)
        h: list[int] = []
        for r in range(n_unknowns):
            h.append(minor[r][r] * (c[r] - sum(minor[r][s] * h[s] for s in range(r))))
            if h[r] != sum(inv[r][j] * c[j] for j in range(n_unknowns)):
                raise AlgebraError("triangular solve and matrix inverse disagree")
        solved[key] = h
    table, cap = zero.table, zero.max_weight
    vector = table.packing(cap).vector
    h_polys = [GradedPolynomial._with_form(
        table, {vector(key): Fraction(h[r], P.den) for key, h in solved.items() if h[r]}, cap, None)
        for r in range(n_unknowns)]
    residual = _packed_sum(P, h_polys, _basis_rows(GROUP_UPPER, k, order), -1, zero)
    return Decomposition(h_polys, residual, inv, True)


def transfer_residual(P1: QColumns, h: list[GradedPolynomial], l: int, k: int,
                      zero: GradedPolynomial) -> PuiseuxSeries:
    """Residual of ``P1 = 2^l sum_r h_r (8*delta1)^(k-2r) eps1^r``, through the last whole power of q.

    ``P1`` is packed as in :func:`decompose`, and known through ``P1.bound``.  A zero residual is the
    q-expansion witness of the modular transfer from the upper-group
    decomposition to the integer-exponent side.
    """
    if len(h) != k // 2 + 1:
        raise AlgebraError("coefficient list length does not match k")
    return _packed_sum(P1, h, _basis_rows(GROUP_LOWER, k, P1.bound // Q_UNIT), -(2 ** l), zero)


def integrality_report(order: int) -> dict[str, bool]:
    """Whether the normalized generator streams are integral through ``q^order``.

    Checks ``8*delta2``, ``eps2``, ``16*eps1`` and ``delta1 - 1/4``.  The
    divisor sums make them integral by construction; the tests compare the
    generators with theta-null lattice sums.
    """
    d1 = delta_eps("delta1", order)
    checks = {
        "8*delta2": delta_eps("delta2", order).scale(8),
        "eps2": delta_eps("eps2", order),
        "16*eps1": delta_eps("eps1", order).scale(16),
        "delta1-1/4": d1 - PuiseuxSeries.constant(Fraction(1, 4), d1.order_bound, Fraction(0)),
    }
    return {name: all(c.denominator == 1 for c in series.terms.values()) for name, series in checks.items()}
