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
so the ``h_r`` are integer combinations of the first ``k//2 + 1``
coefficients, the Sturm count of weight 2k on an index-3 group (Sturm 1987).
For a modular input those decide the form, so the residual at the further
orders tests that the input is modular; on the lower group a transfer
residual that is zero through ``q^(k//2)`` proves the transfer.

Everything runs in the packed integer form of
:class:`~anomcancel.algebra.QColumns`.  One divisor sieve per order
(:func:`_divisor_sums`) builds both groups' pairs ``(8*delta, eps)``: the
upper pair on step 4 (``q^(1/2)``), the lower, from a prefix, on step 8
with ``16*eps1`` over 16.  The rows of one ``(group, k, order)`` share the powers
of ``(8*delta)^2`` and ``eps``, and a residual ``P - s * sum_r h_r * row_r``
is one :func:`~anomcancel.algebra.mul_sum`.  The ``h_r`` are the leading
minor's integer inverse (:func:`unit_lower_inverse`) applied to P2's first
``k//2 + 1`` integer numerators, with no division; the residual, zero at the
solved positions too, is what checks that solve.  :func:`decompose`
and :func:`transfer_residual` take the packed series the verdict path holds,
with its lattice bound and its ring; each ``h_r`` leaves the packed form on
that ring by ``QColumns.coefficient`` and re-enters by ``QColumns.of``, where
``mul_sum`` checks its ring.  Each residual is known through the lesser of
the series' bound and the basis order.  The
residuals, :func:`delta_eps` and :func:`basis_element` leave the integer
columns as read-only views (:meth:`~anomcancel.qseries.PuiseuxSeries.from_packed`),
and a residual is zero when its view stores no term (``not residual``).
"""

from __future__ import annotations

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

    One sieve: each divisor ``d`` takes its cube, sign and parity once and adds them along its
    multiples (every second one for the odd cofactors).  Each list holds 0 at ``n = 0`` and is a
    prefix of the list for a larger count.  The first two give ``8*delta2`` and ``eps2`` at ``q^(n/2)``:

    >>> odd, eps2, _ = _divisor_sums(5)
    >>> [-1] + [-24 * s for s in odd[1:]], eps2
    ([-1, -24, -24, -96, -24], [0, 1, 8, 28, 64])
    """
    odd, cube_odd_cofactor, cube_signed = [0] * count, [0] * count, [0] * count
    for d in range(1, count):
        cube = d ** 3
        d_odd, signed = (d, -cube) if d % 2 else (0, cube)
        for n in range(d, count, d):
            odd[n] += d_odd
            cube_signed[n] += signed
        for n in range(d, count, 2 * d):        # n = j * d, j odd
            cube_odd_cofactor[n] += cube
    return odd, cube_odd_cofactor, cube_signed


def _generators(group: str, order: int) -> tuple[QColumns, QColumns]:
    """``(8*delta, eps)`` of one group through ``q^order``: one sieve per order builds both groups'
    pairs, the upper at ``q^(n/2)`` through ``n = 2*order``, the lower from the prefix at ``q^n``."""
    key = (group, order)
    pair = _gen_cache.get(key)
    if pair is not None:
        return pair
    if order < 1:
        raise AlgebraError("order must be >= 1")
    if group not in (GROUP_LOWER, GROUP_UPPER):
        raise AlgebraError(f"unknown group {group!r}")
    bound = Q_UNIT * order
    odd, eps, signed = _divisor_sums(2 * order + 1)
    _gen_cache[(GROUP_UPPER, order)] = (QColumns(1, HALF_UNIT, {0: [-1] + [-24 * s for s in odd[1:]]}, bound),
                                        QColumns(1, HALF_UNIT, {0: eps}, bound))
    _gen_cache[(GROUP_LOWER, order)] = (
        QColumns(1, Q_UNIT, {0: [2] + [48 * s for s in odd[1:order + 1]]}, bound),
        QColumns(16, Q_UNIT, {0: [1] + [16 * s for s in signed[1:order + 1]]}, bound))
    return _gen_cache[key]


def delta_eps(which: str, order: int) -> PuiseuxSeries:
    """One of the four level-2 generators through ``q^order``."""
    group = _GROUP_OF.get(which)
    if group is None:
        raise AlgebraError(f"unknown generator {which!r}")
    d8, eps = _generators(group, order)
    return PuiseuxSeries.from_packed(d8._replace(den=8 * d8.den) if which.startswith("delta") else eps)


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
    return PuiseuxSeries.from_packed(row)


class Decomposition:
    """Result of expressing a series over the upper-group basis.

    ``solve_coeffs`` is the integer inverse of the leading minor; a minor
    with no integer inverse raises in :func:`unit_lower_inverse`.
    """

    def __init__(self, h: list[GradedPolynomial], residual: PuiseuxSeries, solve_coeffs: list[list[int]]):
        self.h, self.residual, self.solve_coeffs = h, residual, solve_coeffs

    @property
    def residual_zero(self) -> bool:
        return not self.residual

    def to_json_obj(self):
        return {
            "h": [p.to_json_obj() for p in self.h],
            "residual_zero": self.residual_zero,
            "solve_coeffs": [[str(c) for c in row] for row in self.solve_coeffs],
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


def _packed_sum(P: QColumns, h: list[GradedPolynomial], rows: tuple[QColumns, ...], scale: int) -> PuiseuxSeries:
    """``P + scale * sum_r h_r * rows_r`` as one :func:`mul_sum`, through the least bound of ``P`` and the rows.

    Each ``h_r`` enters through its integer form as an exact single-position
    operand on its ring, which :func:`mul_sum` checks against ``P``'s; the
    output step is the gcd of the rows' step and ``P``'s, and a term of
    ``P`` off the rows' lattice stays in the result.
    """
    products = [(QColumns.of(p), row, 1, [(0, scale)]) for p, row in zip(h, rows)] + [(P, ONE, 1, _UNIT)]
    return PuiseuxSeries.from_packed(mul_sum(products))


def decompose(P: QColumns, k: int) -> Decomposition:
    """Solve ``P = sum_r h_r (8*delta2)^(k-2r) eps2^r`` and report the residual.

    ``P`` is a packed series known through lattice ``P.bound``, on the
    half-integer lattice and the ring ``P.table``, which every ``h_r`` is
    on.  The leading minor, the rows at ``q^(j/2)`` for ``j = 0..k//2``,
    is unit lower-triangular with integer entries (:func:`leading_minor`), so its
    inverse is integral (:func:`unit_lower_inverse`), and the ``h_r`` are
    that inverse applied to ``P``'s integer numerators at those positions:
    no step divides, and every ``h_r`` keeps ``P``'s denominator.  The
    inverse is reported as ``solve_coeffs``, each ``h_r`` an integer
    combination of the input coefficients.  The residual ``P - sum_r h_r
    row_r`` is checked at every position ``P`` carries, the solved ones
    included, so it also checks the solve.

    The upper row ``8*delta2`` itself, through ``q^2`` (lattice 16):

    >>> from anomcancel.genus import build_generator_table
    >>> table = build_generator_table(1, 0, True, 2)
    >>> dec = decompose(QColumns(1, HALF_UNIT, {0: [-1, -24, -24, -96, -24]}, 16, table), 1)
    >>> [p.to_text() for p in dec.h], dec.residual_zero
    (['1'], True)
    """
    if P.step % HALF_UNIT and any(n for nums in P.cols.values() for i, n in enumerate(nums)
                                  if i * P.step % HALF_UNIT):
        raise AlgebraError("decomposition input must live on the half-integer lattice")
    n_unknowns = k // 2 + 1
    order = _known_order(P)
    if order < n_unknowns:
        raise AlgebraError(
            f"series order {P.bound} lattice units cannot determine {n_unknowns} coefficients")
    inv = unit_lower_inverse(leading_minor(k, order))
    at = [divmod(HALF_UNIT * j, P.step) for j in range(n_unknowns)]
    solved: dict[int, list[int]] = {}
    for key, nums in P.cols.items():
        c = [nums[i] if not off and i < len(nums) else 0 for i, off in at]   # P at q^(j/2)
        solved[key] = [sum(x * y for x, y in zip(row, c)) for row in inv]
    h_polys = [QColumns(P.den, 1, {key: [h[r]] for key, h in solved.items() if h[r]}, None, P.table)
               .coefficient(0) for r in range(n_unknowns)]
    residual = _packed_sum(P, h_polys, _basis_rows(GROUP_UPPER, k, order), -1)
    return Decomposition(h_polys, residual, inv)


def transfer_residual(P1: QColumns, h: list[GradedPolynomial], l: int, k: int) -> PuiseuxSeries:
    """Residual of ``P1 = 2^l sum_r h_r (8*delta1)^(k-2r) eps1^r``, through the last whole power of q.

    ``P1`` is packed as in :func:`decompose`, known through ``P1.bound``, each ``h_r`` on its ring.
    For a modular ``P1``, a residual zero through ``q^(k//2)`` (the Sturm bound) proves the transfer
    from the upper-group decomposition to the integer-exponent side; past it, it tests that P1 is modular.
    """
    if len(h) != k // 2 + 1:
        raise AlgebraError("coefficient list length does not match k")
    return _packed_sum(P1, h, _basis_rows(GROUP_LOWER, k, _known_order(P1)), -(2 ** l))


def _known_order(P: QColumns) -> int:
    """The last whole power of q a residual against ``P`` is checked through."""
    if P.bound is None:
        raise AlgebraError("an exact series has no finite order to check a residual against")
    return P.bound // Q_UNIT
