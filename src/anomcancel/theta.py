"""q-expansions of the four Jacobi theta functions and their per-root factors.

Everything is normalized so that only exact rational data appears:

* arguments are rescaled so the trigonometric slices are ``sin z``/``cos z``
  in the normalized root variable ``z`` (pi times the classical variable);
* the null values of the two odd-type functions are returned with their
  overall constants stripped: ``theta1`` means the classical null divided
  by 2, ``theta_prime`` means the derivative null divided by 2*pi.  These
  two carry the lattice offset ``q^(1/8)``.

The nulls (:func:`theta_null`) are Jacobi's lattice sums, one integer column
each; with those conventions his identity ``theta' = pi * theta1 * theta2 *
theta3`` at the origin is one of integer q-series, which :func:`jacobi_residual`
checks to any order in one ``mul_sum``.  The per-root factors
are the building blocks of every verified product formula:

* ``a``  -- ``z * theta'(0)/theta(z)``, the Witten-type factor, q0 slice ``z/sin z``
* ``t1, t2, t3`` -- ``theta_i(z)/theta_i(0)``, q0 slices ``cos z, 1, 1``
* ``d``  -- ``pi * theta(z)/theta'(0)``, odd in ``z``, q0 slice ``sin z``

Each factor is known through its log in closed form (:func:`theta_log`): the
q0 slice's constant, an integer tangent number over a factorial, plus an
Eisenstein-type divisor sum per ``z^2j`` column, which ``genus`` turns into
power sums and exps.  The divisor sums are read, with each kind's signs,
off two memoized pairs of tables of ``m^(2j-1)`` split by the parity of
``m``: on the integer lattice for ``a``, ``t1``, ``d``, on the half lattice
for ``t2``, ``t3``.  A log is held as integer columns, one per ``z^2j``
degree (see :class:`RootFactor`), the column's scale folded into the
numerators: logs add column by column in integers, and ``Fraction``s appear
only in the on-demand ``terms`` view.
The factor itself (:func:`theta_factor`, printed by ``expand --object
factor-*``) is that exp at a single root; nothing in the library multiplies
out the ``O(order)`` product form, which the tests keep as an independent
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .algebra import ONE, AlgebraError, QColumns, ScalarLike, _ratio, mul_sum
from .qseries import HALF_UNIT, Q_UNIT, PuiseuxSeries, TruncationError, require_known

# kind: (on the half lattice, parity sign, outer sign, over 4^j - 1, q^0 sign)
_LOG_KINDS = {"a": (False, 1, 1, True, 1), "t1": (False, -1, -1, False, -1), "t2": (True, 1, -1, False, 0),
              "t3": (True, -1, -1, False, 0), "d": (False, 1, -1, True, -1)}
FACTOR_KINDS = tuple(_LOG_KINDS)

_log_cache: dict[tuple, "RootFactor"] = {}
_table_cache: dict[tuple, tuple[list[list[int]], list[list[int]]]] = {}


def _null(kind: str, order: int, bound: int) -> QColumns:
    """The lattice sum of :func:`theta_null`, one integer column known through lattice ``bound <= 8*order + 1``."""
    if order < 1:
        raise AlgebraError("order must be >= 1")
    odd = kind in ("theta1", "theta_prime")
    if not odd and kind not in ("theta2", "theta3"):
        raise AlgebraError(f"unknown null kind {kind!r}")
    step = 1 if odd else HALF_UNIT
    nums = [0] * (bound // step + 1)
    for n in range(order + 1):      # at lattice m^2 = (2n + odd)^2 <= 8*order + 1, so n <= order
        m = 2 * n + odd
        if m * m <= bound:
            c = m if kind == "theta_prime" else 2 if n and not odd else 1
            nums[m * m // step] = c * (-1) ** n if kind in ("theta2", "theta_prime") else c
    return QColumns(1, step, {0: nums}, bound)


def theta_null(kind: str, order: int) -> PuiseuxSeries:
    """Null-value expansion through ``q^order``, from Jacobi's lattice sums.

    ``theta3 = sum_n q^(n^2/2)`` and ``theta2 = sum_n (-1)^n q^(n^2/2)`` over
    all integers ``n`` (the pair ``+-n`` meets at lattice ``4n^2``);
    ``theta1 = q^(1/8) sum_(n>=0) q^(n(n+1)/2)`` and ``theta_prime =
    q^(1/8) sum_(n>=0) (-1)^n (2n+1) q^(n(n+1)/2)`` are the reduced forms
    (constants 2 and 2*pi stripped) and start at ``q^(1/8)``.
    """
    return PuiseuxSeries.from_packed(_null(kind, order, Q_UNIT * order + (kind in ("theta1", "theta_prime"))))


def jacobi_residual(order: int) -> PuiseuxSeries:
    """Residual of the product identity for the derivative null, known through ``q^(order+1/8)``.

    In reduced form the constants cancel and the identity becomes an exact
    statement about integer q-series; the residual must be identically zero.
    It is one :func:`~anomcancel.algebra.mul_sum` over the packed nulls, known
    through its operands' least bound: so the even nulls are read through
    lattice ``8*order + 1`` too, where the odd ones end.  They are exact there,
    as their next term past ``q^order`` is at ``q^(order+1/2)`` or later.
    """
    bound = Q_UNIT * order + 1
    t1, t2, t3, tp = (_null(kind, order, bound) for kind in ("theta1", "theta2", "theta3", "theta_prime"))
    even = mul_sum([(t2, t3, 1, [(0, 1)])])
    return PuiseuxSeries.from_packed(mul_sum([(tp, ONE, 1, [(0, 1)]), (t1, even, 1, [(0, -1)])]))


class RootFactor:
    """A per-root factor or its log: a truncated series in one root variable ``z`` and ``q^(1/8)``.

    At rest it is integer columns: ``cols[d]`` is the ``z^d`` column as a scalar
    :class:`~anomcancel.algebra.QColumns` ``(den, step, {0: numerators}, q_bound)``,
    numerator ``i`` at lattice ``i * step``; all-zero columns are absent.  Logs
    (:func:`theta_log`) add column by column and feed the exps of ``genus``; ``*``
    is one :func:`~anomcancel.algebra.mul_sum`, and ``to_text`` prints each column's
    series view.  ``terms``, the ``{(z_degree, lattice): Fraction}`` view, is built
    on demand for JSON and the tests.
    """

    __slots__ = ("cols", "z_bound", "q_bound")

    def __init__(self, terms: dict[tuple[int, int], ScalarLike], z_bound: int, q_bound: int):
        by_degree: dict[int, dict[int, tuple[int, int]]] = {}
        for (d, k), c in terms.items():
            if d <= z_bound and k <= q_bound:
                p, q = _ratio(c)
                if p:
                    by_degree.setdefault(d, {})[k] = p, q
        cols = {}
        for d, col in by_degree.items():
            den = lcm(*(q for _, q in col.values()))     # over the lcm of reduced denominators: reduced
            step = gcd(q_bound, *col) or 1
            ints = [0] * (max(col) // step + 1)
            for k, (p, q) in col.items():
                ints[k // step] = p * (den // q)
            cols[d] = QColumns(den, step, {0: ints}, q_bound)
        self._set(cols, z_bound, q_bound)

    def _set(self, cols: dict[int, QColumns], z_bound: int, q_bound: int):
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "z_bound", z_bound)
        object.__setattr__(self, "q_bound", q_bound)

    @staticmethod
    def from_columns(cols: dict[int, QColumns], z_bound: int, q_bound: int) -> "RootFactor":
        """A factor from its integer columns; all-zero columns are dropped, the rest reduced."""
        self = object.__new__(RootFactor)
        self._set({d: _reduced(c) for d, c in sorted(cols.items()) if any(c.cols.get(0, ()))}, z_bound, q_bound)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("RootFactor is immutable")

    def __reduce__(self):
        return RootFactor.from_columns, (self.cols, self.z_bound, self.q_bound)

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """``{(z_degree, lattice): coefficient}`` over the nonzero entries, as ``Fraction``s."""
        return {(d, i * c.step): Fraction(n, c.den)
                for d, c in self.cols.items() for i, n in enumerate(c.cols[0]) if n}

    def coefficient(self, d: int, k: int) -> Fraction:
        """The coefficient of ``z^d`` at lattice ``k``, read off one column; past either bound it is not known."""
        if d > self.z_bound:
            raise TruncationError(f"coefficient at z^{d} is beyond the computed order z^{self.z_bound}")
        require_known(k, self.q_bound)
        c = self.cols.get(d)
        if c is None or k % c.step or not 0 <= k // c.step < len(c.cols[0]):
            return Fraction(0)     # an absent column, off the lattice, below q^0 or past the stored list
        return Fraction(c.cols[0][k // c.step], c.den)

    def __mul__(self, other: "RootFactor") -> "RootFactor":
        # one mul_sum over column pairs keyed by z-degree.  No library caller: kept because the benchmark's
        # tracer counts its term pairs (theta.factor_mul) and its self-test fails when it is missing
        zb = min(self.z_bound, other.z_bound)
        out = mul_sum([(a._replace(cols={d1: a.cols[0]}), b._replace(cols={d2: b.cols[0]}), 1, [(0, 1)])
                       for d1, a in self.cols.items() for d2, b in other.cols.items() if d1 + d2 <= zb])
        return RootFactor.from_columns({d: out._replace(cols={0: nums}) for d, nums in out.cols.items()},
                                       zb, min(self.q_bound, other.q_bound))

    def __add__(self, other: "RootFactor") -> "RootFactor":
        """The termwise sum, column by column in integers over the lcm of the two denominators."""
        # the core's log sums: one z-keyed mul_sum, as in __mul__, took 2-3.3x as long on cold logs (ROADMAP, Parked)
        zb = min(self.z_bound, other.z_bound)
        qb = min(self.q_bound, other.q_bound)
        cols = {}
        for d in {d for d in self.cols.keys() | other.cols.keys() if d <= zb}:
            parts = [c for c in (self.cols.get(d), other.cols.get(d)) if c is not None]
            step = gcd(*(c.step for c in parts))
            den = lcm(*(c.den for c in parts))
            nums = [0] * (qb // step + 1)
            for c in parts:
                m, spread = den // c.den, c.step // step
                for i, n in enumerate(c.cols[0][:qb // c.step + 1]):
                    nums[i * spread] += m * n
            cols[d] = QColumns(den, step, {0: nums}, qb)
        return RootFactor.from_columns(cols, zb, qb)

    def to_json_obj(self):
        rows = [[d, k, str(c)] for (d, k), c in sorted(self.terms.items())]
        return {"z_bound": self.z_bound, "q_bound": self.q_bound, "terms": rows}

    def to_text(self) -> str:
        return "\n".join(f"z^{d}: " + PuiseuxSeries.from_packed(c).to_text()
                         for d, c in sorted(self.cols.items())) or "0"


def _reduced(c: QColumns) -> QColumns:
    """A scalar column over its least denominator."""
    common = gcd(c.den, *c.cols[0])
    return c if common == 1 else c._replace(den=c.den // common, cols={0: [n // common for n in c.cols[0]]})


# -- elementary z-series ------------------------------------------------------


def _tangent_numbers(n: int) -> list[int]:
    """The tangent numbers ``T_1, T_3, ..., T_(2n-1)``: ``tan z = sum_j T_(2j-1) z^(2j-1) / (2j-1)!``.

    By Knuth and Buckholtz's integer triangle (Math. Comp. 21, 1967):
    >>> _tangent_numbers(5)
    [1, 2, 16, 272, 7936]
    """
    t = [factorial(j) for j in range(n)]
    for k in range(1, n):
        for j in range(k, n):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _divisor_powers(half: bool, order: int, n_cols: int) -> tuple[list[list[int]], list[list[int]]]:
    """``(E, O)``: ``E[j-1][N]`` sums ``m^(2j-1)`` over the even ``m`` with ``m a_n = N``, ``O`` over the odd.

    ``a_n = n`` on the integer lattice (``N`` counts q), ``n - 1/2`` on the half lattice (``N``
    counts ``q^(1/2)``), through ``q^order`` and for ``j = 1..n_cols``; each ``m``'s power steps
    by ``m^2`` from column to column.  Memoized: every kind on one lattice reads the same pair.

    >>> _divisor_powers(False, 4, 2)
    ([[0, 0, 2, 0, 6], [0, 0, 8, 0, 72]], [[0, 1, 1, 4, 1], [0, 1, 1, 28, 1]])
    """
    tables = _table_cache.get((half, order, n_cols))
    if tables is None:
        size = (2 if half else 1) * order + 1
        tables = tuple([[0] * size for _ in range(n_cols)] for _ in range(2))
        for m in range(1, size):
            power, m2, hits = m, m * m, range(m, size, 2 * m if half else m)
            for row in tables[m % 2]:
                for i in hits:
                    row[i] += power
                power *= m2
        _table_cache[half, order, n_cols] = tables
    return tables


def theta_log(kind: str, order: int, z_bound: int) -> RootFactor:
    """Closed-form log of a per-root factor through ``q^order`` and ``z^z_bound``.

    Every term has even z-degree >= 2; for ``d`` the result is ``log(d/z)``,
    i.e. ``d = z * exp(theta_log("d", ...))``.  Each factor is its q^0 slice
    times ``prod_n (1 + s e^{2iz} q^a_n)(1 + s e^{-2iz} q^a_n) / (1 + s q^a_n)^2``
    (inverted for ``a``), with ``a_n = n`` or ``n - 1/2``, and
    ``log`` of one such quotient is ``-sum_m (-s)^m (2cos 2mz - 2) q^(m a_n) / m``.
    Since ``2cos 2mz - 2 = sum_j 2(-4)^j m^2j z^2j / (2j)!``, the z^2j column
    is the q^0 slice's constant (``-T_(2j-1)/(2j)!`` for ``log cos z``, that
    over ``4^j - 1`` for ``log(sin z/z)``, with the tangent numbers ``T``) plus
    ``outer * 2(-4)^j/(2j)! * (E_j + parity * O_j)`` at ``q^N``, with ``E_j``, ``O_j``
    summing ``m^(2j-1)`` over the even and the odd ``m`` with ``m a_n = N`` (:func:`_divisor_powers`,
    shared by the kinds on one lattice).  The parity sign ``-s`` is ``+`` for ``a``, ``t2``, ``d``
    and ``-`` for ``t1``, ``t3``; the outer sign is ``+`` for ``a`` only.  Each column is built as
    integers over ``(2j)!`` (times ``4^j - 1`` for ``a`` and ``d``): the tangent number at q^0,
    and the scaled table entries on the lattice of the ``a_n`` (step 4 for ``t2``/``t3``, 8
    otherwise); no ``Fraction`` is made.
    Memoized by ``(kind, order, z_bound)``.
    """
    key = (kind, order, z_bound)
    cached = _log_cache.get(key)
    if cached is not None:
        return cached
    if order < 0:
        raise AlgebraError("order must be >= 0")
    if kind not in FACTOR_KINDS:
        raise AlgebraError(f"unknown factor kind {kind!r}")
    half, parity, outer, over_j, q0_sign = _LOG_KINDS[kind]
    # q^0: [z^2j] log cos z = -T_(2j-1)/(2j)!, and log cos z = log(sin 2z/2z) - log(sin z/z), so
    # [z^2j] log(sin z/z) is that over 4^j - 1; the slice of a is z/sin z, of d sin z, of t1 cos z
    tangent = _tangent_numbers(z_bound // 2)
    cols = {}
    for j, (even, odd) in enumerate(zip(*_divisor_powers(half, order, z_bound // 2)), 1):
        over = 4 ** j - 1 if over_j else 1
        f = outer * 2 * (-4) ** j * over
        nums = [f * (e + parity * o) for e, o in zip(even, odd)]
        nums[0] = q0_sign * tangent[j - 1]
        cols[2 * j] = QColumns(factorial(2 * j) * over, HALF_UNIT if half else Q_UNIT, {0: nums}, Q_UNIT * order)
    out = RootFactor.from_columns(cols, z_bound, Q_UNIT * order)
    _log_cache[key] = out
    return out


def theta_factor(kind: str, order: int, z_bound: int) -> RootFactor:
    """A per-root factor through ``q^order`` and ``z^z_bound``: the exp of :func:`theta_log` at one root.

    Over the one-root tangent family the only generator ``nM1 = e_1(z^2)`` is
    ``z^2`` itself, so the weight-2m piece of :func:`~anomcancel.genus.exp_by_weight`
    is ``nM1^m`` times the factor's ``z^2m`` column, read off it as a scalar one.  The odd
    factor is ``d = z * exp(log(d/z))``: its log is taken through ``z^(z_bound-1)``
    and every degree moves up by one.

    >>> a = theta_factor("a", 3, 4)
    >>> [str(a.coefficient(d, 0)) for d in range(5)]
    ['1', '0', '1/6', '0', '7/360']
    """
    from .genus import FAMILY_TM, RootFamily, build_generator_table, exp_by_weight, power_sums_gp

    shift = 1 if kind == "d" else 0
    zb = z_bound - shift
    if zb < 0:
        raise AlgebraError(f"factor {kind} needs a z-degree bound >= {shift}")
    sums = power_sums_gp(RootFamily(FAMILY_TM, 1), build_generator_table(1, 0, False, zb))
    pieces = exp_by_weight([(theta_log(kind, order, zb), sums)], order)
    # piece m holds the one monomial nM1^m, or nothing
    cols = {2 * m + shift: f._replace(cols={0: n}, table=None) for m, f in enumerate(pieces) for n in f.cols.values()}
    return RootFactor.from_columns(cols, z_bound, Q_UNIT * order)
