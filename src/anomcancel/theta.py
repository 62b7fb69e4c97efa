"""q-expansions of the four Jacobi theta functions and their per-root factors.

Everything is normalized so that only exact rational data appears:

* arguments are rescaled so the trigonometric slices are ``sin z``/``cos z``
  in the normalized root variable ``z`` (pi times the classical variable);
* the null values of the two odd-type functions are returned with their
  overall constants stripped: ``theta1`` means the classical null divided
  by 2, ``theta_prime`` means the derivative null divided by 2*pi.  These
  two carry the lattice offset ``q^(1/8)``.

With those conventions the Jacobi product identity
``theta' = pi * theta1 * theta2 * theta3`` at the origin reduces to an exact
identity of integer q-series, which :func:`jacobi_residual` checks to any
order.  The per-root factors are the building blocks of every verified
product formula:

* ``a``  -- ``z * theta'(0)/theta(z)``, the Witten-type factor, q0 slice ``z/sin z``
* ``t1, t2, t3`` -- ``theta_i(z)/theta_i(0)``, q0 slices ``cos z, 1, 1``
* ``d``  -- ``pi * theta(z)/theta'(0)``, odd in ``z``, q0 slice ``sin z``

Each factor is known through its log in closed form (:func:`theta_log`): a
Bernoulli constant from the q0 slice plus an Eisenstein-type divisor sum per
``z^2j`` column, which ``genus`` turns into power sums and exps.  A log is
held as integer columns, one per ``z^2j`` degree (see :class:`RootFactor`):
the divisor sums are summed as ints with the column's scale folded into the
numerators, logs add column by column in integers, and ``Fraction``s appear
only in the on-demand ``terms`` view.  The factor
itself (:func:`theta_factor`, printed by ``expand --object factor-*``) is
that exp at a single root; nothing in the library multiplies out the
``O(order)`` product form, which the tests keep as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .algebra import AlgebraError, QColumns, _frac, int_numerators
from .qseries import HALF_UNIT, Q_UNIT, PuiseuxSeries

FACTOR_KINDS = ("a", "t1", "t2", "t3", "d")

_log_cache: dict[tuple, "RootFactor"] = {}
_log_sin_cache: dict[int, tuple[Fraction, ...]] = {}


def _sseries(terms: dict[int, Fraction], bound: int) -> PuiseuxSeries:
    return PuiseuxSeries(terms, bound, Fraction(0))


def _null_product(order: int, step: int, builders) -> PuiseuxSeries:
    """``prod (1 + coeff * q^(offset * step/8))^power`` over the builders' binomials.

    The product runs through ``q^order`` on the native lattice of ``step``
    units, so ``offset`` counts steps.  Each binomial is one shift-and-add
    pass over the integer coefficients, ``out += coeff * out.shift(offset)``,
    run from the top down so that it reads only positions not yet updated in
    the pass.
    """
    bound = Q_UNIT * order // step
    out = [1] + [0] * bound
    for j in range(1, order + 2):
        for offset, coeff, power in builders(j):
            if offset > bound:
                continue
            for _ in range(power):
                for k in range(bound, offset - 1, -1):
                    if out[k - offset]:
                        out[k] += coeff * out[k - offset]
    return _sseries({step * k: Fraction(c) for k, c in enumerate(out) if c}, Q_UNIT * order)


def theta_null(kind: str, order: int) -> PuiseuxSeries:
    """Null-value expansion through ``q^order``.

    ``theta1`` and ``theta_prime`` are returned in reduced form (constants 2
    and 2*pi stripped) and start at ``q^(1/8)``.
    """
    if order < 1:
        raise AlgebraError("order must be >= 1")
    if kind == "theta2":
        return _null_product(order, HALF_UNIT, lambda j: [(2 * j, -1, 1), (2 * j - 1, -1, 2)])
    if kind == "theta3":
        return _null_product(order, HALF_UNIT, lambda j: [(2 * j, -1, 1), (2 * j - 1, +1, 2)])
    if kind == "theta1":
        return _null_product(order, Q_UNIT, lambda j: [(j, -1, 1), (j, +1, 2)]).shift(1)
    if kind == "theta_prime":
        return _null_product(order, Q_UNIT, lambda j: [(j, -1, 3)]).shift(1)
    raise AlgebraError(f"unknown null kind {kind!r}")


def jacobi_residual(order: int) -> PuiseuxSeries:
    """Residual of the product identity for the derivative null.

    In reduced form the constants cancel and the identity becomes an exact
    statement about integer q-series; the residual must be identically zero.
    """
    t1 = theta_null("theta1", order)
    t2 = theta_null("theta2", order)
    t3 = theta_null("theta3", order)
    tp = theta_null("theta_prime", order)
    return tp - t1 * t2 * t3


class RootFactor:
    """A per-root factor or its log: a truncated series in one root variable ``z`` and ``q^(1/8)``.

    At rest it is integer columns: ``cols[d]`` is the ``z^d`` column as a
    scalar :class:`~anomcancel.algebra.QColumns` ``(den, step, {0:
    numerators}, q_bound)``, numerator ``i`` standing at lattice ``i *
    step``; a column with no nonzero entry is absent.  Logs (:func:`theta_log`) feed
    the exps of ``genus`` column by column; ``terms``, the ``{(z_degree,
    lattice): Fraction}`` view, is built on demand for rendering
    (``expand --object factor-*``) and for the tests.
    """

    __slots__ = ("cols", "z_bound", "q_bound")

    def __init__(self, terms: dict[tuple[int, int], Fraction], z_bound: int, q_bound: int):
        by_degree: dict[int, dict[int, Fraction]] = {}
        for (d, k), c in terms.items():
            if d <= z_bound and k <= q_bound:
                c = _frac(c)
                if c:
                    by_degree.setdefault(d, {})[k] = c
        cols = {}
        for d, col in by_degree.items():
            den, nums = int_numerators(col)
            step = gcd(q_bound, *col) or 1
            ints = [0] * (max(col) // step + 1)
            for k, n in nums.items():
                ints[k // step] = n
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
        self._set({d: _reduced(c) for d, c in sorted(cols.items()) if any(c.cols[0])}, z_bound, q_bound)
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
        return self.terms.get((d, k), Fraction(0))

    @staticmethod
    def from_z_coeffs(coeffs, z_bound: int, q_bound: int) -> "RootFactor":
        return RootFactor({(d, 0): c for d, c in enumerate(coeffs)}, z_bound, q_bound)

    def __mul__(self, other: "RootFactor") -> "RootFactor":
        # no library caller: kept because the benchmark's tracer counts its term
        # pairs (theta.factor_mul) and its self-test fails when it is missing
        zb = min(self.z_bound, other.z_bound)
        qb = min(self.q_bound, other.q_bound)
        out: dict[tuple[int, int], Fraction] = {}
        for (d1, k1), c1 in self.terms.items():
            for (d2, k2), c2 in other.terms.items():
                d, k = d1 + d2, k1 + k2
                if d > zb or k > qb:
                    continue
                p = c1 * c2
                s = out.get((d, k))
                out[(d, k)] = p if s is None else s + p
        return RootFactor(out, zb, qb)

    def __add__(self, other: "RootFactor") -> "RootFactor":
        """The termwise sum, column by column in integers over the lcm of the two denominators."""
        zb = min(self.z_bound, other.z_bound)
        qb = min(self.q_bound, other.q_bound)
        cols = {}
        for d in self.cols.keys() | other.cols.keys():
            if d > zb:
                continue
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
        terms = self.terms
        rows = [[d, k, str(terms[(d, k)])] for (d, k) in sorted(terms)]
        return {"z_bound": self.z_bound, "q_bound": self.q_bound, "terms": rows}

    def to_text(self) -> str:
        terms = self.terms
        lines = []
        for d in range(self.z_bound + 1):
            row = {k: c for (dd, k), c in terms.items() if dd == d}
            if row:
                lines.append(f"z^{d}: " + _sseries(row, self.q_bound).to_text())
        return "\n".join(lines) if lines else "0"


def _reduced(c: QColumns) -> QColumns:
    """A scalar column over its least denominator."""
    common = gcd(c.den, *c.cols[0])
    return c if common == 1 else c._replace(den=c.den // common, cols={0: [n // common for n in c.cols[0]]})


# -- elementary z-series ------------------------------------------------------


def sin_over_z_coeffs(z_bound: int) -> list[Fraction]:
    out = [Fraction(0)] * (z_bound + 1)
    for m in range(0, z_bound // 2 + 1):
        fact = 1
        for i in range(2, 2 * m + 2):
            fact *= i
        out[2 * m] = Fraction((-1) ** m, fact)
    return out


def log_z_coeffs(coeffs: list[Fraction]) -> list[Fraction]:
    """``log`` of a z-series with constant term 1, from ``n*g_n = n*f_n - sum k*g_k*f_(n-k)``."""
    if coeffs[0] != 1:
        raise AlgebraError("z-series log needs constant term 1")
    out = [Fraction(0)] * len(coeffs)
    for n in range(1, len(coeffs)):
        acc = n * coeffs[n] - sum(k * out[k] * coeffs[n - k] for k in range(1, n))
        out[n] = acc / n
    return out


def log_sin_over_z(z_bound: int) -> tuple[Fraction, ...]:
    """The z-coefficients of ``log(sin z/z)`` through ``z^z_bound``, memoized by ``z_bound``."""
    out = _log_sin_cache.get(z_bound)
    if out is None:
        out = _log_sin_cache[z_bound] = tuple(log_z_coeffs(sin_over_z_coeffs(z_bound)))
    return out


def log_cos_coeffs(z_bound: int) -> list[Fraction]:
    """``log cos z = log(sin 2z/2z) - log(sin z/z)``: the z^2j coefficient is ``(4^j - 1)``
    times that of ``log(sin z/z)``."""
    return [(2 ** d - 1) * c for d, c in enumerate(log_sin_over_z(z_bound))]


def theta_log(kind: str, order: int, z_bound: int) -> RootFactor:
    """Closed-form log of a per-root factor through ``q^order`` and ``z^z_bound``.

    Every term has even z-degree >= 2; for ``d`` the result is ``log(d/z)``,
    i.e. ``d = z * exp(theta_log("d", ...))``.  Each factor is its q^0 slice
    times ``prod_n (1 + s e^{2iz} q^a_n)(1 + s e^{-2iz} q^a_n) / (1 + s q^a_n)^2``
    (inverted for ``a``), with ``a_n = n`` or ``n - 1/2``, and
    ``log`` of one such quotient is ``-sum_m (-s)^m (2cos 2mz - 2) q^(m a_n) / m``.
    Since ``2cos 2mz - 2 = sum_j 2(-4)^j m^2j z^2j / (2j)!``, the z^2j column
    is the Bernoulli constant of the q^0 slice plus the Eisenstein-type divisor
    sum ``2(-4)^j/(2j)! * sum_{m a_n = N} sign(m) m^(2j-1)`` at ``q^N``.
    Each column is built as integers: the divisor sums on the lattice of the
    ``a_n`` (step 4 for ``t2``/``t3``, 8 otherwise), times the numerator of
    the scale, over the common denominator of the scale and the constant.
    Memoized by ``(kind, order, z_bound)``.
    """
    key = (kind, order, z_bound)
    cached = _log_cache.get(key)
    if cached is not None:
        return cached
    if kind not in FACTOR_KINDS:
        raise AlgebraError(f"unknown factor kind {kind!r}")
    q_bound = Q_UNIT * order
    log_sin = log_sin_over_z(z_bound)
    q0 = {"a": [-c for c in log_sin], "t1": log_cos_coeffs(z_bound), "d": log_sin}.get(kind)
    s = +1 if kind in ("t1", "t3") else -1
    outer = +1 if kind == "a" else -1
    shift = HALF_UNIT if kind in ("t2", "t3") else 0
    step = HALF_UNIT if shift else Q_UNIT
    # one (index, m^2, sign * m) per term q^(m a_n) of the divisor sums
    hits = [(m * (Q_UNIT * n - shift) // step, m * m, outer * (-s) ** m * m)
            for n in range(1, order + 1) for m in range(1, q_bound // (Q_UNIT * n - shift) + 1)]
    cols = {}
    for d in range(2, z_bound + 1, 2):
        scale = Fraction(2 * (-4) ** (d // 2), factorial(d))
        c0 = q0[d] if q0 else Fraction(0)
        den = lcm(scale.denominator, c0.denominator)
        nums = [0] * (q_bound // step + 1)
        for i, _, p in hits:
            nums[i] += p
        f = scale.numerator * (den // scale.denominator)
        nums = [f * n for n in nums]
        nums[0] = c0.numerator * (den // c0.denominator)
        cols[d] = QColumns(den, step, {0: nums}, q_bound)
        hits = [(i, m2, p * m2) for i, m2, p in hits]     # sign * m^(d+1) for the next column
    out = RootFactor.from_columns(cols, z_bound, q_bound)
    _log_cache[key] = out
    return out


def theta_factor(kind: str, order: int, z_bound: int) -> RootFactor:
    """A per-root factor through ``q^order`` and ``z^z_bound``: the exp of :func:`theta_log` at one root.

    Over the one-root tangent family the only generator ``nM1 = e_1(z^2)`` is
    ``z^2`` itself, so the ``nM1^m`` coefficient of
    :func:`~anomcancel.genus.prod_over_roots` at lattice ``k`` is the
    factor's ``(2m, k)`` term.  The odd factor is ``d = z * exp(log(d/z))``:
    its log is taken through ``z^(z_bound-1)`` and every degree moves up by one.

    >>> a = theta_factor("a", 3, 4)
    >>> [str(a.coefficient(d, 0)) for d in range(5)]
    ['1', '0', '1/6', '0', '7/360']
    """
    from .genus import FAMILY_TM, RootFamily, build_generator_table, prod_over_roots

    shift = 1 if kind == "d" else 0
    zb = z_bound - shift
    if zb < 0:
        raise AlgebraError(f"factor {kind} needs a z-degree bound >= {shift}")
    table = build_generator_table(1, 0, False, zb)
    series = prod_over_roots(theta_log(kind, order, zb), RootFamily(FAMILY_TM, 1), table, zb, order)
    # each exponent vector is (m,), or () when z_bound < 2 leaves the table empty
    terms = {(2 * sum(e) + shift, k): c for k, poly in series.terms.items() for e, c in poly.terms.items()}
    return RootFactor(terms, z_bound, Q_UNIT * order)
