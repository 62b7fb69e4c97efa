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
``z^2j`` column, which ``genus`` turns into power sums and exps.  The factor
itself (:func:`theta_factor`, printed by ``expand --object factor-*``) is
that exp at a single root; nothing in the library multiplies out the
``O(order)`` product form, which the tests keep as an independent oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import AlgebraError, _frac
from .qseries import PuiseuxSeries

Q_UNIT = 8       # lattice units in q^1
HALF_UNIT = 4    # lattice units in q^(1/2)

NULL_KINDS = ("theta1", "theta2", "theta3", "theta_prime")
FACTOR_KINDS = ("a", "t1", "t2", "t3", "d")

_null_cache: dict[tuple, PuiseuxSeries] = {}
_log_cache: dict[tuple, "RootFactor"] = {}
_log_sin_cache: dict[int, tuple[Fraction, ...]] = {}


def _sseries(terms: dict[int, Fraction], bound: int) -> PuiseuxSeries:
    return PuiseuxSeries(terms, bound, Fraction(0))


def _null_product(order: int, builders) -> PuiseuxSeries:
    """``prod (1 + coeff * q^(offset/8))^power`` over the builders' binomials, through ``q^order``.

    Each binomial is one shift-and-add pass over the integer coefficients,
    ``out += coeff * out.shift(offset)``, run from the top down so that it
    reads only positions not yet updated in the pass.
    """
    bound = Q_UNIT * order
    out = [1] + [0] * bound
    for j in range(1, order + 2):
        for offset, coeff, power in builders(j):
            if offset > bound:
                continue
            for _ in range(power):
                for k in range(bound, offset - 1, -1):
                    if out[k - offset]:
                        out[k] += coeff * out[k - offset]
    return _sseries({k: Fraction(c) for k, c in enumerate(out) if c}, bound)


def theta_null(kind: str, order: int) -> PuiseuxSeries:
    """Null-value expansion through ``q^order``.

    ``theta1`` and ``theta_prime`` are returned in reduced form (constants 2
    and 2*pi stripped) and start at ``q^(1/8)``.
    """
    if order < 1:
        raise AlgebraError("order must be >= 1")
    key = (kind, order)
    cached = _null_cache.get(key)
    if cached is not None:
        return cached
    if kind == "theta2":
        out = _null_product(order, lambda j: [(Q_UNIT * j, -1, 1), (Q_UNIT * j - HALF_UNIT, -1, 2)])
    elif kind == "theta3":
        out = _null_product(order, lambda j: [(Q_UNIT * j, -1, 1), (Q_UNIT * j - HALF_UNIT, +1, 2)])
    elif kind == "theta1":
        out = _null_product(order, lambda j: [(Q_UNIT * j, -1, 1), (Q_UNIT * j, +1, 2)]).shift(1)
    elif kind == "theta_prime":
        out = _null_product(order, lambda j: [(Q_UNIT * j, -1, 3)]).shift(1)
    else:
        raise AlgebraError(f"unknown null kind {kind!r}")
    _null_cache[key] = out
    return out


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

    ``terms`` maps ``(z_degree, lattice_exponent)`` to a ``Fraction``.  Logs
    (:func:`theta_log`) feed the exps of ``genus``; factors
    (:func:`theta_factor`) are rendered by ``expand --object factor-*``.
    """

    __slots__ = ("terms", "z_bound", "q_bound")

    def __init__(self, terms: dict[tuple[int, int], Fraction], z_bound: int, q_bound: int):
        clean = {}
        for (d, k), c in terms.items():
            if d > z_bound or k > q_bound:
                continue
            c = _frac(c)
            if c:
                clean[(d, k)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "z_bound", z_bound)
        object.__setattr__(self, "q_bound", q_bound)

    def __setattr__(self, name, value):
        raise AttributeError("RootFactor is immutable")

    def __reduce__(self):
        return RootFactor, (self.terms, self.z_bound, self.q_bound)

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
        zb = min(self.z_bound, other.z_bound)
        qb = min(self.q_bound, other.q_bound)
        out = {dk: c for dk, c in self.terms.items() if dk[0] <= zb and dk[1] <= qb}
        for dk, c in other.terms.items():
            if dk[0] > zb or dk[1] > qb:
                continue
            s = out.get(dk)
            out[dk] = c if s is None else s + c
        return RootFactor(out, zb, qb)

    def to_json_obj(self):
        rows = [[d, k, str(self.terms[(d, k)])] for (d, k) in sorted(self.terms)]
        return {"z_bound": self.z_bound, "q_bound": self.q_bound, "terms": rows}

    def to_text(self) -> str:
        lines = []
        for d in range(self.z_bound + 1):
            row = {k: c for (dd, k), c in self.terms.items() if dd == d}
            if row:
                lines.append(f"z^{d}: " + _sseries(row, self.q_bound).to_text())
        return "\n".join(lines) if lines else "0"


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
    q0 = {"a": [-c for c in log_sin], "t1": log_cos_coeffs(z_bound), "d": log_sin}.get(kind, [])
    terms = {(d, 0): c for d, c in enumerate(q0)}
    s = +1 if kind in ("t1", "t3") else -1
    outer = +1 if kind == "a" else -1
    shift = HALF_UNIT if kind in ("t2", "t3") else 0
    sums: dict[tuple[int, int], int] = {}
    for n in range(1, order + 1):
        offset = Q_UNIT * n - shift
        for m in range(1, q_bound // offset + 1):
            sign = outer * (-s) ** m
            for d in range(2, z_bound + 1, 2):
                dk = (d, m * offset)
                sums[dk] = sums.get(dk, 0) + sign * m ** (d - 1)
    for (d, k), v in sums.items():
        terms[(d, k)] = Fraction(2 * (-4) ** (d // 2), factorial(d)) * v
    out = RootFactor(terms, z_bound, q_bound)
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
