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
order.  The per-root factors (:func:`theta_factor`) are the building blocks
of every verified product formula:

* ``a``  -- ``z * theta'(0)/theta(z)``, the Witten-type factor, q0 slice ``z/sin z``
* ``t1, t2, t3`` -- ``theta_i(z)/theta_i(0)``, q0 slices ``cos z, 1, 1``
* ``d``  -- ``pi * theta(z)/theta'(0)``, odd in ``z``, q0 slice ``sin z``

:func:`theta_factor` builds a factor as a product of ``O(order)`` bivariate
series; it serves ``expand --object factor-*``, the demos and the tests.  The
verification path instead takes each factor's log in closed form
(:func:`theta_log`): a Bernoulli constant from the q0 slice plus an
Eisenstein-type divisor sum per ``z^2j`` column, which ``genus`` turns into
power sums and exps.
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
_factor_cache: dict[tuple, "RootFactor"] = {}
_log_cache: dict[tuple, "RootFactor"] = {}
_log_sin_cache: dict[int, tuple[Fraction, ...]] = {}


def _sseries(terms: dict[int, Fraction], bound: int) -> PuiseuxSeries:
    return PuiseuxSeries(terms, bound, Fraction(0))


def _binfactor(offset_units: int, coeff: int, bound: int) -> PuiseuxSeries:
    """The series ``1 + coeff * q^(offset/8)``."""
    return _sseries({0: Fraction(1), offset_units: Fraction(coeff)}, bound)


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
    """Truncated bivariate series in one root variable ``z`` and ``q^(1/8)``.

    ``terms`` maps ``(z_degree, lattice_exponent)`` to a ``Fraction``.
    The even factors have constant term 1 and a z=0 slice identically 1.
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

    @property
    def parity(self) -> str:
        has_even = any(d % 2 == 0 for d, _ in self.terms)
        has_odd = any(d % 2 == 1 for d, _ in self.terms)
        if has_even and has_odd:
            return "mixed"
        return "odd" if has_odd else "even"

    def coefficient(self, d: int, k: int) -> Fraction:
        return self.terms.get((d, k), Fraction(0))

    @staticmethod
    def one(z_bound: int, q_bound: int) -> "RootFactor":
        return RootFactor({(0, 0): 1}, z_bound, q_bound)

    @staticmethod
    def from_z_coeffs(coeffs, z_bound: int, q_bound: int) -> "RootFactor":
        return RootFactor({(d, 0): c for d, c in enumerate(coeffs)}, z_bound, q_bound)

    @staticmethod
    def from_q_series(series: PuiseuxSeries, z_bound: int) -> "RootFactor":
        return RootFactor({(0, k): c for k, c in series.terms.items()},
                          z_bound, series.order_bound)

    def __mul__(self, other: "RootFactor") -> "RootFactor":
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

    def __sub__(self, other: "RootFactor") -> "RootFactor":
        return self + other.scale(-1)

    def scale(self, c: Fraction) -> "RootFactor":
        return RootFactor({dk: v * c for dk, v in self.terms.items()}, self.z_bound, self.q_bound)

    def inverse(self) -> "RootFactor":
        c0 = self.coefficient(0, 0)
        if not c0:
            raise AlgebraError("root factor with zero constant term is not invertible")
        inv0 = 1 / c0
        u = RootFactor({dk: c * inv0 for dk, c in self.terms.items() if dk != (0, 0)},
                       self.z_bound, self.q_bound)
        out = RootFactor.one(self.z_bound, self.q_bound)
        term = out
        sign = 1
        for _ in range(self.z_bound + self.q_bound + 1):
            term = term * u
            if not term.terms:
                break
            sign = -sign
            out = out + (term if sign > 0 else term.scale(-1))
        return out.scale(inv0)

    def q0_slice(self) -> list[Fraction]:
        """z-coefficients of the q^0 part, index = z-degree."""
        out = [Fraction(0)] * (self.z_bound + 1)
        for (d, k), c in self.terms.items():
            if k == 0:
                out[d] = c
        return out

    def z0_slice(self) -> PuiseuxSeries:
        return _sseries({k: c for (d, k), c in self.terms.items() if d == 0}, self.q_bound)

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


def cos_coeffs(z_bound: int) -> list[Fraction]:
    out = [Fraction(0)] * (z_bound + 1)
    for m in range(0, z_bound // 2 + 1):
        fact = 1
        for i in range(2, 2 * m + 1):
            fact *= i
        out[2 * m] = Fraction((-1) ** m, fact)
    return out


def sin_coeffs(z_bound: int) -> list[Fraction]:
    out = [Fraction(0)] * (z_bound + 1)
    for m in range(0, (z_bound - 1) // 2 + 1):
        fact = 1
        for i in range(2, 2 * m + 2):
            fact *= i
        out[2 * m + 1] = Fraction((-1) ** m, fact)
    return out


def invert_z_coeffs(coeffs: list[Fraction]) -> list[Fraction]:
    """Inverse of a z-series with constant term 1 (nilpotent correction)."""
    if coeffs[0] != 1:
        raise AlgebraError("z-series inversion needs constant term 1")
    n = len(coeffs)
    out = [Fraction(0)] * n
    out[0] = Fraction(1)
    for d in range(1, n):
        out[d] = -sum(coeffs[j] * out[d - j] for j in range(1, d + 1))
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


def _paired_factor(sign: int, offset_units: int, z_bound: int, q_bound: int) -> RootFactor:
    """``(1 + sign*e^{2iz} q^a)(1 + sign*e^{-2iz} q^a) = 1 + 2*sign*cos(2z) q^a + q^{2a}``.

    The factor sits at ``a = offset/8``; ``cos 2z = sum (-4)^m z^{2m} / (2m)!``.
    """
    if offset_units > q_bound:
        return RootFactor.one(z_bound, q_bound)
    terms = {(0, 0): Fraction(1), (0, 2 * offset_units): Fraction(1)}
    for d, c in enumerate(cos_coeffs(z_bound)):
        if c:
            terms[(d, offset_units)] = 2 * sign * 2 ** d * c
    return RootFactor(terms, z_bound, q_bound)


def _scalar_sq_inverse(sign: int, offset_units: int, z_bound: int, q_bound: int) -> RootFactor:
    """``(1 + sign*q^a)^{-2}`` embedded as a z-degree-0 factor."""
    if offset_units > q_bound:
        return RootFactor.one(z_bound, q_bound)
    base = _binfactor(offset_units, sign, q_bound)
    inv = base.inverse()
    return RootFactor.from_q_series(inv * inv, z_bound)


def theta_factor(kind: str, order: int, z_bound: int) -> RootFactor:
    """Normalized per-root factor, memoized by ``(kind, order, z_bound)``."""
    key = (kind, order, z_bound)
    cached = _factor_cache.get(key)
    if cached is not None:
        return cached
    q_bound = Q_UNIT * order
    out = _build_factor(kind, order, z_bound, q_bound)
    _check_factor(kind, out)
    _factor_cache[key] = out
    return out


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


def _build_factor(kind: str, order: int, z_bound: int, q_bound: int) -> RootFactor:
    nfac = order + 1
    if kind == "a":
        out = RootFactor.from_z_coeffs(invert_z_coeffs(sin_over_z_coeffs(z_bound)), z_bound, q_bound)
        for n in range(1, nfac + 1):
            if Q_UNIT * n > q_bound:
                break
            num = _binfactor(Q_UNIT * n, -1, q_bound)
            out = out * RootFactor.from_q_series(num * num, z_bound)
            out = out * _paired_factor(-1, Q_UNIT * n, z_bound, q_bound).inverse()
        return out
    if kind == "t1":
        out = RootFactor.from_z_coeffs(cos_coeffs(z_bound), z_bound, q_bound)
        for n in range(1, nfac + 1):
            out = out * _paired_factor(+1, Q_UNIT * n, z_bound, q_bound)
            out = out * _scalar_sq_inverse(+1, Q_UNIT * n, z_bound, q_bound)
        return out
    if kind in ("t2", "t3"):
        sign = -1 if kind == "t2" else +1
        out = RootFactor.one(z_bound, q_bound)
        for n in range(1, nfac + 1):
            off = Q_UNIT * n - HALF_UNIT
            out = out * _paired_factor(sign, off, z_bound, q_bound)
            out = out * _scalar_sq_inverse(sign, off, z_bound, q_bound)
        return out
    if kind == "d":
        out = RootFactor.from_z_coeffs(sin_coeffs(z_bound), z_bound, q_bound)
        for n in range(1, nfac + 1):
            out = out * _paired_factor(-1, Q_UNIT * n, z_bound, q_bound)
            out = out * _scalar_sq_inverse(-1, Q_UNIT * n, z_bound, q_bound)
        return out
    raise AlgebraError(f"unknown factor kind {kind!r}")


def _check_factor(kind: str, f: RootFactor):
    if kind == "d":
        if f.parity != "odd":
            raise AlgebraError("factor d must be odd in z")
        if f.coefficient(1, 0) != 1:
            raise AlgebraError("factor d must start with z")
        return
    if f.parity != "even":
        raise AlgebraError(f"factor {kind} must be even in z")
    z0 = f.z0_slice()
    if z0.terms != {0: 1}:
        raise AlgebraError(f"factor {kind} must have z=0 slice identically 1")


def factor_count_sufficient(kind: str, order: int, z_bound: int) -> bool:
    """True when one extra product factor leaves the expansion unchanged."""
    base = _build_factor(kind, order, z_bound, Q_UNIT * order)
    more = _build_factor(kind, order + 1, z_bound, Q_UNIT * (order + 1))
    trimmed = RootFactor({dk: c for dk, c in more.terms.items() if dk[1] <= Q_UNIT * order},
                         z_bound, Q_UNIT * order)
    return trimmed.terms == base.terms
