"""Truncated Puiseux series in ``q`` with exponents on the (1/8)-lattice.

Exponents are stored as integers ``k`` meaning ``q^(k/8)``.  A series knows
its ``order_bound``: coefficients at lattice positions above the bound are
*unknown*, not zero, and asking for one raises :class:`TruncationError`.
Coefficients may be any exact ring element (``Fraction`` scalars, graded
polynomials, virtual bundles); the series carries the ring's zero so the two
rings never mix silently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .algebra import AlgebraError, int_numerators


class TruncationError(ValueError):
    """A coefficient beyond the stored order was requested."""


class RingMismatchError(ValueError):
    """Operands live over different coefficient rings."""


def exponent_text(k: int) -> str:
    """Render lattice position ``k`` as a reduced power of q."""
    if k == 0:
        return "1"
    f = Fraction(k, 8)
    if f == 1:
        return "q"
    return f"q^({f})"


class PuiseuxSeries:
    """Sparse truncated series ``sum c_k q^(k/8)`` with ``k <= order_bound``."""

    __slots__ = ("terms", "order_bound", "zero")

    def __init__(self, terms: Mapping[int, object], order_bound: int, zero):
        clean: dict[int, object] = {}
        for k, c in terms.items():
            if k > order_bound:
                raise AlgebraError(f"term at lattice {k} beyond order bound {order_bound}")
            if c:
                clean[int(k)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order_bound", order_bound)
        object.__setattr__(self, "zero", zero)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    def __reduce__(self):
        return PuiseuxSeries, (self.terms, self.order_bound, self.zero)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value, order_bound: int, zero) -> "PuiseuxSeries":
        return PuiseuxSeries({0: value}, order_bound, zero)

    @staticmethod
    def zero_series(order_bound: int, zero) -> "PuiseuxSeries":
        return PuiseuxSeries({}, order_bound, zero)

    # -- inspection -----------------------------------------------------------

    def coefficient(self, k: int):
        """Exact coefficient at lattice ``k``; unknown positions are an error."""
        if k > self.order_bound:
            raise TruncationError(
                f"coefficient at q^({Fraction(k, 8)}) is beyond the computed order "
                f"q^({Fraction(self.order_bound, 8)})"
            )
        return self.terms.get(k, self.zero)

    def leading_exponent(self) -> int:
        """Lattice position of the first nonzero term (bound+1 when none stored)."""
        return min(self.terms) if self.terms else self.order_bound + 1

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def exponents(self) -> list[int]:
        return sorted(self.terms)

    def support_on_lattice(self, step: int) -> bool:
        """True when every stored exponent is a multiple of ``step`` eighths."""
        return all(k % step == 0 for k in self.terms)

    def _check_ring(self, other: "PuiseuxSeries"):
        if type(self.zero) is not type(other.zero) or self.zero != other.zero:
            raise RingMismatchError(
                f"coefficient rings differ: {type(self.zero).__name__} vs {type(other.zero).__name__}"
            )

    # -- ring operations -------------------------------------------------------

    def __add__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        self._check_ring(other)
        bound = min(self.order_bound, other.order_bound)
        terms = {k: c for k, c in self.terms.items() if k <= bound}
        for k, c in other.terms.items():
            if k > bound:
                continue
            s = terms.get(k, self.zero) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return PuiseuxSeries(terms, bound, self.zero)

    def __sub__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        return self + (-other)

    def __neg__(self) -> "PuiseuxSeries":
        return PuiseuxSeries({k: -c for k, c in self.terms.items()}, self.order_bound, self.zero)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        self._check_ring(other)
        bound = min(self.order_bound + other.leading_exponent(),
                    other.order_bound + self.leading_exponent())
        if isinstance(self.zero, Fraction):
            return PuiseuxSeries(_scalar_convolution(self.terms, other.terms, bound), bound, self.zero)
        pairs: dict[int, list] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if k1 + k2 <= bound:
                    pairs.setdefault(k1 + k2, []).append((c1, c2))
        return PuiseuxSeries({k: self.zero.dot(p) for k, p in pairs.items()}, bound, self.zero)

    def scale(self, value) -> "PuiseuxSeries":
        """Multiply every coefficient by a fixed ring element."""
        terms = {}
        for k, c in self.terms.items():
            p = c * value
            if p:
                terms[k] = p
        return PuiseuxSeries(terms, self.order_bound, self.zero)

    def shift(self, units: int) -> "PuiseuxSeries":
        """Multiply by ``q^(units/8)``."""
        return PuiseuxSeries({k + units: c for k, c in self.terms.items()},
                             self.order_bound + units, self.zero)

    def __pow__(self, m: int) -> "PuiseuxSeries":
        if m < 0:
            raise AlgebraError("negative series powers are not supported")
        out = None
        base = self
        while True:
            if m & 1:
                out = base if out is None else out * base
            m >>= 1
            if not m:
                break
            base = base * base
        if out is None:
            return PuiseuxSeries.constant(_ring_one(self.zero), self.order_bound, self.zero)
        return out

    def sign_flip(self) -> "PuiseuxSeries":
        """The involution ``q^(1/2) -> -q^(1/2)`` on half-integer series."""
        if not self.support_on_lattice(4):
            raise AlgebraError("sign flip needs all exponents to be multiples of 1/2")
        return PuiseuxSeries(
            {k: (c if (k // 4) % 2 == 0 else -c) for k, c in self.terms.items()},
            self.order_bound, self.zero)

    def truncate(self, order_bound: int) -> "PuiseuxSeries":
        if order_bound > self.order_bound:
            raise AlgebraError("cannot extend a truncated series")
        return PuiseuxSeries({k: c for k, c in self.terms.items() if k <= order_bound},
                             order_bound, self.zero)

    def map_coefficients(self, fn: Callable, new_zero=None) -> "PuiseuxSeries":
        zero = self.zero if new_zero is None else new_zero
        terms = {}
        for k, c in self.terms.items():
            v = fn(c)
            if v:
                terms[k] = v
        return PuiseuxSeries(terms, self.order_bound, zero)

    def __eq__(self, other):
        if isinstance(other, PuiseuxSeries):
            return self.terms == other.terms and self.order_bound == other.order_bound
        return NotImplemented

    # -- rendering --------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            c = self.terms[k]
            ct = c.to_text() if hasattr(c, "to_text") else str(c)
            if ("+" in ct[1:]) or ("-" in ct[1:]) or " " in ct:
                ct = f"({ct})"
            e = exponent_text(k)
            parts.append(ct if e == "1" else (e if ct == "1" else f"{ct}*{e}"))
        return " + ".join(parts)

    def to_json_obj(self):
        out = []
        for k in sorted(self.terms):
            c = self.terms[k]
            cj = c.to_json_obj() if hasattr(c, "to_json_obj") else (
                c.to_text() if hasattr(c, "to_text") else str(c))
            out.append([k, cj])
        return out

    def __repr__(self):
        return f"PuiseuxSeries({self.to_text()}, order<=q^({Fraction(self.order_bound, 8)}))"


def _scalar_convolution(a: Mapping[int, Fraction], b: Mapping[int, Fraction],
                        bound: int) -> dict[int, Fraction]:
    """Product of two ``Fraction`` series through lattice ``bound``.

    The same integer arithmetic as :func:`anomcancel.algebra.dot`: both
    operands over their common denominators, plain-int products and sums,
    one ``Fraction`` per output position.
    """
    da, na = int_numerators(a)
    db, nb = int_numerators(b)
    right = sorted(nb.items())
    acc: dict[int, int] = {}
    get = acc.get
    for k1, n1 in na.items():
        for k2, n2 in right:
            k = k1 + k2
            if k > bound:
                break
            acc[k] = get(k, 0) + n1 * n2
    den = da * db
    return {k: Fraction(n, den) for k, n in acc.items() if n}


def _ring_one(zero):
    """The multiplicative unit of the coefficient ring that ``zero`` belongs to."""
    if isinstance(zero, Fraction):
        return Fraction(1)
    if hasattr(zero, "one_like"):
        return zero.one_like()
    raise AlgebraError(f"no unit known for coefficient type {type(zero).__name__}")
