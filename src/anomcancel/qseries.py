"""Truncated Puiseux series in ``q`` with exponents on the (1/8)-lattice.

Exponents are stored as integers ``k`` meaning ``q^(k/8)``: :data:`Q_UNIT`
lattice units make ``q^1`` and :data:`HALF_UNIT` make ``q^(1/2)``.  A series
knows its ``order_bound``: coefficients at lattice positions above the bound
are *unknown*, not zero, and asking for one raises :class:`TruncationError`.
Coefficients may be any exact ring element (``Fraction`` scalars or graded
polynomials); the series carries the ring's zero so the two rings never mix
silently.  The packed integer form of the hot path,
:class:`~anomcancel.algebra.QColumns`, keeps the same contract through its
``bound``, and :meth:`PuiseuxSeries.from_packed` is the one edge from it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping

from .algebra import AlgebraError, GradedPolynomial, QColumns

Q_UNIT = 8       # lattice units in q^1
HALF_UNIT = 4    # lattice units in q^(1/2)


class TruncationError(ValueError):
    """A coefficient beyond the stored order was requested."""


class RingMismatchError(ValueError):
    """Operands live over different coefficient rings."""


def exponent_text(k: int) -> str:
    """Render lattice position ``k`` as a reduced power of q."""
    if k == 0:
        return "1"
    f = Fraction(k, Q_UNIT)
    if f == 1:
        return "q"
    return f"q^({f})"


def require_known(k: int, order_bound: int):
    """Raise :class:`TruncationError` when lattice ``k`` lies beyond ``order_bound``."""
    if k > order_bound:
        raise TruncationError(
            f"coefficient at q^({Fraction(k, Q_UNIT)}) is beyond the computed order "
            f"q^({Fraction(order_bound, Q_UNIT)})"
        )


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
    def from_packed(*parts: QColumns, zero) -> "PuiseuxSeries":
        """Packed series with disjoint monomials, summed over the ring of ``zero`` through their least bound.

        Over ``Fraction`` the one part's constant monomial (key 0) is read;
        over a polynomial ring each monomial is unpacked by the ring's
        packing, so the weight pieces of one exp make one series.
        """
        bound = min(c.bound for c in parts)
        if isinstance(zero, Fraction):
            (c,) = parts
            return PuiseuxSeries({i * c.step: Fraction(n, c.den) for i, n in enumerate(c.cols.get(0, ())) if n},
                                 bound, zero)
        vector, at = zero.table.packing(zero.max_weight).vector, {}
        for c in parts:
            for key, nums in c.cols.items():
                e = vector(key)
                for i, n in enumerate(nums):
                    if n:
                        at.setdefault(i * c.step, {})[e] = Fraction(n, c.den)
        return PuiseuxSeries({k: GradedPolynomial._with_form(zero.table, at[k], zero.max_weight, None)
                              for k in sorted(at)}, bound, zero)

    # -- inspection -----------------------------------------------------------

    def coefficient(self, k: int):
        """Exact coefficient at lattice ``k``; unknown positions are an error."""
        require_known(k, self.order_bound)
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
        """Pairs grouped by output position, each position one ``dot`` over polynomials or one sum."""
        self._check_ring(other)
        bound = min(self.order_bound + other.leading_exponent(),
                    other.order_bound + self.leading_exponent())
        pairs: dict[int, list] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if k1 + k2 <= bound:
                    pairs.setdefault(k1 + k2, []).append((c1, c2))
        if isinstance(self.zero, Fraction):
            return PuiseuxSeries({k: sum((a * b for a, b in p), self.zero) for k, p in pairs.items()},
                                 bound, self.zero)
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
        return f"PuiseuxSeries({self.to_text()}, order<=q^({Fraction(self.order_bound, Q_UNIT)}))"

