"""Truncated Puiseux series in ``q`` with exponents on the (1/8)-lattice.

Exponents are stored as integers ``k`` meaning ``q^(k/8)``: :data:`Q_UNIT`
lattice units make ``q^1`` and :data:`HALF_UNIT` make ``q^(1/2)``.  A series
knows its ``order_bound``: coefficients at lattice positions above the bound
are *unknown*, not zero, and asking for one raises :class:`TruncationError`.
Every series is computed in the packed integer form of the hot path,
:class:`~anomcancel.algebra.QColumns`, which keeps the same contract through
its ``bound``.  :class:`PuiseuxSeries` is the read-only view the library
hands out, over ``Fraction`` scalars or graded polynomials on ``table``, the
packed series' ring: :meth:`PuiseuxSeries.from_packed` reads a ``QColumns`` and
:meth:`PuiseuxSeries.from_pieces` an exp's weight pieces.  The library does
no arithmetic on views; only ``Fraction`` series multiply, for the benchmark's
product count, and a polynomial-valued series is read through its ``terms``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .algebra import ONE, AlgebraError, GeneratorTable, GradedPolynomial, QColumns, mul_sum

Q_UNIT = 8       # lattice units in q^1
HALF_UNIT = 4    # lattice units in q^(1/2)


class TruncationError(ValueError):
    """A coefficient beyond the stored order was requested."""


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
    """Sparse truncated series ``sum c_k q^(k/8)`` with ``k <= order_bound``, read-only."""

    __slots__ = ("terms", "order_bound", "table")

    def __init__(self, terms: Mapping[int, object], order_bound: int, table: GeneratorTable | None = None):
        clean: dict[int, object] = {}
        for k, c in terms.items():
            if k > order_bound:
                raise AlgebraError(f"term at lattice {k} beyond order bound {order_bound}")
            if c:
                clean[int(k)] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "order_bound", order_bound)
        object.__setattr__(self, "table", table)

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    def __reduce__(self):
        return PuiseuxSeries, (self.terms, self.order_bound, self.table)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def from_packed(c: QColumns) -> "PuiseuxSeries":
        """A packed series over its own ring, known through ``c.bound``.

        A scalar series (``c.table is None``) reads key 0 as ``Fraction``s, a
        polynomial one each position's :meth:`QColumns.coefficient`.
        """
        if c.table is None:
            return PuiseuxSeries({i * c.step: Fraction(n, c.den) for i, n in enumerate(c.cols.get(0, ())) if n},
                                 c.bound)
        count = max(map(len, c.cols.values()), default=0)
        return PuiseuxSeries({i * c.step: c.coefficient(i * c.step) for i in range(count)}, c.bound, c.table)

    @staticmethod
    def from_pieces(pieces: list[QColumns]) -> "PuiseuxSeries":
        """Packed weight pieces, as the exps return them, summed by one :func:`~anomcancel.algebra.mul_sum`."""
        return PuiseuxSeries.from_packed(mul_sum([(f, ONE, 1, [(0, 1)]) for f in pieces]))

    def to_standard_basis(self) -> "PuiseuxSeries":
        """Every polynomial coefficient rewritten in the standard generators; a scalar series as it is."""
        if self.table is None:
            return self
        return PuiseuxSeries({k: p.to_standard_basis() for k, p in self.terms.items()},
                             self.order_bound, self.table.standard_table)

    # -- inspection -----------------------------------------------------------

    def coefficient(self, k: int):
        """Exact coefficient at lattice ``k``; unknown positions are an error."""
        require_known(k, self.order_bound)
        return self.terms.get(k, Fraction(0) if self.table is None else GradedPolynomial.zero(self.table))

    def __bool__(self):
        return bool(self.terms)

    def __mul__(self, other: "PuiseuxSeries") -> "PuiseuxSeries":
        """All-pairs ``Fraction`` product, known through each bound plus the other's first stored position."""
        # no library caller: kept because the benchmark's tracer counts its calls
        # (qseries.series_mul) and its self-test fails when it is missing
        if self.table is not None or other.table is not None:
            raise AlgebraError("series arithmetic takes Fraction series only; read a polynomial series' terms")
        bound = min(self.order_bound + min(other.terms, default=other.order_bound + 1),
                    other.order_bound + min(self.terms, default=self.order_bound + 1))
        terms: dict[int, Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                if k1 + k2 <= bound:
                    terms[k1 + k2] = terms.get(k1 + k2, Fraction(0)) + c1 * c2
        return PuiseuxSeries(terms, bound)

    def __eq__(self, other):
        if isinstance(other, PuiseuxSeries):
            return self.table is other.table and (self.terms, self.order_bound) == (other.terms, other.order_bound)
        return NotImplemented

    # -- rendering --------------------------------------------------------------

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in sorted(self.terms.items()):
            ct = str(c) if self.table is None else c.to_text()
            if " " in ct:
                ct = f"({ct})"
            e = exponent_text(k)
            parts.append(ct if e == "1" else (e if ct == "1" else f"{ct}*{e}"))
        return " + ".join(parts)

    def to_json_obj(self):
        return [[k, str(c) if self.table is None else c.to_json_obj()] for k, c in sorted(self.terms.items())]

    def __repr__(self):
        return f"PuiseuxSeries({self.to_text()}, order<=q^({Fraction(self.order_bound, Q_UNIT)}))"

