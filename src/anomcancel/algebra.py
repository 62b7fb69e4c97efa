"""Exact sparse graded-polynomial arithmetic over the rationals.

Scalars are ``fractions.Fraction`` (ints are accepted and coerced).
Polynomials live in a fixed table of weighted generators and are truncated
by total weight; they stand for characteristic forms written in normalized
Pontryagin-type generators.  Every operation is exact: no floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, NamedTuple, Sequence, Union

ScalarLike = Union[int, Fraction]


class AlgebraError(ValueError):
    """Structural misuse: table mismatch, bad weights, a non-invertible input."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Generator(NamedTuple):
    """A weighted generator.

    ``std_name``/``std_factor`` describe the change to the standard basis:
    this generator equals ``std_factor * <std_name>``, e.g. a normalized
    first Pontryagin generator of weight 2 equals ``(-1/4) * p1``.
    """

    name: str
    weight: int
    family: str
    std_name: str
    std_factor: Fraction


class GeneratorTable:
    """Ordered, immutable list of generators; positions index exponent vectors.

    The table owns monomial weights: each distinct exponent vector's weight is
    computed once and memoized on the instance.  The generators never change,
    so the memo is exact.
    """

    __slots__ = ("gens", "_index", "_weights", "_standard")

    def __init__(self, gens: Sequence[Generator]):
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise AlgebraError("generator names must be unique")
        for g in gens:
            if g.weight <= 0:
                raise AlgebraError(f"generator {g.name} must have positive weight")
        object.__setattr__(self, "gens", tuple(gens))
        object.__setattr__(self, "_index", {g.name: i for i, g in enumerate(gens)})
        object.__setattr__(self, "_weights", {})
        object.__setattr__(self, "_standard", None)

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorTable is immutable")

    def __reduce__(self):
        return GeneratorTable, (self.gens,)

    def __len__(self):
        return len(self.gens)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(g.name for g in self.gens)

    def family(self, fam: str) -> tuple[Generator, ...]:
        return tuple(g for g in self.gens if g.family == fam)

    def monomial_weight(self, exponents: tuple[int, ...]) -> int:
        w = self._weights.get(exponents)
        if w is None:
            w = sum(e * g.weight for e, g in zip(exponents, self.gens))
            self._weights[exponents] = w
        return w

    def weight_groups(self, terms: Mapping[tuple[int, ...], Fraction]) -> list[tuple[int, list]]:
        """``(weight, [(exponents, coeff), ...])`` pairs in increasing weight."""
        groups: dict[int, list] = {}
        for item in terms.items():
            groups.setdefault(self.monomial_weight(item[0]), []).append(item)
        return sorted(groups.items())

    @property
    def standard_table(self) -> "GeneratorTable":
        """Companion table whose generators carry the standard names (built once)."""
        std = self._standard
        if std is None:
            std = GeneratorTable(tuple(
                Generator(g.std_name, g.weight, g.family, g.std_name, Fraction(1)) for g in self.gens
            ))
            object.__setattr__(self, "_standard", std)
        return std

    def __eq__(self, other):
        if isinstance(other, GeneratorTable):
            return self.gens == other.gens
        return NotImplemented

    def __hash__(self):
        return hash(self.gens)

    def __repr__(self):
        return f"GeneratorTable({[g.name for g in self.gens]})"


def _zero_exps(n: int) -> tuple[int, ...]:
    return (0,) * n


class GradedPolynomial:
    """Sparse polynomial in weighted generators, truncated by total weight.

    Terms of weight above ``max_weight`` are discarded on every operation,
    so products agree with the exact product up to that weight.  A product
    never visits a pair of terms whose weights add up to more than
    ``max_weight``: both operands are grouped by weight and each left group
    meets only the right groups that fit.  Monomial weights come from the
    table, which computes each exponent vector's weight once.  Stored
    coefficients are nonzero ``Fraction``s; anything but an int or a
    ``Fraction`` is rejected with ``TypeError``.
    """

    __slots__ = ("table", "terms", "max_weight")

    def __init__(self, table: GeneratorTable, terms: Mapping[tuple[int, ...], ScalarLike], max_weight: int):
        clean: dict[tuple[int, ...], Fraction] = {}
        n = len(table)
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise AlgebraError("exponent vector length does not match table")
            if table.monomial_weight(exps) > max_weight:
                continue
            c = _frac(coeff)
            if c:
                clean[exps] = c
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "max_weight", max_weight)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPolynomial is immutable")

    def __reduce__(self):
        return GradedPolynomial, (self.table, self.terms, self.max_weight)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: GeneratorTable, max_weight: int) -> "GradedPolynomial":
        return GradedPolynomial(table, {}, max_weight)

    @staticmethod
    def scalar(value: ScalarLike, table: GeneratorTable, max_weight: int) -> "GradedPolynomial":
        return GradedPolynomial(table, {_zero_exps(len(table)): value}, max_weight)

    @staticmethod
    def one(table: GeneratorTable, max_weight: int) -> "GradedPolynomial":
        return GradedPolynomial.scalar(1, table, max_weight)

    @staticmethod
    def generator(name: str, table: GeneratorTable, max_weight: int, power: int = 1) -> "GradedPolynomial":
        i = table.index(name)
        exps = tuple(power if j == i else 0 for j in range(len(table)))
        return GradedPolynomial(table, {exps: 1}, max_weight)

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "GradedPolynomial"):
        if self.table != other.table:
            raise AlgebraError("generator table mismatch")
        if self.max_weight != other.max_weight:
            raise AlgebraError("truncation weight mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPolynomial.scalar(other, self.table, self.max_weight)
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            s = terms.get(exps)
            terms[exps] = c if s is None else s + c
        return GradedPolynomial(self.table, terms, self.max_weight)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPolynomial.scalar(other, self.table, self.max_weight)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return GradedPolynomial(self.table, {e: -c for e, c in self.terms.items()}, self.max_weight)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        table = self.table
        cap = self.max_weight
        right = table.weight_groups(other.terms)
        out: dict[tuple[int, ...], Fraction] = {}
        for w1, left in table.weight_groups(self.terms):
            fits = [item for w2, group in right if w1 + w2 <= cap for item in group]
            if not fits:
                break
            for e1, c1 in left:
                for e2, c2 in fits:
                    exps = tuple(map(add, e1, e2))
                    p = c1 * c2
                    s = out.get(exps)
                    out[exps] = p if s is None else s + p
        return GradedPolynomial(table, out, cap)

    __rmul__ = __mul__

    def scale(self, value: ScalarLike) -> "GradedPolynomial":
        c = _frac(value)
        if not c:
            return GradedPolynomial.zero(self.table, self.max_weight)
        return GradedPolynomial(self.table, {e: v * c for e, v in self.terms.items()}, self.max_weight)

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial powers are not supported")
        out = GradedPolynomial.one(self.table, self.max_weight)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, GradedPolynomial):
            return (self.table == other.table and self.max_weight == other.max_weight
                    and self.terms == other.terms)
        if isinstance(other, (int, Fraction)):
            return self == GradedPolynomial.scalar(other, self.table, self.max_weight)
        return NotImplemented

    # -- structure ---------------------------------------------------------

    def component(self, weight: int) -> "GradedPolynomial":
        """Homogeneous part of total weight exactly ``weight``."""
        if weight < 0 or weight > self.max_weight:
            raise AlgebraError(f"weight {weight} outside [0, {self.max_weight}]")
        terms = {e: c for e, c in self.terms.items() if self.table.monomial_weight(e) == weight}
        return GradedPolynomial(self.table, terms, self.max_weight)

    def constant_term(self) -> Fraction:
        return self.terms.get(_zero_exps(len(self.table)), Fraction(0))

    def one_like(self) -> "GradedPolynomial":
        return GradedPolynomial.one(self.table, self.max_weight)

    def is_homogeneous(self, weight: int) -> bool:
        return all(self.table.monomial_weight(e) == weight for e in self.terms)

    def substitute(self, name: str, replacement: "GradedPolynomial") -> "GradedPolynomial":
        """Replace one generator by a homogeneous polynomial of equal weight."""
        self._check_compatible(replacement)
        i = self.table.index(name)
        w = self.table.gens[i].weight
        if not replacement.is_homogeneous(w):
            raise AlgebraError(f"replacement for {name} must be homogeneous of weight {w}")
        out = GradedPolynomial.zero(self.table, self.max_weight)
        powers: dict[int, GradedPolynomial] = {0: GradedPolynomial.one(self.table, self.max_weight)}
        for exps, coeff in sorted(self.terms.items()):
            e = exps[i]
            if e not in powers:
                powers[e] = replacement ** e
            rest = tuple(0 if j == i else v for j, v in enumerate(exps))
            out = out + GradedPolynomial(self.table, {rest: coeff}, self.max_weight) * powers[e]
        return out

    # -- basis change and rendering -----------------------------------------

    def to_standard_basis(self) -> "GradedPolynomial":
        """Rewrite in standard generators (Pontryagin classes, first Chern class).

        Each generator ``g`` satisfies ``g = std_factor * std_gen``; the result
        is expressed over a table of the standard names with the same weights.
        The map is a graded ring isomorphism and ``from_standard_basis``
        inverts it exactly.
        """
        std_table = standard_table_of(self.table)
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            c = coeff
            for e, g in zip(exps, self.table.gens):
                if e:
                    c = c * g.std_factor ** e
            terms[exps] = c
        return GradedPolynomial(std_table, terms, self.max_weight)

    def from_standard_basis(self, normalized_table: GeneratorTable) -> "GradedPolynomial":
        """Inverse of :meth:`to_standard_basis` (self must be in standard names)."""
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, coeff in self.terms.items():
            c = coeff
            for e, g in zip(exps, normalized_table.gens):
                if e:
                    c = c / g.std_factor ** e
            terms[exps] = c
        return GradedPolynomial(normalized_table, terms, self.max_weight)

    def is_real(self) -> bool:
        """True when no coefficient has an imaginary part (always, for ``Fraction``)."""
        return not any(c.imag for c in self.terms.values())

    def sorted_terms(self):
        """Terms in canonical order: by weight, then by exponent vector."""
        return sorted(self.terms.items(), key=lambda item: (self.table.monomial_weight(item[0]), item[0]))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                g.name if e == 1 else f"{g.name}^{e}"
                for e, g in zip(exps, self.table.gens)
                if e
            )
            ct = str(coeff)
            if not mono:
                parts.append(ct)
            elif ct == "1":
                parts.append(mono)
            else:
                parts.append(f"{ct}*{mono}")
        return " + ".join(parts)

    def to_json_obj(self):
        return [{"mono": {g.name: e for e, g in zip(exps, self.table.gens) if e}, "re": str(coeff)}
                for exps, coeff in self.sorted_terms()]

    def __repr__(self):
        return f"GradedPolynomial({self.to_text()})"


def standard_table_of(table: GeneratorTable) -> GeneratorTable:
    """Companion table whose generators carry the standard names."""
    return table.standard_table


# -- symmetric function bridge ----------------------------------------------


def newton_convert(coeffs: Sequence[ScalarLike], n_roots: int, direction: str) -> list[Fraction]:
    """Convert between power sums ``s_1..s_m`` and elementaries ``e_1..e_m``.

    Newton's identities with ``e_i = 0`` for ``i > n_roots``.  ``direction``
    is ``"powersum->elementary"`` or ``"elementary->powersum"``.

    >>> [str(c) for c in newton_convert([0, 2], 2, "elementary->powersum")]
    ['0', '-4']
    """
    if n_roots < 1:
        raise AlgebraError("n_roots must be >= 1")
    vals = [_frac(c) for c in coeffs]
    m = len(vals)
    zero = Fraction(0)
    if direction == "powersum->elementary":
        s = [zero] + vals
        e: list[Fraction] = [Fraction(1)]
        for i in range(1, m + 1):
            acc = zero
            for j in range(1, i + 1):
                acc = acc + (e[i - j] * s[j] if j % 2 == 1 else -(e[i - j] * s[j]))
            e.append(acc / i if i <= n_roots else zero)
        return e[1:]
    if direction == "elementary->powersum":
        e = [Fraction(1)] + [v if i + 1 <= n_roots else zero for i, v in enumerate(vals)]
        s = [zero]
        for i in range(1, m + 1):
            acc = zero
            for j in range(1, i):
                acc = acc + (e[j] * s[i - j] if j % 2 == 1 else -(e[j] * s[i - j]))
            term = i * e[i]
            s.append(acc + (term if i % 2 == 1 else -term))
        return s[1:]
    raise AlgebraError(f"unknown direction {direction!r}")
