"""Exact sparse graded-polynomial arithmetic over the rationals.

Scalars are ints and ``fractions.Fraction``s.  A ring is a
:class:`GeneratorTable`: weighted generators and the total weight ``cap``
that every polynomial on it is truncated at, fixed once per table, so no
operation takes a cap of its own.  Equal generators and cap give one table
object, so operands share a ring exactly when they share the object.
Polynomials stand for characteristic forms written in normalized
Pontryagin-type generators.  Every operation is exact: no floats anywhere.

A monomial is one int: its exponent vector packed by its table
(``table.key(e)``), with its weight in the top field.  At
rest a polynomial holds int numerators, keyed by packed monomial, over one
positive denominator, kept reduced, and every ring operation runs on those
ints; exponent vectors and ``Fraction``s are made only at the public edge
(the constructor, the ``.terms`` view, the renderings and the standard
basis).  The text and JSON renderings write each coefficient from its
numerator over ``den``.  Polynomial products go through :func:`dot`, which
takes its pairs and their table: it rescales each pair's numerators to one
common denominator, multiplies and adds plain ints, and reduces once.

Polynomial-valued q-series on the hot path live in a transposed integer
form, :class:`QColumns`: ``(den, step, {packed monomial: [numerator per
position]}, bound, table)``, known through lattice ``bound`` (``None``:
exact) on the ring ``table`` (``None``: scalar).  A polynomial enters it only
by :meth:`QColumns.of` and leaves it only by :meth:`QColumns.coefficient`.
:func:`mul_sum` takes its step, bound, length and ring from the operands.  It
packs a product only when both operands span several positions (Kronecker
substitution: a monomial's numerators become one int, one bit field per
position, so a pair of monomials costs one big-int multiply, unpacked once
by balanced residues).  A single-position side (``ONE``, an ``h_r``) just
scales the other side's lists, which is cheaper than packing, and two such
sides make one int per monomial at q^0.  The field
width is one bit more than the bit length of a bound on every packed output
|numerator| that :func:`field_width` computes from the packed operands
alone, so no cache and no worker count can change it.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Mapping, NamedTuple, Sequence, Union

ScalarLike = Union[int, Fraction]


class AlgebraError(ValueError):
    """Structural misuse: table mismatch, bad weights, a non-invertible input."""


class Record:
    """An immutable memo key over its ``__slots__``: compared, hashed, pickled and shown by value."""

    __slots__ = ("_values",)

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", values)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), self._values

    def __eq__(self, other):
        return self._values == other._values if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{n}={v!r}' for n, v in zip(self.__slots__, self._values))})"


def _ratio(x) -> tuple[int, int]:
    """``x`` as a reduced ``(numerator, denominator)``; only an int or a ``Fraction`` is accepted."""
    if isinstance(x, (int, Fraction)):
        return x.as_integer_ratio()
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class Generator(NamedTuple):
    """A weighted generator.

    ``std_name``/``std_factor`` describe the change to the standard basis:
    this generator equals ``std_factor * <std_name>``, e.g. a normalized
    first Pontryagin generator of weight 2 equals ``(-1/4) * p1``.
    """

    name: str
    weight: int
    std_name: str
    std_factor: Fraction


_rings = weakref.WeakValueDictionary()     # (gens, cap) -> the one table built for them, while it lives


class GeneratorTable:
    """A ring of forms, one object per generators and cap, and the packing of its monomials into ints.

    ``gens`` are ordered, immutable generators whose positions index exponent
    vectors; ``cap`` is the total weight every polynomial on the table is
    truncated at.  ``GeneratorTable(gens, cap)`` returns the table built for
    equal generators and cap while anything refers to it, so equal rings are
    one object, and tables compare and hash by identity.

    A monomial of weight <= ``cap`` is one int, its key: generator ``i`` gets
    a bit field wide enough for ``cap // weight_i``, and the weight sits in
    one field above them all, at bit ``top``: ``key(e) = sum(e_i *
    units[i])``, ``units[i] = 2^shift_i + weight_i * 2^top``.  So ``key >>
    top`` is the weight, the key of 1 is 0, and the keys of two monomials
    whose weights add up to at most ``cap`` add with no carry.  :meth:`vector`
    is memoized; the generators and the cap never change, so the memo is exact.

    >>> from anomcancel.genus import build_generator_table
    >>> t = build_generator_table(2, 0, True, 4)
    >>> t.key((1, 0, 2)) + t.key((0, 1, 0)) == t.key((1, 1, 2)), GeneratorTable(t.gens, t.cap) is t
    (True, True)
    >>> t.vector(t.key((0, 1, 0))), t.key((0, 1, 0)) >> t.top, t.key((1, 0, 2)) >> t.top, t.key((0, 0, 0))
    ((0, 1, 0), 4, 4, 0)
    """

    __slots__ = ("gens", "cap", "fields", "units", "top", "vectors", "_index", "_standard", "_twos", "__weakref__")

    def __new__(cls, gens: Sequence[Generator], cap: int):
        gens = tuple(gens)
        self = _rings.get((gens, cap))
        if self is not None:
            return self
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise AlgebraError("generator names must be unique")
        fields, shift = [], 0
        for g in gens:
            if g.weight <= 0:
                raise AlgebraError(f"generator {g.name} must have positive weight")
            bits = (cap // g.weight).bit_length()
            fields.append((shift, (1 << bits) - 1))
            shift += bits
        self = object.__new__(cls)
        for name, value in (("gens", gens), ("cap", cap), ("fields", tuple(fields)),
                            ("units", tuple((1 << s) + (g.weight << shift) for (s, _), g in zip(fields, gens))),
                            ("top", shift), ("vectors", {}), ("_index", {n: i for i, n in enumerate(names)}),
                            ("_standard", None), ("_twos", None)):
            object.__setattr__(self, name, value)
        _rings[gens, cap] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorTable is immutable")

    def __reduce__(self):
        return GeneratorTable, (self.gens, self.cap)

    def __len__(self):
        return len(self.gens)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown generator {name!r}") from None

    def key(self, exponents: tuple[int, ...]) -> int:
        return sum(e * u for e, u in zip(exponents, self.units))

    def vector(self, key: int) -> tuple[int, ...]:
        v = self.vectors.get(key)
        if v is None:
            v = self.vectors[key] = tuple((key >> shift) & mask for shift, mask in self.fields)
        return v

    @property
    def standard_table(self) -> "GeneratorTable":
        """Companion table whose generators carry the standard names (built once)."""
        std = self._standard
        if std is None:
            std = GeneratorTable(tuple(
                Generator(g.std_name, g.weight, g.std_name, Fraction(1)) for g in self.gens
            ), self.cap)
            object.__setattr__(self, "_standard", std)
        return std

    @property
    def standard_twos(self) -> tuple[tuple[bool, int], ...]:
        """Per generator, ``(std_factor < 0, k)`` with ``|std_factor| = 2^k`` (built once); other factors raise."""
        if self._twos is None:
            pqs = [g.std_factor.as_integer_ratio() for g in self.gens]
            for p, q in pqs:
                if not p or abs(p) & (abs(p) - 1) or q & (q - 1):
                    raise AlgebraError(f"standard-basis factor {Fraction(p, q)} is not plus or minus a power of 2")
            object.__setattr__(self, "_twos", tuple((p < 0, abs(p).bit_length() - q.bit_length()) for p, q in pqs))
        return self._twos

    def __repr__(self):
        return f"GeneratorTable({[g.name for g in self.gens]}, cap={self.cap})"


class GradedPolynomial:
    """Sparse polynomial in weighted generators, truncated at its table's weight ``table.cap``.

    Terms of weight above the cap are discarded on every operation,
    so products agree with the exact product up to that weight.  Products
    go through :func:`dot`, which never visits a pair of terms whose weights
    add up to more than the cap.  At rest the coefficients are
    ``nums``, packed monomial (``table.key``, which carries
    the weight) to nonzero int numerator, over one positive ``den``, kept
    reduced (``gcd(den, *nums) == 1``), so equal polynomials hold equal ints;
    ``terms`` is the ``{exponent vector: Fraction}`` view, built on each
    read.  The constructor takes int or ``Fraction`` coefficients and rejects
    anything else with ``TypeError``.
    """

    __slots__ = ("table", "den", "nums")

    def __init__(self, table: GeneratorTable, terms: Mapping[tuple[int, ...], ScalarLike]):
        ratios: dict[int, tuple[int, int]] = {}
        n = len(table)
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise AlgebraError("exponent vector length does not match table")
            key = table.key(exps)
            if key >> table.top > table.cap:
                continue
            p, q = _ratio(coeff)
            if p:
                ratios[key] = p, q
        den = lcm(*(q for _, q in ratios.values()))     # over the lcm of reduced denominators: reduced
        self._init(table, den, {k: p * (den // q) for k, (p, q) in ratios.items()})

    def _init(self, table, den, nums):
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPolynomial is immutable")

    @staticmethod
    def _from_ints(table: GeneratorTable, den: int, nums: dict[int, int]) -> "GradedPolynomial":
        """A polynomial from nonzero int numerators, keyed by packed monomial within the cap, over ``den >= 1``."""
        if den != 1:
            common = gcd(den, *nums.values())
            if common > 1:
                den //= common
                nums = {k: n // common for k, n in nums.items()}
        self = object.__new__(GradedPolynomial)
        self._init(table, den, nums)
        return self

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """``{exponent vector: coefficient}`` over the nonzero terms, as ``Fraction``s."""
        den, vector = self.den, self.table.vector
        return {vector(k): Fraction(n, den) for k, n in self.nums.items()}

    def int_form(self) -> tuple[int, list[tuple[int, list[tuple[int, int]]]]]:
        """``(den, [(weight, [(key, numerator), ...]), ...])``, weights increasing: ``nums`` grouped by weight."""
        top = self.table.top
        groups: dict[int, list] = {}
        for k, n in self.nums.items():
            groups.setdefault(k >> top, []).append((k, n))
        return self.den, sorted(groups.items())

    def __reduce__(self):
        return GradedPolynomial._from_ints, (self.table, self.den, self.nums)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: GeneratorTable) -> "GradedPolynomial":
        return GradedPolynomial(table, {})

    @staticmethod
    def scalar(value: ScalarLike, table: GeneratorTable) -> "GradedPolynomial":
        return GradedPolynomial(table, {(0,) * len(table): value})

    @staticmethod
    def one(table: GeneratorTable) -> "GradedPolynomial":
        return GradedPolynomial.scalar(1, table)

    @staticmethod
    def generator(name: str, table: GeneratorTable, power: int = 1) -> "GradedPolynomial":
        i = table.index(name)
        exps = tuple(power if j == i else 0 for j in range(len(table)))
        return GradedPolynomial(table, {exps: 1})

    # -- ring operations ---------------------------------------------------

    def _plus(self, other, sign: int) -> "GradedPolynomial":
        """``self + sign * other`` in one pass over ``other``, over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = GradedPolynomial.scalar(other, self.table)
        elif not isinstance(other, GradedPolynomial):
            return NotImplemented
        _check_space(other, self.table)
        da, db = self.den, other.den
        den = da if da == db else lcm(da, db)
        ma, mb = den // da, sign * (den // db)
        nums = dict(self.nums) if ma == 1 else {k: n * ma for k, n in self.nums.items()}
        get = nums.get
        for k, n in other.nums.items():
            s = get(k, 0) + n * mb
            if s:
                nums[k] = s
            else:
                del nums[k]
        return GradedPolynomial._from_ints(self.table, den, nums)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return GradedPolynomial._from_ints(self.table, self.den, {k: -n for k, n in self.nums.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return dot([(self, other)], self.table) if isinstance(other, GradedPolynomial) else NotImplemented

    __rmul__ = __mul__

    def scale(self, value: ScalarLike) -> "GradedPolynomial":
        p, q = _ratio(value)
        if not p:
            return GradedPolynomial.zero(self.table)
        nums = self.nums if p == 1 else {k: n * p for k, n in self.nums.items()}
        return GradedPolynomial._from_ints(self.table, self.den * q, nums)

    def scale_by_weight(self, m: int) -> "GradedPolynomial":
        """Each weight-w term times ``m^w``: the ring map that multiplies a generator of weight w by ``m^w``."""
        top = self.table.top
        nums = {k: v for k, n in self.nums.items() if (v := n * m ** (k >> top))}
        return GradedPolynomial._from_ints(self.table, self.den, nums)

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial powers are not supported")
        out = GradedPolynomial.one(self.table)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, GradedPolynomial):
            return self.table is other.table and self.den == other.den and self.nums == other.nums
        if isinstance(other, (int, Fraction)):
            return self == GradedPolynomial.scalar(other, self.table)
        return NotImplemented

    # -- structure ---------------------------------------------------------

    def component(self, weight: int) -> "GradedPolynomial":
        """Homogeneous part of total weight exactly ``weight``."""
        if weight < 0 or weight > self.table.cap:
            raise AlgebraError(f"weight {weight} outside [0, {self.table.cap}]")
        top = self.table.top
        nums = {k: n for k, n in self.nums.items() if k >> top == weight}
        return GradedPolynomial._from_ints(self.table, self.den, nums)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums.get(0, 0), self.den)

    def one_like(self) -> "GradedPolynomial":
        return GradedPolynomial.one(self.table)

    def is_homogeneous(self, weight: int) -> bool:
        top = self.table.top
        return all(k >> top == weight for k in self.nums)

    def substitute(self, name: str, replacement: "GradedPolynomial") -> "GradedPolynomial":
        """Replace one generator by a homogeneous polynomial of equal weight (``self`` if no term has it)."""
        _check_space(replacement, self.table)
        i = self.table.index(name)
        w = self.table.gens[i].weight
        if not replacement.is_homogeneous(w):
            raise AlgebraError(f"replacement for {name} must be homogeneous of weight {w}")
        (shift, mask), unit = self.table.fields[i], self.table.units[i]
        rests: dict[int, dict[int, int]] = {}
        for k, n in self.nums.items():
            e = (k >> shift) & mask
            rests.setdefault(e, {})[k - e * unit] = n     # the weight field drops with the power
        if not any(rests):
            return self
        powers = [self.one_like()]
        for _ in range(max(rests, default=0)):
            powers.append(powers[-1] * replacement)
        return dot([(GradedPolynomial._from_ints(self.table, self.den, rest), powers[e])
                    for e, rest in rests.items()], self.table)

    # -- basis change and rendering -----------------------------------------

    def to_standard_basis(self) -> "GradedPolynomial":
        """Rewrite in standard generators (Pontryagin classes, first Chern class).

        Each generator ``g`` satisfies ``g = std_factor * std_gen``, with
        ``std_factor = +-2^k``; the result is expressed over a table of the
        standard names with the same weights.  The map is a graded ring
        isomorphism: it rescales each monomial by a sign and a power of 2.
        """
        twos, vector = self.table.standard_twos, self.table.vector
        shifted = []
        for key, n in self.nums.items():
            s = 0
            for e, (negative, k) in zip(vector(key), twos):
                if e:
                    s += e * k
                    if negative and e & 1:
                        n = -n
            shifted.append((key, n, s))
        low = min((s for _, _, s in shifted if s < 0), default=0)
        nums = {key: n << (s - low) for key, n, s in shifted}     # same weights, so the same fields
        return GradedPolynomial._from_ints(self.table.standard_table, self.den << -low, nums)

    def _coefficient_texts(self):
        """``(exponent vector, str(Fraction(n, den)))`` by weight, then exponent vector, written from the ints."""
        table, den = self.table, self.den
        for k, n in sorted(self.nums.items(), key=lambda kn: (kn[0] >> table.top, table.vector(kn[0]))):
            g = gcd(n, den)
            yield table.vector(k), str(n // g) if g == den else f"{n // g}/{den // g}"

    def to_text(self) -> str:
        parts = []
        for exps, ct in self._coefficient_texts():
            mono = "*".join(g.name if e == 1 else f"{g.name}^{e}" for e, g in zip(exps, self.table.gens) if e)
            parts.append(mono if ct == "1" and mono else f"{ct}*{mono}" if mono else ct)
        return " + ".join(parts) or "0"

    def to_json_obj(self):
        return [{"mono": {g.name: e for e, g in zip(exps, self.table.gens) if e}, "re": ct}
                for exps, ct in self._coefficient_texts()]

    def __repr__(self):
        return f"GradedPolynomial({self.to_text()})"


def _check_space(p: GradedPolynomial | QColumns, table: GeneratorTable):
    if p.table is not table:
        raise AlgebraError("generator table mismatch")


def dot(pairs: Sequence[tuple[GradedPolynomial, GradedPolynomial]], table: GeneratorTable,
        floor: int = 0) -> GradedPolynomial:
    """``sum_i a_i * b_i`` for polynomial pairs ``(a_i, b_i)``, its weights ``floor..table.cap`` only.

    Every operand must live on ``table``, so it is truncated at ``cap =
    table.cap``.  Each operand enters through its integer form
    (:meth:`GradedPolynomial.int_form`); pair ``i`` has denominator
    ``d_i = den(a_i) * den(b_i)``, its left numerators are rescaled by
    ``D // d_i`` with ``D = lcm(d_i)``, and all pairs are accumulated as
    plain ints over ``D``; the sums, less their zeros, and ``D`` are reduced
    once, by their gcd, into the result's numerators and denominator.  Both
    operands are grouped by weight: a left group meets only the right groups
    that land in ``floor..cap``, and none once nothing fits, so ``floor=cap``
    multiplies only the pairs of the top weight.  Packed monomials add as
    ints (see :class:`GeneratorTable`), so the sums are already the result's
    keys.  An operand on another table object raises: equal rings are one.

    >>> from anomcancel.genus import build_generator_table
    >>> t = build_generator_table(1, 0, True, 2)
    >>> w = GradedPolynomial.generator("w", t)
    >>> dot([(w.scale(Fraction(1, 2)), w), (w.one_like().scale(3), w)], t).to_text()
    '3*w + 1/2*w^2'
    """
    live = []
    den, cap = 1, table.cap
    for a, b in pairs:
        if a.table is not table or b.table is not table:
            raise AlgebraError("generator table mismatch")
        if a.nums and b.nums:
            den = lcm(den, a.den * b.den)
            live.append((a.den * b.den, a.int_form()[1], b.int_form()[1]))
    acc: dict[int, int] = {}
    get = acc.get
    for d, left, right in live:
        m = den // d
        for w1, group in left:
            for w2, g in right:
                if w1 + w2 > cap:
                    break
                if w1 + w2 < floor:
                    continue
                for k1, n1 in group:
                    n1 *= m
                    for k2, n2 in g:
                        acc[k1 + k2] = get(k1 + k2, 0) + n1 * n2
    return GradedPolynomial._from_ints(table, den, {k: n for k, n in acc.items() if n})


# -- polynomial-valued q-series in packed integer form ------------------------


class QColumns(NamedTuple):
    """A polynomial-valued q-series in transposed integer form, known through lattice ``bound``, on ``table``.

    ``cols[key][i] / den`` is the coefficient of the monomial packed as
    ``key`` by ``table.key`` at lattice position ``i * step``; positions
    past the end of a list are zero, and a monomial with no nonzero position
    is absent.  ``bound`` is the last lattice position known; reading past
    it raises :class:`~anomcancel.qseries.TruncationError`.  ``bound=None``
    marks an exact series (:data:`ONE`, a single ``h_r``), ``table=None`` a
    scalar one, which holds only key 0: the unit monomial of every table.
    Two series are on one ring only when they hold one table object, so
    equality, as a tuple's, reads the ring by identity.
    """

    den: int
    step: int
    cols: dict[int, list[int]]
    bound: int | None = None
    table: GeneratorTable | None = None

    @staticmethod
    def of(p: GradedPolynomial) -> "QColumns":
        """``p`` as an exact single-position series on its table: its numerators, keys and denominator as they are."""
        return QColumns(p.den, 1, {key: [n] for key, n in p.nums.items()}, None, p.table)

    def coefficient(self, k: int) -> GradedPolynomial:
        """The coefficient at lattice ``k`` as a polynomial on ``table`` (zero off the lattice)."""
        if self.table is None:
            raise AlgebraError("a scalar series has no polynomial coefficient")
        if self.bound is not None and k > self.bound:
            from .qseries import require_known
            require_known(k, self.bound)
        i, off = divmod(k, self.step)
        nums = {key: ns[i] for key, ns in self.cols.items() if not off and 0 <= i < len(ns) and ns[i]}
        return GradedPolynomial._from_ints(self.table, self.den, nums)


ONE = QColumns(1, 1, {0: [1]})     # the exact unit: one position, so its step never matters


def field_width(positions: int, products: Sequence[tuple[int, int, int, int]]) -> int:
    """Bits per field for a sum of packed products, one more than any of their output |numerators| needs.

    ``products`` holds one ``(scalar_l1, pairs, max_left, max_right)`` per
    packed product: the L1 norm of its integer scalars, the most monomial
    pairs of its operands that can land on one output monomial, and each
    operand's largest |numerator|.  One output position sums at most
    ``positions`` index pairs of one monomial pair, so every packed output
    |numerator| is at most ``positions * sum(scalar_l1 * pairs * max_left *
    max_right)``; a field one bit wider than that bound's bit length holds it
    as a balanced residue.  :func:`mul_sum` adds its direct products after unpacking.
    """
    return (positions * sum(s * p * a * b for s, p, a, b in products)).bit_length() + 1


def _pack(nums: Sequence[int], width: int) -> int:
    """``sum_i nums[i] * 2^(i*width)``: signed numerators, one field each, packed by halves."""
    if len(nums) > 8:
        h = len(nums) // 2
        return _pack(nums[:h], width) + (_pack(nums[h:], width) << (h * width))
    x = 0
    for n in reversed(nums):
        x = (x << width) + n
    return x


def _max_abs(c: QColumns) -> int:
    return max(map(abs, chain.from_iterable(c.cols.values())))


def _kronecker(jobs, step: int, count: int, rows: dict[int, list[int]]):
    """Add each ``(a, b, [(t, n), ...])`` of ``jobs``, as :func:`mul_sum` reads it, into ``rows``, packed."""
    width = field_width(count, [(sum(abs(n) for _, n in ints), min(len(a.cols), len(b.cols)),
                                 _max_abs(a), _max_abs(b)) for a, b, ints in jobs])

    def pack(c: QColumns) -> list[tuple[int, int]]:
        spread = c.step // step
        return [(k, _pack(v[:(count - 1) // spread + 1], width * spread)) for k, v in c.cols.items()]

    acc: dict[int, int] = {}
    get = acc.get
    for a, b, ints in jobs:
        right = pack(b)
        for ka, x in pack(a):
            for kb, y in right:
                p = x * y
                for t, n in ints:
                    k = ka + kb + t
                    acc[k] = get(k, 0) + (p if n == 1 else p * n)
    # balanced residues: adding half of every field makes each field its value plus half
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    low = (1 << (width * count)) - 1
    bias = low // mask * half
    shifts = range(0, width * count, width)
    for k, x in acc.items():
        x = (x + bias) & low
        nums = [((x >> sh) & mask) - half for sh in shifts]
        row = rows.get(k)
        rows[k] = nums if row is None else [m + n for m, n in zip(row, nums)]


def mul_sum(products) -> QColumns:
    """``sum (n/d) * x^t * a * b`` over ``(a, b, d, scatter)`` in ``products`` and ``(t, n)`` in ``scatter``.

    ``a`` and ``b`` are :class:`QColumns`, ``d`` is a positive int, and each
    ``(t, n)`` pairs a packed monomial key with an int.  The result works
    out its own lattice and ring from the operands: its step is the gcd of
    the steps of the operands with more than one position (a single position
    sits on any step), its bound the least bound of the truncated operands
    (``None`` when all are exact), its table the one its tabled operands
    share (two tables raise), and it holds every position the products reach,
    up to that bound, over one reduced denominator.  Every product's scalars
    are brought to integers over the lcm of all denominators.  Only
    a product whose operands both span several positions is packed
    (:func:`_kronecker`).  Where one side is a single position (``ONE``, an
    ``h_r``, a q^0 piece), packing costs more than the product: that side's
    ints scale the other side's lists, added position by position; where
    both sides are, the product lands at position 0 only, and is summed into
    one int per monomial that joins the rows once: the q^0 genera run
    through it, and with the single-side path instead ``verify 3.1 --k 20
    --l 1 --qorder 22`` took a median 2.13 s against 2.02 s (8 runs each,
    2-vCPU Xeon, Python 3.11).  Keys add as ints, so
    every ``t + key(a) + key(b)`` must stay within the truncation weight.

    >>> p = QColumns(1, 8, {0: [1, 1]})            # 1 + q, exact
    >>> mul_sum([(p, p, 2, [(0, 1)])])
    QColumns(den=2, step=8, cols={0: [1, 2, 1]}, bound=None, table=None)
    >>> mul_sum([(p, p._replace(bound=8), 1, [(0, 1)]), (ONE, ONE, 1, [(0, 1)])])
    QColumns(den=1, step=8, cols={0: [2, 2]}, bound=8, table=None)
    """
    step, bound, table, reach, live = 0, None, None, 0, []
    for a, b, d, scatter in products:
        na, nb = max(map(len, a.cols.values()), default=0), max(map(len, b.cols.values()), default=0)
        for c, n in ((a, na), (b, nb)):
            if n > 1:
                step = gcd(step, c.step)
            if c.bound is not None and (bound is None or c.bound < bound):
                bound = c.bound
            if c.table is not table and c.table is not None:
                if table is not None:
                    raise AlgebraError("generator table mismatch")
                table = c.table
        if na and nb:
            reach = max(reach, (na - 1) * a.step + (nb - 1) * b.step)
            live.append((a, b, na, nb, a.den * b.den * d, scatter))
    step = step or 1
    count = max(0, (reach if bound is None else min(reach, bound)) // step + 1)    # 0 below q^0
    den = lcm(*(d for *_, d, _ in live))
    jobs, rows, at_zero = [], {}, {}
    for a, b, na, nb, d, scatter in live:
        ints = [(t, n * (den // d)) for t, n in scatter if n]
        if na > 1 and nb > 1:
            jobs.append((a, b, ints))
            continue
        single, other = (a, b) if na == 1 else (b, a)     # other is spread onto the output lattice
        scaled = [(ks + t, v[0] * n) for ks, v in single.cols.items() for t, n in ints]
        if na == nb == 1:           # both single: the product lands at position 0 only
            get = at_zero.get
            for ko, nums in other.cols.items():
                y = nums[0]
                for kt, m in scaled:
                    at_zero[kt + ko] = get(kt + ko, 0) + m * y
            continue
        spread = other.step // step
        for ko, nums in other.cols.items():
            nums = nums[:(count - 1) // spread + 1]
            cut = slice(0, len(nums) * spread, spread)
            for kt, m in scaled:
                row = rows.get(kt + ko)
                if row is None:
                    row = rows[kt + ko] = [0] * count
                    row[cut] = [m * y for y in nums]
                else:
                    row[cut] = [x + m * y for x, y in zip(row[cut], nums)]
    if count:
        for k, x in at_zero.items():
            row = rows.get(k)
            if row is not None:
                row[0] += x
            elif x:
                rows[k] = [x] + [0] * (count - 1)
    if jobs:
        _kronecker(jobs, step, count, rows)
    cols = {k: nums for k, nums in rows.items() if any(nums)}
    common = gcd(den, *chain.from_iterable(cols.values()))
    if common > 1:
        den //= common
        cols = {k: [n // common for n in nums] for k, nums in cols.items()}
    return QColumns(den, step, cols, bound, table)


def exp_by_grade(columns, table: GeneratorTable, bound: int) -> list[QColumns]:
    """``F[n]``, the grade-n part of ``exp(L)`` for ``n = 0..table.cap // 2``, known through lattice ``bound``.

    Each ``(m, c, den, scatter)`` is a grade-m term of ``L``: the scalar
    column ``c`` times ``sum (n/den) x^t`` over ``(t, n)`` in ``scatter``, keys
    on ``table``.  By Euler, ``n*F_n = sum m * L_m * F_(n-m)``, one :func:`mul_sum`
    per piece; ``F[0]`` is the unit on ``table`` known through ``bound``, so every piece is.
    """
    columns = [(m, c, den, [(t, m * n) for t, n in scatter]) for m, c, den, scatter in columns]
    f = [ONE._replace(bound=bound, table=table)]
    for n in range(1, table.cap // 2 + 1):
        products = [(c, f[n - m], n * den, scatter) for m, c, den, scatter in columns if m <= n]
        f.append(mul_sum(products) if products else f[0]._replace(cols={}))
    return f
