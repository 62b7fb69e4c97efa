"""Exact sparse graded-polynomial arithmetic over the rationals.

Scalars are ``fractions.Fraction`` (ints are accepted and coerced).
Polynomials live in a fixed table of weighted generators and are truncated
by total weight; they stand for characteristic forms written in normalized
Pontryagin-type generators.  Every operation is exact: no floats anywhere.

Coefficients are ``Fraction`` at rest, and every reader of ``.terms`` sees
``Fraction``s.  Polynomial products go through :func:`dot`, which takes only
its pairs: it rescales each pair's integer numerators to one common
denominator, multiplies and adds plain ints, and builds one reduced
``Fraction`` per output term at the end.

Polynomial-valued q-series on the hot path live in a transposed integer
form, :class:`QColumns`: ``(den, step, {packed monomial: [numerator per
position]}, bound)``, where ``bound`` is the last lattice position known
(``None`` for an exact series).  :func:`mul_sum` multiplies them by
Kronecker substitution and takes its step, bound and length from the
operands: each monomial's numerators become one int with one bit field per
position, so a pair of monomials costs one big-int multiply, and each
output monomial is unpacked once by balanced residues.  The field width is
one bit more than the bit length of a bound on every output |numerator|
that :func:`field_width` computes from the operands alone, so no cache and
no worker count can change it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
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

    __slots__ = ("gens", "_index", "_weights", "_standard", "_packings")

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
        object.__setattr__(self, "_packings", {})

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

    def monomial_weight(self, exponents: tuple[int, ...]) -> int:
        w = self._weights.get(exponents)
        if w is None:
            w = sum(e * g.weight for e, g in zip(exponents, self.gens))
            self._weights[exponents] = w
        return w

    def packing(self, cap: int) -> "Packing":
        """The exponent packing for polynomials truncated at ``cap`` (built once per cap)."""
        p = self._packings.get(cap)
        if p is None:
            p = self._packings[cap] = Packing(self.gens, cap)
        return p

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


class Packing:
    """Exponent vectors of weight <= ``cap`` packed into one int, one bit field per generator.

    Generator ``i`` gets a field wide enough for ``cap // weight_i``.  Two
    vectors whose weights add up to at most ``cap`` add field by field with
    no carry, so their packed keys add as plain ints.  Both directions are
    memoized; the generators and the cap never change, so the memos are exact.

    >>> from anomcancel.genus import build_generator_table
    >>> p = build_generator_table(2, 0, True, 4).packing(4)
    >>> p.key((1, 0, 2)) + p.key((0, 1, 0)) == p.key((1, 1, 2))
    True
    >>> p.vector(p.key((0, 1, 0)))
    (0, 1, 0)
    """

    __slots__ = ("fields", "keys", "vectors")

    def __init__(self, gens: Sequence[Generator], cap: int):
        fields = []
        shift = 0
        for g in gens:
            bits = (cap // g.weight).bit_length()
            fields.append((shift, (1 << bits) - 1))
            shift += bits
        self.fields = tuple(fields)
        self.keys: dict[tuple[int, ...], int] = {}
        self.vectors: dict[int, tuple[int, ...]] = {}

    def key(self, exponents: tuple[int, ...]) -> int:
        k = self.keys.get(exponents)
        if k is None:
            k = sum(e << shift for e, (shift, _) in zip(exponents, self.fields))
            self.keys[exponents] = k
            self.vectors[k] = exponents
        return k

    def vector(self, key: int) -> tuple[int, ...]:
        v = self.vectors.get(key)
        if v is None:
            v = tuple((key >> shift) & mask for shift, mask in self.fields)
            self.vectors[key] = v
            self.keys[v] = key
        return v


def _zero_exps(n: int) -> tuple[int, ...]:
    return (0,) * n


class GradedPolynomial:
    """Sparse polynomial in weighted generators, truncated by total weight.

    Terms of weight above ``max_weight`` are discarded on every operation,
    so products agree with the exact product up to that weight.  Products
    go through :func:`dot`, which never visits a pair of terms whose weights
    add up to more than ``max_weight``.  Monomial weights come from the
    table, which computes each exponent vector's weight once.  Stored
    coefficients are nonzero ``Fraction``s; anything but an int or a
    ``Fraction`` is rejected with ``TypeError``.  Inside ``dot`` the
    coefficients are integer numerators over their least common
    denominator; that form is built on first use and kept on the
    (immutable) instance.
    """

    __slots__ = ("table", "terms", "max_weight", "_ints")

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
        object.__setattr__(self, "_ints", None)

    def __setattr__(self, name, value):
        raise AttributeError("GradedPolynomial is immutable")

    @staticmethod
    def _with_form(table: GeneratorTable, terms: dict[tuple[int, ...], Fraction], max_weight: int,
                   form) -> "GradedPolynomial":
        """A polynomial from checked terms (nonzero ``Fraction``s within the cap) and their int form."""
        self = object.__new__(GradedPolynomial)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "max_weight", max_weight)
        object.__setattr__(self, "_ints", form)
        return self

    def int_form(self) -> tuple[int, list[tuple[int, list[tuple[int, int]]]]]:
        """``(den, [(weight, [(key, numerator), ...]), ...])``, weights increasing.

        ``den`` is the least common denominator of the coefficients, each
        coefficient equals ``numerator / den``, and ``key`` is the exponent
        vector packed by ``table.packing(max_weight)``.
        """
        form = self._ints
        if form is None:
            den, nums = int_numerators(self.terms)
            key = self.table.packing(self.max_weight).key
            weight = self.table.monomial_weight
            groups: dict[int, list] = {}
            for e, n in nums.items():
                groups.setdefault(weight(e), []).append((key(e), n))
            form = (den, sorted(groups.items()))
            object.__setattr__(self, "_ints", form)
        return form

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

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GradedPolynomial.scalar(other, self.table, self.max_weight)
        _check_space(other, self.table, self.max_weight)
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

    def __neg__(self):
        return GradedPolynomial(self.table, {e: -c for e, c in self.terms.items()}, self.max_weight)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return dot([(self, other)], self.table, self.max_weight)

    __rmul__ = __mul__

    def dot(self, pairs) -> "GradedPolynomial":
        """``sum_i a_i * b_i`` in this polynomial's ring (see :func:`dot`)."""
        return dot(pairs, self.table, self.max_weight)

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
            return ((self.table is other.table or self.table == other.table)
                    and self.max_weight == other.max_weight and self.terms == other.terms)
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
        """Replace one generator by a homogeneous polynomial of equal weight (``self`` if no term has it)."""
        _check_space(replacement, self.table, self.max_weight)
        i = self.table.index(name)
        w = self.table.gens[i].weight
        if not replacement.is_homogeneous(w):
            raise AlgebraError(f"replacement for {name} must be homogeneous of weight {w}")
        if not any(exps[i] for exps in self.terms):
            return self
        rests: dict[int, dict[tuple[int, ...], Fraction]] = {}
        for exps, coeff in self.terms.items():
            rests.setdefault(exps[i], {})[exps[:i] + (0,) + exps[i + 1:]] = coeff
        powers = [self.one_like()]
        for _ in range(max(rests, default=0)):
            powers.append(powers[-1] * replacement)
        return self.dot([(GradedPolynomial(self.table, rest, self.max_weight), powers[e])
                         for e, rest in rests.items()])

    # -- basis change and rendering -----------------------------------------

    def to_standard_basis(self) -> "GradedPolynomial":
        """Rewrite in standard generators (Pontryagin classes, first Chern class).

        Each generator ``g`` satisfies ``g = std_factor * std_gen``; the result
        is expressed over a table of the standard names with the same weights.
        The map is a graded ring isomorphism and ``from_standard_basis``
        inverts it exactly.
        """
        std_table = self.table.standard_table
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


def int_numerators(terms: Mapping) -> tuple[int, dict]:
    """``(den, {key: numerator})``: ``Fraction`` values over their least common denominator.

    >>> int_numerators({0: Fraction(1, 2), 3: Fraction(-2, 3)})
    (6, {0: 3, 3: -4})
    """
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in terms.items()}


def _check_space(p: GradedPolynomial, table: GeneratorTable, cap: int):
    if p.table is not table and p.table != table:
        raise AlgebraError("generator table mismatch")
    if p.max_weight != cap:
        raise AlgebraError("truncation weight mismatch")


def dot(pairs: Sequence[tuple[GradedPolynomial, GradedPolynomial]], table: GeneratorTable,
        cap: int) -> GradedPolynomial:
    """``sum_i a_i * b_i`` for polynomial pairs ``(a_i, b_i)``, truncated at ``cap``.

    Every operand must live on ``table`` with ``max_weight == cap``.  Each
    operand enters through its integer form
    (:meth:`GradedPolynomial.int_form`); pair ``i`` has denominator
    ``d_i = den(a_i) * den(b_i)``, its left numerators are rescaled by
    ``D // d_i`` with ``D = lcm(d_i)``, and all pairs are accumulated as
    plain ints over ``D``, so each output coefficient is one
    ``Fraction(n, D)``.  Both operands are grouped by weight: a left group
    meets only the right groups that fit under ``cap``, and none once
    nothing fits.  Packed exponents add as ints (see :class:`Packing`), and
    the result keeps the integer form it was built from.

    >>> from anomcancel.genus import build_generator_table
    >>> t = build_generator_table(1, 0, True, 2)
    >>> w = GradedPolynomial.generator("w", t, 2)
    >>> dot([(w.scale(Fraction(1, 2)), w), (w.one_like().scale(3), w)], t, 2).to_text()
    '3*w + 1/2*w^2'
    """
    live = []
    den = 1
    for a, b in pairs:
        if a.table is not table or b.table is not table or a.max_weight != cap or b.max_weight != cap:
            _check_space(a, table, cap)
            _check_space(b, table, cap)
        da, left = a._ints or a.int_form()
        db, right = b._ints or b.int_form()
        if left and right:
            den = lcm(den, da * db)
            live.append((da * db, left, right))
    acc: dict[int, dict[int, int]] = {}
    for d, left, right in live:
        m = den // d
        for w1, group in left:
            for w2, g in right:
                if w1 + w2 > cap:
                    break
                out = acc.setdefault(w1 + w2, {})
                get = out.get
                for k1, n1 in group:
                    n1 *= m
                    for k2, n2 in g:
                        out[k1 + k2] = get(k1 + k2, 0) + n1 * n2
    groups = [(w, [item for item in out.items() if item[1]]) for w, out in sorted(acc.items())]
    groups = [(w, items) for w, items in groups if items]
    common = gcd(den, *(n for _, items in groups for _, n in items))
    if common > 1:
        den //= common
        groups = [(w, [(k, n // common) for k, n in items]) for w, items in groups]
    vector = table.packing(cap).vector
    terms = {vector(k): Fraction(n, den) for _, items in groups for k, n in items}
    return GradedPolynomial._with_form(table, terms, cap, (den, groups))


# -- polynomial-valued q-series in packed integer form ------------------------


class QColumns(NamedTuple):
    """A polynomial-valued q-series in transposed integer form, known through lattice ``bound``.

    ``cols[key][i] / den`` is the coefficient of the monomial packed as
    ``key`` (by the table's :class:`Packing` at the truncation weight) at
    lattice position ``i * step``; positions past the end of a list are
    zero.  A monomial with no nonzero position is absent.  ``bound`` is the
    last lattice position known; reading past it raises
    :class:`~anomcancel.qseries.TruncationError`.  ``bound=None`` marks an
    exact series, known everywhere: :data:`ONE`, or a single ``h_r``.
    """

    den: int
    step: int
    cols: dict[int, list[int]]
    bound: int | None = None

    def coefficient(self, k: int, table: GeneratorTable, cap: int) -> GradedPolynomial:
        """The coefficient at lattice ``k`` as a polynomial on ``table`` (zero off the lattice)."""
        if self.bound is not None and k > self.bound:
            from .qseries import require_known
            require_known(k, self.bound)
        i, off = divmod(k, self.step)
        vector = table.packing(cap).vector
        terms = {vector(key): Fraction(nums[i], self.den) for key, nums in self.cols.items()
                 if not off and 0 <= i < len(nums) and nums[i]}
        return GradedPolynomial._with_form(table, terms, cap, None)


ONE = QColumns(1, 1, {0: [1]})     # the exact unit: one position, so its step never matters


def field_width(positions: int, products: Sequence[tuple[int, int, int, int]]) -> int:
    """Bits per field for a sum of packed products, one more than any output |numerator| needs.

    ``products`` holds one ``(scalar_l1, pairs, max_left, max_right)`` per
    product: the L1 norm of its integer scalars, the most monomial pairs of
    its operands that can land on one output monomial, and each operand's
    largest |numerator|.  One output position sums at most ``positions``
    index pairs of one monomial pair, so every output |numerator| is at most
    ``positions * sum(scalar_l1 * pairs * max_left * max_right)``, and a
    field one bit wider than that bound's bit length holds it as a balanced
    residue.
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


def mul_sum(products) -> QColumns:
    """``sum (n/d) * x^t * a * b`` over ``(a, b, d, scatter)`` in ``products`` and ``(t, n)`` in ``scatter``.

    ``a`` and ``b`` are :class:`QColumns`, ``d`` is a positive int, and each
    ``(t, n)`` pairs a packed monomial key with an int.  The result works
    out its own lattice from the operands: its step is the gcd of the steps
    of the operands with more than one position (a single position sits on
    any step), its bound is the least bound of the truncated operands
    (``None`` when all are exact), and it holds every position the products
    reach, up to that bound, over one reduced denominator.  Every product's
    scalars are brought to integers over the lcm of all denominators, each
    operand's monomials are packed into one int with one field of
    :func:`field_width` bits per position (Kronecker substitution), so each
    monomial pair costs one big-int multiply, and each output monomial is
    unpacked once, field by field, by balanced residues.  Keys add as ints,
    so every ``t + key(a) + key(b)`` must stay within the truncation weight.

    >>> p = QColumns(1, 8, {0: [1, 1]})            # 1 + q, exact
    >>> mul_sum([(p, p, 2, [(0, 1)])])
    QColumns(den=2, step=8, cols={0: [1, 2, 1]}, bound=None)
    >>> mul_sum([(p, p._replace(bound=8), 1, [(0, 1)]), (ONE, ONE, 1, [(0, 1)])])
    QColumns(den=1, step=8, cols={0: [2, 2]}, bound=8)
    """
    step, bound, reach, live = 0, None, 0, []
    for a, b, d, scatter in products:
        na, nb = max(map(len, a.cols.values()), default=0), max(map(len, b.cols.values()), default=0)
        for c, n in ((a, na), (b, nb)):
            if n > 1:
                step = gcd(step, c.step)
            if c.bound is not None and (bound is None or c.bound < bound):
                bound = c.bound
        if na and nb:
            reach = max(reach, (na - 1) * a.step + (nb - 1) * b.step)
            live.append((a, b, a.den * b.den * d, scatter))
    step = step or 1
    count = (reach if bound is None else min(reach, bound)) // step + 1
    den = lcm(*(d for _, _, d, _ in live))
    jobs = [(a, b, [(t, n * (den // d)) for t, n in scatter if n]) for a, b, d, scatter in live]
    width = field_width(count, [(sum(abs(n) for _, n in ints), min(len(a.cols), len(b.cols)),
                                 _max_abs(a), _max_abs(b)) for a, b, ints in jobs])

    def pack(c: QColumns) -> list[tuple[int, int]]:
        spread = c.step // step or 1       # 0 only for a single position, where any spread will do
        top = (count - 1) // spread + 1
        return [(k, _pack(v[:top], width * spread)) for k, v in c.cols.items()]

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
    cols: dict[int, list[int]] = {}
    for k, x in acc.items():
        x = (x + bias) & low
        nums = [((x >> sh) & mask) - half for sh in shifts]
        if any(nums):
            cols[k] = nums
    common = gcd(den, *chain.from_iterable(cols.values()))
    if common > 1:
        den //= common
        cols = {k: [n // common for n in nums] for k, nums in cols.items()}
    return QColumns(den, step, cols, bound)
