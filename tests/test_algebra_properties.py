"""Property tests for the ring laws of ``GradedPolynomial`` over ``Fraction``."""

from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from anomcancel.algebra import ONE, GradedPolynomial, QColumns, dot, field_width, mul_sum
from anomcancel.genus import build_generator_table, constraint_replacement
from helpers import naive_mul_sum, weighted_poly_mul

W = 4
# nM1, nM2 (tangent), nV1, nV2 (auxiliary) and the weight-1 line generator w
TABLE = build_generator_table(2, 2, True, W)
MONOMIALS = [e for e in product(range(W + 1), repeat=len(TABLE))
             if TABLE.monomial_weight(e) <= W]

coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
term_maps = st.dictionaries(st.sampled_from(MONOMIALS), coeffs, max_size=6)
polys = term_maps.map(lambda terms: GradedPolynomial(TABLE, terms, W))

PROPERTY = settings(max_examples=60, deadline=None, database=None)

# product oracle: generator weights read off the table, monomials up to weight 2W + 1
GEN_WEIGHTS = tuple(g.weight for g in TABLE.gens)


def _weight(e):
    return sum(x * g for x, g in zip(e, GEN_WEIGHTS))


POOL = [e for e in product(range(2 * W + 2), repeat=len(TABLE)) if _weight(e) <= 2 * W + 1]
AT_MOST = {c: st.sampled_from([e for e in POOL if _weight(e) <= c]) for c in range(2 * W + 1)}
ABOVE = {c: st.sampled_from([e for e in POOL if _weight(e) > c]) for c in range(2 * W + 1)}
pool_maps = st.dictionaries(st.sampled_from(POOL), coeffs, max_size=6)
nonzero = coeffs.filter(bool)


@st.composite
def straddling_operands(draw):
    """A cap in 0..2W and two term maps whose pairs fall both under and over it.

    Each operand gets a term of weight above the cap; the first operand's
    low term and the second's fit together under the cap.
    """
    cap = draw(st.integers(0, 2 * W))
    operands = []
    room = cap
    for _ in range(2):
        terms = draw(pool_maps)
        low = draw(AT_MOST[room])
        terms[low] = draw(nonzero)
        terms[draw(ABOVE[cap])] = draw(nonzero)
        operands.append(terms)
        room -= _weight(low)
    return cap, operands[0], operands[1]


@PROPERTY
@given(polys, polys)
def test_commutative(a, b):
    assert a + b == b + a
    assert a * b == b * a


@PROPERTY
@given(polys, polys, polys)
def test_associative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(polys, polys, polys)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a - b) * c == a * c - b * c


@PROPERTY
@given(term_maps, term_maps)
def test_truncation_by_weight(ta, tb):
    """The product truncated at W is the exact product with weights above W cut."""
    exact = GradedPolynomial(TABLE, ta, 2 * W) * GradedPolynomial(TABLE, tb, 2 * W)
    cut = GradedPolynomial(TABLE, ta, W) * GradedPolynomial(TABLE, tb, W)
    assert cut.terms == {e: c for e, c in exact.terms.items() if TABLE.monomial_weight(e) <= W}


@settings(max_examples=120, deadline=None, database=None)
@given(straddling_operands())
def test_product_matches_oracle(case):
    """``a*b`` equals the all-pairs oracle: no pair that fits under the cap is dropped."""
    cap, ta, tb = case
    got = GradedPolynomial(TABLE, ta, cap) * GradedPolynomial(TABLE, tb, cap)
    assert got.terms == weighted_poly_mul(ta, tb, GEN_WEIGHTS, cap)


@PROPERTY
@given(polys, polys)
def test_standard_basis_roundtrip(a, b):
    std = a.to_standard_basis()
    assert std.from_standard_basis(TABLE) == a
    assert std.is_real()
    assert (a * b).to_standard_basis() == std * b.to_standard_basis()


# -- the dot kernel against the all-pairs oracle ----------------------------------

# nonzero coefficients with mixed denominators up to 12
mixed_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12).filter(bool)
scalar_values = st.one_of(st.integers(-3, 3), st.fractions(min_value=-5, max_value=5, max_denominator=9))


@st.composite
def dot_cases(draw):
    """A cap and up to four pairs of term maps (possibly empty).

    Each left operand is scaled by a drawn scalar, which may be 0.  With
    some draws every pair shares the first pair's right operand, and with
    some a pair is repeated with its left operand negated, so that its
    products cancel exactly.
    """
    cap = draw(st.integers(0, 2 * W))

    def operand():
        """Up to four terms that fit under the cap, and maybe one above it."""
        terms = draw(st.dictionaries(AT_MOST[cap], mixed_coeffs, max_size=4))
        if draw(st.booleans()):
            terms[draw(ABOVE[cap])] = draw(mixed_coeffs)
        return terms

    def scaled(terms):
        s = draw(scalar_values)
        return {e: s * c for e, c in terms.items() if s}

    pairs = [(scaled(operand()), operand()) for _ in range(draw(st.integers(0, 4)))]
    if pairs and draw(st.booleans()):
        pairs = [(a, pairs[0][1]) for a, _ in pairs]
    if pairs and draw(st.booleans()):
        a, b = pairs[draw(st.integers(0, len(pairs) - 1))]
        pairs.append(({e: -c for e, c in a.items()}, b))
    return cap, pairs


def _oracle_dot(pairs, cap):
    out = {}
    for ta, tb in pairs:
        ta = {e: c for e, c in ta.items() if _weight(e) <= cap}
        tb = {e: c for e, c in tb.items() if _weight(e) <= cap}
        for e, c in weighted_poly_mul(ta, tb, GEN_WEIGHTS, cap).items():
            out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


@settings(max_examples=150, deadline=None, database=None)
@given(dot_cases())
def test_dot_matches_oracle(case):
    """``dot`` equals the sum of all-pairs products, and stores no zero."""
    cap, pairs = case
    made = {}    # equal term maps become one object, so pairs share operands

    def poly(terms):
        key = frozenset(terms.items())
        if key not in made:
            made[key] = GradedPolynomial(TABLE, terms, cap)
        return made[key]

    polys = [(poly(ta), poly(tb)) for ta, tb in pairs]
    got = dot(polys, TABLE, cap)
    want = _oracle_dot(pairs, cap)
    assert got.terms == want
    assert all(type(c) is Fraction and c for c in got.terms.values())
    # the integer form the kernel hands on equals the one built from the stored terms
    assert got.int_form() == GradedPolynomial(TABLE, got.terms, cap).int_form()
    if pairs:
        # ... and feeds a further product correctly, summed with another left operand
        a, b = polys[0]
        two_thirds = a.scale(Fraction(2, 3))
        again = dot([(got, b), (two_thirds, b)], TABLE, cap)
        assert again.terms == _oracle_dot([(want, b.terms), (two_thirds.terms, b.terms)], cap)


@PROPERTY
@given(polys)
def test_dot_of_nothing_and_of_empty_operands(a):
    zero = GradedPolynomial.zero(TABLE, W)
    assert dot([], TABLE, W) == zero
    assert dot([(a, zero), (zero, a)], TABLE, W) == zero
    assert dot([(a.scale(0), a.one_like())], TABLE, W) == zero


# -- substitute against a term-by-term oracle --------------------------------------


def _oracle_power(terms, e, cap):
    out = {(0,) * len(TABLE): Fraction(1)}
    for _ in range(e):
        out = weighted_poly_mul(out, terms, GEN_WEIGHTS, cap)
    return out


def _oracle_substitute(terms, i, repl, cap):
    out = {}
    for exps, c in terms.items():
        rest = {exps[:i] + (0,) + exps[i + 1:]: c}
        for e, v in weighted_poly_mul(rest, _oracle_power(repl, exps[i], cap), GEN_WEIGHTS, cap).items():
            out[e] = out.get(e, Fraction(0)) + v
    return {e: c for e, c in out.items() if c}


@PROPERTY
@given(st.sampled_from(["spinc4k", "spinc4k2"]), st.dictionaries(st.sampled_from(MONOMIALS),
                                                               mixed_coeffs, max_size=8))
def test_substitute_matches_oracle(kind, terms):
    p = GradedPolynomial(TABLE, terms, W)
    name, repl = constraint_replacement(kind, TABLE, W)
    got = p.substitute(name, repl)
    assert got.terms == _oracle_substitute(p.terms, TABLE.index(name), repl.terms, W)
    assert all(got.terms.values())


# -- the packed multiply-and-sum against a position-by-position convolution ---------

wide_numerators = st.integers(-2 ** 256, 2 ** 256)


@st.composite
def packed_cases(draw):
    """Up to three products of packed series on a step of 4 or 8 and up to 40 positions.

    Operand steps are the step or twice it, lists may stop short of the last
    position or run past it, denominators go up to 10^6, and each operand is
    exact or known through a bound of its own.  With some draws a product is
    repeated with negated scalars, or everything is, so that its pairs
    cancel to exactly zero.
    """
    step = draw(st.sampled_from([4, 8]))
    count = draw(st.integers(1, 40))

    def operand():
        own = draw(st.sampled_from([step, 2 * step]))
        cols = draw(st.dictionaries(st.integers(0, 3), st.lists(wide_numerators, min_size=1, max_size=count),
                                    max_size=3))
        bound = draw(st.none() | st.integers(0, 2 * count * step))
        return QColumns(draw(st.integers(1, 10 ** 6)), own, cols, bound)

    def scatter():
        return draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-2 ** 64, 2 ** 64)), max_size=3))

    products = [(operand(), operand(), draw(st.integers(1, 10 ** 6)), scatter())
                for _ in range(draw(st.integers(0, 3)))]
    if products and draw(st.booleans()):
        a, b, d, sc = products[draw(st.integers(0, len(products) - 1))]
        products.append((a, b, d, [(t, -n) for t, n in sc]))
    if draw(st.booleans()):
        products += [(a, b, d, [(t, -n) for t, n in sc]) for a, b, d, sc in products]
    return products


def _as_terms(c: QColumns) -> dict[tuple[int, int], Fraction]:
    return {(k, i * c.step): Fraction(n, c.den) for k, nums in c.cols.items() for i, n in enumerate(nums) if n}


_EXACT = QColumns(3, 8, {0: [1, 2], 1: [0, 5]})                      # exact, two positions on step 8
_KNOWN = QColumns(5, 4, {0: [7, -1, 2, 0, 4, 9, 1], 2: [3]}, 16)     # known through lattice 16
_H = QColumns(2, 1, {1: [-3]})                                       # an exact single-position h_r


@settings(max_examples=150, deadline=None, database=None)
@given(packed_cases())
@example([(_EXACT, _KNOWN, 7, [(0, 1), (2, -3)])])
@example([(_KNOWN, _H, 1, [(0, 5)]), (_EXACT, ONE, 2, [(1, 1)])])
@example([(_EXACT, _H, 1, [(0, 1)]), (_EXACT, _EXACT, 3, [(0, -2)])])
@example([(_H, ONE, 1, [(0, 1)]), (_KNOWN._replace(cols={0: [4]}, step=12), _H, 1, [(0, 1)])])
def test_packed_mul_sum_matches_naive_convolution(products):
    """Packed products equal the Fraction convolution, over a reduced denominator, with no
    all-zero monomial and no entry past the bound.  The step is the gcd of the steps of the
    operands with more than one position, and the bound the least bound of the truncated
    operands, so an exact operand leaves it to the others."""
    got = mul_sum(products)
    operands = [c for a, b, _, _ in products for c in (a, b)]
    spans = [c.step for c in operands if any(len(nums) > 1 for nums in c.cols.values())]
    bound = min((c.bound for c in operands if c.bound is not None), default=None)
    assert got.bound == bound
    if spans:
        assert got.step == gcd(*spans)
    top = 2 * 40 * 16 if bound is None else bound     # past every position an exact product reaches
    triples = [(a[:3], b[:3], d, sc) for a, b, d, sc in products]     # the oracle reads no bound
    assert _as_terms(got) == naive_mul_sum(triples, got.step, top // got.step + 1)
    assert all(any(nums) and (len(nums) - 1) * got.step <= top for nums in got.cols.values())
    assert gcd(got.den, *(n for nums in got.cols.values() for n in nums)) == 1


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("step", [4, 8])
def test_packed_mul_sum_at_full_width(step, sign):
    """Every numerator at the maximum with one sign: at its last position the monomial that
    two pairs reach, times both scalars, meets the width rule's bound exactly, so a field
    one bit narrower could not hold it."""
    count, top = 40, 2 ** 256 - 1
    a = QColumns(1, step, {0: [sign * top] * count, 1: [sign * top] * count}, (count - 1) * step)
    b = QColumns(1, step, {0: [top] * count, 1: [top] * count}, (count - 1) * step)
    products = [(a, b, 1, [(0, 1), (0, 2)])]
    got = mul_sum(products)
    assert (got.step, got.bound, len(got.cols[1])) == (step, (count - 1) * step, count)
    bound = count * 3 * 2 * top * top
    assert got.cols[1][-1] == sign * bound
    assert field_width(count, [(3, 2, top, top)]) == bound.bit_length() + 1
    assert _as_terms(got) == naive_mul_sum([(a[:3], b[:3], 1, [(0, 1), (0, 2)])], step, count)
