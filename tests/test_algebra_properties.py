"""Property tests for the ring laws of ``GradedPolynomial`` over ``Fraction``, and for its canonical int form."""

from fractions import Fraction
from itertools import product
from math import gcd

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from anomcancel import algebra
from anomcancel.algebra import ONE, GeneratorTable, GradedPolynomial, QColumns, dot, exp_by_grade, field_width, mul_sum
from anomcancel.genus import build_generator_table, constraint_replacement
from anomcancel.kvirt import adams
from helpers import naive_combination, naive_mul_sum, naive_rescale, polynomial_text, weighted_poly_mul

W = 4
# nM1, nM2 (tangent), nV1, nV2 (auxiliary) and the weight-1 line generator w
TABLE = build_generator_table(2, 2, True, W)
# generator weights read off the table: the tests' own weight sum, not the packing under test
GEN_WEIGHTS = tuple(g.weight for g in TABLE.gens)


def _weight(e):
    return sum(x * g for x, g in zip(e, GEN_WEIGHTS))


MONOMIALS = [e for e in product(range(W + 1), repeat=len(TABLE)) if _weight(e) <= W]

coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=6)
term_maps = st.dictionaries(st.sampled_from(MONOMIALS), coeffs, max_size=6)
polys = term_maps.map(lambda terms: GradedPolynomial(TABLE, terms))

PROPERTY = settings(max_examples=60, deadline=None, database=None)

# product oracle: monomials up to weight 2W + 1
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


def assert_canonical(p: GradedPolynomial):
    """``den >= 1``, int numerators, none zero, ``gcd(den, *nums) == 1``, every monomial within the cap."""
    assert type(p.den) is int and p.den >= 1
    assert all(type(n) is int and n for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    assert all(_weight(e) <= p.table.cap for e in p.terms)


@PROPERTY
@given(term_maps)
def test_packed_form_round_trips(terms):
    """``QColumns.of`` is the door into the packed form and ``coefficient`` the door out."""
    p = GradedPolynomial(TABLE, terms)
    c = QColumns.of(p)
    back = c.coefficient(0)
    assert c.bound is None and c.table is TABLE and back == p
    assert mul_sum([(c, ONE, 1, [(0, 1)])]) == c      # a product of single positions stays one position
    assert_canonical(back)
    assert back.terms == naive_combination([(1, terms)])
    assert c.coefficient(8) == GradedPolynomial.zero(TABLE)


@PROPERTY
@given(term_maps, term_maps, st.integers(0, W), st.integers(1, 4),
       st.fractions(min_value=-5, max_value=5, max_denominator=12))
def test_ring_operations_stay_canonical_and_match_the_term_oracle(ta, tb, weight, m, s):
    """Each operation's result is reduced over one positive denominator and reads as the ``Fraction`` oracle."""
    a, b = GradedPolynomial(TABLE, ta), GradedPolynomial(TABLE, tb)
    cases = [(a + b, naive_combination([(1, ta), (1, tb)])),
             (a - b, naive_combination([(1, ta), (-1, tb)])),
             (a - a, {}),
             (-a, naive_combination([(-1, ta)])),
             (a.component(weight), naive_rescale(ta, lambda e: 1 if _weight(e) == weight else 0)),
             (adams(a, m), naive_rescale(ta, lambda e: m ** _weight(e)))]
    cases += [(a.scale(c), naive_combination([(c, ta)])) for c in (0, 1, -1, s, a.den)]
    for got, want in cases:
        assert_canonical(got)
        assert got.terms == want


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
    wide = GeneratorTable(TABLE.gens, 2 * W)
    exact = GradedPolynomial(wide, ta) * GradedPolynomial(wide, tb)
    cut = GradedPolynomial(TABLE, ta) * GradedPolynomial(TABLE, tb)
    assert cut.terms == {e: c for e, c in exact.terms.items() if _weight(e) <= W}


@settings(max_examples=120, deadline=None, database=None)
@given(straddling_operands())
def test_product_matches_oracle(case):
    """``a*b`` equals the all-pairs oracle: no pair that fits under the cap is dropped."""
    cap, ta, tb = case
    table = GeneratorTable(TABLE.gens, cap)
    got = GradedPolynomial(table, ta) * GradedPolynomial(table, tb)
    assert got.terms == weighted_poly_mul(ta, tb, GEN_WEIGHTS, cap)


def _standard_factor(e):
    out = Fraction(1)
    for x, g in zip(e, TABLE.gens):
        out *= g.std_factor ** x
    return out


@PROPERTY
@given(term_maps, polys)
def test_standard_basis_roundtrip(terms, b):
    a = GradedPolynomial(TABLE, terms)
    std = a.to_standard_basis()
    assert std.terms.keys() == a.terms.keys()      # each monomial rescaled by a nonzero scalar
    assert all(type(c) is Fraction for c in std.terms.values())
    assert_canonical(std)
    assert std.terms == naive_rescale(terms, _standard_factor)
    assert (a * b).to_standard_basis() == std * b.to_standard_basis()


# integer, unit and negative coefficients next to fractions
text_coeffs = st.one_of(st.sampled_from([1, -1, 2, -3]), coeffs)


@settings(max_examples=40, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(MONOMIALS), text_coeffs, max_size=6))
@example({})
@example({(0,) * len(TABLE): 1, (1, 0, 0, 0, 0): -1, (0, 0, 0, 0, 1): Fraction(-7, 4)})
def test_text_matches_the_fraction_renderer(terms):
    """``to_text`` and the JSON ``re`` entries print each coefficient as ``str(Fraction)``, in both bases."""
    a = GradedPolynomial(TABLE, terms)
    names = [g.name for g in TABLE.gens]
    assert a.to_text() == polynomial_text(terms, names, GEN_WEIGHTS)
    std = naive_rescale(terms, _standard_factor)
    assert a.to_standard_basis().to_text() == polynomial_text(std, [g.std_name for g in TABLE.gens], GEN_WEIGHTS)
    order = sorted((e for e, c in terms.items() if c), key=lambda e: (_weight(e), e))
    assert [t["re"] for t in a.to_json_obj()] == [str(Fraction(terms[e])) for e in order]


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
    table = GeneratorTable(TABLE.gens, cap)
    made = {}    # equal term maps become one object, so pairs share operands

    def poly(terms):
        key = frozenset(terms.items())
        if key not in made:
            made[key] = GradedPolynomial(table, terms)
        return made[key]

    polys = [(poly(ta), poly(tb)) for ta, tb in pairs]
    got = dot(polys, table)
    want = _oracle_dot(pairs, cap)
    assert got.terms == want
    assert all(type(c) is Fraction and c for c in got.terms.values())
    assert_canonical(got)
    # the integer form the kernel hands on equals the one built from the stored terms
    assert got.int_form() == GradedPolynomial(table, got.terms).int_form()
    # with floor = cap only the pairs of the top weight are multiplied: the oracle's weight-cap part
    top = dot(polys, table, floor=cap)
    assert top.terms == {e: c for e, c in want.items() if _weight(e) == cap}
    assert_canonical(top)
    if pairs:
        # ... and feeds a further product correctly, summed with another left operand
        a, b = polys[0]
        two_thirds = a.scale(Fraction(2, 3))
        again = dot([(got, b), (two_thirds, b)], table)
        assert again.terms == _oracle_dot([(want, b.terms), (two_thirds.terms, b.terms)], cap)


@PROPERTY
@given(polys)
def test_dot_of_nothing_and_of_empty_operands(a):
    zero = GradedPolynomial.zero(TABLE)
    assert dot([], TABLE) == zero
    assert dot([(a, zero), (zero, a)], TABLE) == zero
    assert dot([(a.scale(0), a.one_like())], TABLE) == zero


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
    p = GradedPolynomial(TABLE, terms)
    name, repl = constraint_replacement(kind, TABLE)
    got = p.substitute(name, repl)
    assert got.terms == _oracle_substitute(p.terms, TABLE.index(name), repl.terms, W)
    assert all(got.terms.values())
    assert_canonical(got)


@st.composite
def substitutions(draw):
    """A generator, a homogeneous replacement of its weight, and a polynomial with that generator squared."""
    name = draw(st.sampled_from(["nM1", "nV1", "w"]))
    i = TABLE.index(name)
    same_weight = [e for e in MONOMIALS if _weight(e) == TABLE.gens[i].weight]
    repl = draw(st.dictionaries(st.sampled_from(same_weight), mixed_coeffs, min_size=1, max_size=3))
    terms = draw(st.dictionaries(st.sampled_from(MONOMIALS), mixed_coeffs, max_size=6))
    terms[tuple(2 if j == i else 0 for j in range(len(TABLE)))] = draw(mixed_coeffs)
    return name, repl, terms


@PROPERTY
@given(substitutions())
def test_substitute_drops_the_weight_field_with_the_power(case):
    """Each key's top field is its vector's weight after a substitution, and the result is the oracle's."""
    name, repl, terms = case
    got = GradedPolynomial(TABLE, terms).substitute(name, GradedPolynomial(TABLE, repl))
    packing = TABLE.packing
    assert all(k >> packing.top == _weight(packing.vector(k)) for k in got.nums)
    assert got.terms == _oracle_substitute(terms, TABLE.index(name), repl, W)
    assert_canonical(got)


# -- the packed monomial key -------------------------------------------------------


@PROPERTY
@given(st.integers(0, 2 * W).flatmap(lambda cap: st.tuples(st.just(cap), AT_MOST[cap], AT_MOST[cap])))
def test_packed_key_holds_the_vector_and_its_weight(case):
    """A key reads back as its vector, its top field is the weight, 1 packs to 0, and keys add
    as their vectors do whenever the two weights add up to at most the cap."""
    cap, a, b = case
    packing = GeneratorTable(TABLE.gens, cap).packing
    for e in (a, b):
        assert packing.vector(packing.key(e)) == e
        assert packing.key(e) >> packing.top == _weight(e)
    assert packing.key((0,) * len(TABLE)) == 0
    if _weight(a) + _weight(b) <= cap:
        assert packing.key(a) + packing.key(b) == packing.key(tuple(x + y for x, y in zip(a, b)))


# -- the packed multiply-and-sum against a position-by-position convolution ---------

wide_numerators = st.integers(-2 ** 256, 2 ** 256)


@st.composite
def packed_cases(draw):
    """Up to three products of packed series on a step of 4 or 8 and up to 40 positions.

    Operand steps are the step or twice it, lists may stop short of the last
    position or run past it, denominators go up to 10^6, and each operand is
    exact or known through a bound of its own.  Two in five operands sit at
    a single position: ``ONE`` with a bound, or monomials of any key with one
    numerator each, so that packed and direct products meet in one sum.
    With some draws a product is repeated with negated scalars, or everything
    is, so that its pairs cancel to exactly zero.
    """
    step = draw(st.sampled_from([4, 8]))
    count = draw(st.integers(1, 40))

    def operand():
        own = draw(st.sampled_from([step, 2 * step]))
        bound = draw(st.none() | st.integers(0, 2 * count * step))
        shape = draw(st.sampled_from(["spread", "spread", "spread", "single", "one"]))
        if shape == "one":
            return ONE._replace(bound=bound)
        length = count if shape == "spread" else 1
        cols = draw(st.dictionaries(st.integers(0, 3), st.lists(wide_numerators, min_size=1, max_size=length),
                                    max_size=3))
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
_SQUARE = QColumns(9, 8, {0: [1, 4, 4], 1: [0, 10, 20], 2: [0, 0, 25]})   # _EXACT times itself


@settings(max_examples=400, deadline=None, database=None)
@given(packed_cases())
@example([(_EXACT, _KNOWN, 7, [(0, 1), (2, -3)])])
@example([(_KNOWN, _H, 1, [(0, 5)]), (_EXACT, ONE, 2, [(1, 1)])])
@example([(_EXACT, _H, 1, [(0, 1)]), (_EXACT, _EXACT, 3, [(0, -2)])])
@example([(_H, ONE, 1, [(0, 1)]), (_KNOWN._replace(cols={0: [4]}, step=12), _H, 1, [(0, 1)])])
# packed and direct products on the same output monomials: all cancel, key 1 cancels, none cancels
@example([(_EXACT, _EXACT, 1, [(0, 1)]), (ONE, _SQUARE, 1, [(0, -1)])])
@example([(_EXACT, _EXACT, 1, [(0, 1)]), (_SQUARE._replace(cols={1: [0, 10, 20]}), ONE, 1, [(0, -1)])])
@example([(_EXACT, _KNOWN, 7, [(0, 1)]), (_H, _KNOWN, 3, [(0, 2)]), (_KNOWN, ONE._replace(bound=8), 1, [(2, -1)])])
# a single x single product meets a packed and a spread one on key 0, and cancels their sum at q^0
@example([(_EXACT, _EXACT, 1, [(0, 1)]), (ONE, _EXACT, 2, [(0, -1)]), (ONE, ONE._replace(bound=16), 18, [(0, 1)])])
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


def test_single_position_products_are_not_packed(monkeypatch):
    """A call whose every product has a single-position side scales lists: it never packs and needs no width."""
    products = [(_KNOWN, _H, 1, [(0, 5)]), (ONE, _EXACT, 2, [(1, 1)]), (_H, ONE._replace(bound=16), 3, [(2, -1)])]
    want = naive_mul_sum([(a[:3], b[:3], d, sc) for a, b, d, sc in products], 4, 5)

    def refuse(*args):
        raise AssertionError("a single-position product was packed")
    monkeypatch.setattr(algebra, "_pack", refuse)
    monkeypatch.setattr(algebra, "field_width", refuse)
    got = mul_sum(products)
    assert (got.step, got.bound) == (4, 16) and _as_terms(got) == want


def test_exp_by_grade_pieces_are_powers_over_factorials():
    """``exp(c * nM1)`` by grade is ``c^n nM1^n / n!`` for ``n = 0..cap // 2``, every piece on the table."""
    table = build_generator_table(2, 0, False, 4)
    c = QColumns(1, 8, {0: [1, 1]}, 16)                    # 1 + q, known through q^2
    pieces = exp_by_grade([(1, c, 1, [(table.packing.key((1, 0)), 1)])], table, 16)
    nm1 = GradedPolynomial.generator("nM1", table)
    want = [[1, 0, 0], [nm1, nm1, 0], [nm1 * nm1 * Fraction(1, 2), nm1 * nm1, nm1 * nm1 * Fraction(1, 2)]]
    assert [[f.coefficient(8 * i) for i in range(3)] for f in pieces] == want
    assert all(f.table == table and f.bound == 16 for f in pieces)


def test_a_direct_product_cancels_a_packed_one():
    """The packed square of ``_EXACT`` less the same square taken directly is exactly zero."""
    got = mul_sum([(_EXACT, _EXACT, 1, [(0, 1)]), (ONE, _SQUARE, 1, [(0, -1)])])
    assert got == QColumns(1, 8, {}, None)


def test_a_bound_below_q0_leaves_no_position():
    """A bound below lattice 0 gives an empty sum, packed or not."""
    p = QColumns(1, 8, {0: [1, 1]}, -24)
    for products in ([(p, p, 1, [(0, 1)])], [(p, ONE, 1, [(0, 1)])], [(p, p, 1, [(0, 1)]), (ONE, p, 2, [(1, 1)])]):
        assert mul_sum(products) == QColumns(1, 8, {}, -24)
