"""Property tests for the ring laws of ``GradedPolynomial`` over ``Fraction``."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from anomcancel.algebra import GradedPolynomial
from anomcancel.genus import build_generator_table
from helpers import weighted_poly_mul

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
