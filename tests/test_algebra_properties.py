"""Property tests for the ring laws of ``GradedPolynomial`` over ``Fraction``."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from anomcancel.algebra import GradedPolynomial
from anomcancel.genus import build_generator_table

W = 4
# nM1, nM2 (tangent), nV1, nV2 (auxiliary) and the weight-1 line generator w
TABLE = build_generator_table(2, 2, True, W)
MONOMIALS = [e for e in product(range(W + 1), repeat=len(TABLE))
             if TABLE.monomial_weight(e) <= W]

term_maps = st.dictionaries(st.sampled_from(MONOMIALS),
                            st.fractions(min_value=-8, max_value=8, max_denominator=6),
                            max_size=6)
polys = term_maps.map(lambda terms: GradedPolynomial(TABLE, terms, W))

PROPERTY = settings(max_examples=60, deadline=None, database=None)


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


@PROPERTY
@given(polys, polys)
def test_standard_basis_roundtrip(a, b):
    std = a.to_standard_basis()
    assert std.from_standard_basis(TABLE) == a
    assert std.is_real()
    assert (a * b).to_standard_basis() == std * b.to_standard_basis()
