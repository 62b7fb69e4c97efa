import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomcancel.algebra import ONE, AlgebraError, GradedPolynomial, QColumns, mul_sum
from anomcancel.genus import build_generator_table
from anomcancel.modforms import delta_eps
from anomcancel.qseries import PuiseuxSeries, TruncationError


def S(terms, bound=80):
    return PuiseuxSeries({k: Fraction(v) for k, v in terms.items()}, bound, Fraction(0))


def P(terms, bound=80):
    """A packed ``Fraction`` series on step 1: one integer column over denominator 1."""
    nums = [0] * (max(terms, default=0) + 1)
    for k, v in terms.items():
        nums[k] = v
    return QColumns(1, 1, {0: nums}, bound)


def difference(a, b):
    """``a - b`` as the library takes a difference: one ``mul_sum``, read as a view."""
    return PuiseuxSeries.from_packed(mul_sum([(a, ONE, 1, [(0, 1)]), (b, ONE, 1, [(0, -1)])]), Fraction(0))


def test_lattice_multiplication():
    t = P({4: 1})          # q^{1/2}
    one = P({0: 1})
    assert S({0: 1, 4: 1}) * S({0: 1, 4: -1}) == S({0: 1, 8: -1})
    assert difference(one, P({0: 1, 4: 2}, bound=40)).terms == {4: -2} and difference(one, t).order_bound == 80
    assert difference(P({0: 1, 60: 1}), P({0: 1}, bound=40)) == S({}, bound=40)   # the lower bound wins
    assert S({1: 1}) * S({1: 1}) == S({2: 1}, bound=81)
    # (2 q^{1/8})^4 (1+q) = 16 q^{1/2} + 16 q^{3/2}
    m = S({1: 2})
    assert (m * m * m * m) * S({0: 1, 8: 1}) == PuiseuxSeries({4: Fraction(16), 12: Fraction(16)}, 83, Fraction(0))


def test_coefficient_contract():
    f = S({0: 1, 8: 6}, bound=8)
    assert f.coefficient(8) == Fraction(6)
    assert f.coefficient(3) == Fraction(0)
    with pytest.raises(TruncationError):
        f.coefficient(12)
    # the published q-coefficient of the first generator
    assert delta_eps("delta1", 4).coefficient(8) == Fraction(6)


def test_packed_series_edge_and_read():
    """``from_packed`` keeps the packed bound; the packed read is zero off the lattice and
    inside its lists' ends, and raises past the bound; an exact series reads zero anywhere."""
    table = build_generator_table(1, 0, True, 2)
    zero = GradedPolynomial.zero(table, 2)
    w2 = table.packing(2).key((0, 2))
    c = QColumns(6, 4, {0: [3, 0, -2], w2: [0, 4]}, 12)
    f = PuiseuxSeries.from_packed(c, zero=zero)
    assert f.order_bound == 12 and f.to_text() == "1/2 + 2/3*w^2*q^(1/2) + -1/3*q"
    assert [c.coefficient(k, table, 2) for k in (-4, 2, 12)] == [zero] * 3
    with pytest.raises(TruncationError):
        c.coefficient(16, table, 2)
    assert PuiseuxSeries.from_packed(c, zero=Fraction(0)) == S({0: Fraction(1, 2), 8: Fraction(-1, 3)}, bound=12)
    assert ONE.coefficient(800, table, 2) == zero


def test_mul_associative_commutative_randomized():
    rng = random.Random(21)
    for _ in range(10):
        fs = [S({k: rng.randint(-3, 3) for k in range(0, 20, rng.choice([1, 2, 4]))}, bound=30)
              for _ in range(3)]
        a, b, c = fs
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def _polynomial_series():
    t = build_generator_table(2, 1, False, 4)
    return PuiseuxSeries({0: GradedPolynomial.one(t, 4)}, 8, GradedPolynomial.zero(t, 4))


def test_ring_mismatch_rejected():
    gp_series = _polynomial_series()
    for a, b in ((gp_series, S({0: 1})), (S({0: 1}), gp_series)):
        with pytest.raises(AlgebraError, match="Fraction series only"):
            a * b
        with pytest.raises(TypeError):
            a - b


def test_polynomial_series_have_no_arithmetic():
    """A polynomial-valued series is a view: its product raises, it has no difference, and its terms are read."""
    gp_series = _polynomial_series()
    with pytest.raises(AlgebraError, match="read a polynomial series' terms"):
        gp_series * gp_series
    with pytest.raises(TypeError):
        gp_series - gp_series
    for gone in ("__add__", "__sub__", "__neg__", "scale", "constant", "map_coefficients", "exponents",
                 "leading_exponent", "is_zero"):
        assert not hasattr(PuiseuxSeries, gone), gone


def test_truncation_metadata_under_mul():
    f = S({0: 1}, bound=16)
    g = S({4: 1}, bound=8)
    assert (f * g).order_bound == 8  # min(16 + 4, 8 + 0): the shorter operand wins


def _naive_product(a: PuiseuxSeries, b: PuiseuxSeries):
    """All-pairs ``Fraction`` convolution and the leading-exponent bound rule."""
    bound = min(a.order_bound + min(b.terms, default=b.order_bound + 1),
                b.order_bound + min(a.terms, default=a.order_bound + 1))
    out = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            if k1 + k2 <= bound:
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
    return {k: c for k, c in out.items() if c}, bound


scalar_coeffs = st.fractions(min_value=-6, max_value=6, max_denominator=10).filter(bool)


@st.composite
def scalar_series(draw):
    """A ``Fraction`` series on the 1/8, 1/2 or integer lattice, from a shifted start."""
    step = draw(st.sampled_from([1, 4, 8]))
    start = draw(st.sampled_from([-4, -1, 0, 1, 4]))
    bound = start + draw(st.integers(0, 40))
    positions = st.integers(0, (bound - start) // step).map(lambda i: start + i * step)
    terms = draw(st.dictionaries(positions, scalar_coeffs, max_size=8))
    return PuiseuxSeries(terms, bound, Fraction(0))


def _plus_shifted(a: PuiseuxSeries, s: Fraction) -> PuiseuxSeries:
    """``a + s * q^(1/2) * a``, the shifted terms cut back to ``a``'s own order bound."""
    terms = dict(a.terms)
    for k, c in a.terms.items():
        if k + 4 <= a.order_bound:
            terms[k + 4] = terms.get(k + 4, 0) + s * c
    return PuiseuxSeries(terms, a.order_bound, Fraction(0))


@settings(max_examples=150, deadline=None, database=None)
@given(scalar_series(), scalar_series(), st.booleans())
def test_scalar_product_matches_naive_convolution(a, b, cancel):
    if cancel:
        # (a + x*a/3) * (b - x*b/3) with x = q^(1/2): the cross terms cancel exactly;
        # the shifted terms are cut back to the series' own order bound
        b = _plus_shifted(b, Fraction(-1, 3))
        a = _plus_shifted(a, Fraction(1, 3))
    want, bound = _naive_product(a, b)
    got = a * b
    assert got.order_bound == bound
    assert got.terms == want
    assert all(type(c) is Fraction and c for c in got.terms.values())


def test_scalar_product_cancels_to_zero():
    one_minus_h = S({0: 1, 4: Fraction(-1, 2)}, bound=40)
    assert (S({0: 1, 4: Fraction(1, 2)}, bound=40) * one_minus_h).terms == {0: Fraction(1), 8: Fraction(-1, 4)}
    lead = S({1: Fraction(3, 8), 9: Fraction(-5, 6)}, bound=33)
    assert not lead * S({}, bound=33)
    assert (lead * S({}, bound=33)).order_bound == 33 + 1   # the empty operand's lead is 34
