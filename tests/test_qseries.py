import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomcancel.algebra import AlgebraError
from anomcancel.modforms import delta_eps
from anomcancel.qseries import PuiseuxSeries, RingMismatchError, TruncationError


def S(terms, bound=80):
    return PuiseuxSeries({k: Fraction(v) for k, v in terms.items()}, bound, Fraction(0))


def test_lattice_multiplication():
    t = S({4: 1})          # q^{1/2}
    one = S({0: 1})
    assert (one + t) * (one - t) == S({0: 1, 8: -1})
    assert S({1: 1}) * S({1: 1}) == S({2: 1}, bound=81)
    # (2 q^{1/8})^4 (1+q) = 16 q^{1/2} + 16 q^{3/2}
    m = S({1: 2})
    assert (m ** 4) * S({0: 1, 8: 1}) == PuiseuxSeries({4: Fraction(16), 12: Fraction(16)}, 83, Fraction(0))


def test_pow():
    assert S({0: 1, 8: 1}) ** 2 == S({0: 1, 8: 2, 16: 1})
    assert S({4: 1}) ** 3 == PuiseuxSeries({12: 1}, 88, Fraction(0))
    sq = S({0: -1, 4: -24}) ** 2
    assert sq.coefficient(0) == 1
    assert sq.coefficient(4) == Fraction(48)
    assert sq.coefficient(8) == Fraction(576)


def test_coefficient_contract():
    f = S({0: 1, 8: 6}, bound=8)
    assert f.coefficient(8) == Fraction(6)
    assert f.coefficient(3) == Fraction(0)
    with pytest.raises(TruncationError):
        f.coefficient(12)
    # the published q-coefficient of the first generator
    assert delta_eps("delta1", 4).coefficient(8) == Fraction(6)


def test_sign_flip():
    f = S({0: 1, 4: 1})
    assert f.sign_flip() == S({0: 1, 4: -1})
    g = S({0: 1, 8: 1})
    assert g.sign_flip() == g
    d2ish = S({0: Fraction(-1, 8), 4: -3})
    assert d2ish.sign_flip() == S({0: Fraction(-1, 8), 4: 3})
    with pytest.raises(AlgebraError):
        S({1: 1}).sign_flip()


def test_sign_flip_involution_and_homomorphism():
    rng = random.Random(9)
    for _ in range(10):
        f = S({4 * k: rng.randint(-3, 3) for k in range(6)})
        g = S({4 * k: rng.randint(-3, 3) for k in range(6)})
        assert f.sign_flip().sign_flip() == f
        assert (f * g).sign_flip() == f.sign_flip() * g.sign_flip()
        assert (f + g).sign_flip() == f.sign_flip() + g.sign_flip()


def test_mul_associative_commutative_randomized():
    rng = random.Random(21)
    for _ in range(10):
        fs = [S({k: rng.randint(-3, 3) for k in range(0, 20, rng.choice([1, 2, 4]))}, bound=30)
              for _ in range(3)]
        a, b, c = fs
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a


def test_ring_mismatch_rejected():
    from anomcancel.algebra import GradedPolynomial
    from anomcancel.genus import build_generator_table
    t = build_generator_table(2, 1, False, 4)
    gp_series = PuiseuxSeries.constant(GradedPolynomial.one(t, 4), 8, GradedPolynomial.zero(t, 4))
    with pytest.raises(RingMismatchError):
        gp_series + S({0: 1})


def test_truncation_metadata_under_mul():
    f = S({0: 1}, bound=16)
    g = S({4: 1}, bound=8)
    assert (f * g).order_bound == 8  # min(16 + 4, 8 + 0): the shorter operand wins


def test_negative_power_is_rejected():
    with pytest.raises(AlgebraError):
        S({0: 1, 8: -1}) ** -1


def _naive_product(a: PuiseuxSeries, b: PuiseuxSeries):
    """All-pairs ``Fraction`` convolution and the leading-exponent bound rule."""
    bound = min(a.order_bound + b.leading_exponent(), b.order_bound + a.leading_exponent())
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


@settings(max_examples=150, deadline=None, database=None)
@given(scalar_series(), scalar_series(), st.booleans())
def test_scalar_product_matches_naive_convolution(a, b, cancel):
    if cancel:
        # (a + x*a/3) * (b - x*b/3) with x = q^(1/2): the cross terms cancel exactly
        b = b + b.shift(4).truncate(b.order_bound).scale(Fraction(-1, 3))
        a = a + a.shift(4).truncate(a.order_bound).scale(Fraction(1, 3))
    want, bound = _naive_product(a, b)
    got = a * b
    assert got.order_bound == bound
    assert got.terms == want
    assert all(type(c) is Fraction and c for c in got.terms.values())


def test_scalar_product_cancels_to_zero():
    one = S({0: 1}, bound=40)
    h = S({4: Fraction(1, 2)}, bound=40)
    assert ((one + h) * (one - h)).terms == {0: Fraction(1), 8: Fraction(-1, 4)}
    lead = S({1: Fraction(3, 8), 9: Fraction(-5, 6)}, bound=33)
    assert (lead * lead.scale(0)).is_zero()
    assert (lead * lead.scale(0)).order_bound == 33 + 1   # the empty operand's lead is 34
