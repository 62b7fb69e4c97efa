import random
from fractions import Fraction

import pytest

from anomcancel.algebra import AlgebraError, GradedPolynomial
from anomcancel.genus import build_generator_table
from anomcancel.modforms import (GROUP_LOWER, GROUP_UPPER, basis_element, decompose,
                                 delta_eps, integrality_report, reconstruct,
                                 transfer_residual)
from anomcancel.qseries import PuiseuxSeries


def test_generator_leading_terms():
    d1 = delta_eps("delta1", 6)
    assert d1.coefficient(0) == Fraction(Fraction(1, 4))
    assert d1.coefficient(8) == Fraction(6)
    e1 = delta_eps("eps1", 6)
    assert e1.coefficient(0) == Fraction(Fraction(1, 16))
    assert e1.coefficient(8) == Fraction(-1)
    d2 = delta_eps("delta2", 6)
    assert d2.coefficient(0) == Fraction(Fraction(-1, 8))
    assert d2.coefficient(4) == Fraction(-3)
    e2 = delta_eps("eps2", 6)
    assert e2.coefficient(0) == Fraction(0)
    assert e2.coefficient(4) == Fraction(1)


def test_transformation_shadow_between_the_pairs():
    # the half-integer pair maps to the integer pair under q^{1/2} -> -q^{1/2}
    # composed with the known leading normalization; here we just pin the
    # integer-lattice structure of the lower pair
    assert delta_eps("delta1", 8).support_on_lattice(8)
    assert delta_eps("eps1", 8).support_on_lattice(8)
    assert delta_eps("delta2", 8).support_on_lattice(4)
    assert delta_eps("eps2", 8).support_on_lattice(4)


def test_integrality_through_q10():
    assert all(integrality_report(10).values())


def test_basis_elements():
    b = basis_element(GROUP_UPPER, 1, 0, 6)
    assert b.series.coefficient(0) == Fraction(-1)
    assert b.series.coefficient(4) == Fraction(-24)
    b21 = basis_element(GROUP_LOWER, 2, 1, 6)
    assert b21.series == delta_eps("eps1", 6)
    b20 = basis_element(GROUP_UPPER, 2, 0, 6)
    assert b20.series.coefficient(0) == Fraction(1)
    with pytest.raises(AlgebraError):
        basis_element(GROUP_UPPER, 2, 2, 6)


def test_upper_triangularity():
    for k in (1, 2, 3, 4, 5):
        for r in range(k // 2 + 1):
            b = basis_element(GROUP_UPPER, k, r, 8)
            assert b.series.leading_exponent() == 4 * r
            assert b.series.coefficient(4 * r) == Fraction((-1) ** k)


def _scalar_gp_series(series, table, W):
    zero = GradedPolynomial.zero(table, W)
    return series.map_coefficients(lambda c: GradedPolynomial.scalar(c, table, W), new_zero=zero)


def test_decompose_trivial_cases():
    table = build_generator_table(2, 1, False, 2)
    p = _scalar_gp_series(basis_element(GROUP_UPPER, 1, 0, 6).series, table, 2)
    dec = decompose(p, 1)
    assert dec.h[0] == GradedPolynomial.one(table, 2)
    assert dec.residual_zero
    p2 = _scalar_gp_series(delta_eps("eps2", 6), table, 2)
    dec2 = decompose(p2, 2)
    assert dec2.h[0] == GradedPolynomial.zero(table, 2)
    assert dec2.h[1] == GradedPolynomial.one(table, 2)
    assert dec2.residual_zero


def test_decompose_reconstruct_roundtrip():
    table = build_generator_table(3, 2, False, 6)
    rng = random.Random(17)
    zero = GradedPolynomial.zero(table, 6)
    for k in (2, 3, 4):
        h = []
        for r in range(k // 2 + 1):
            gp = GradedPolynomial.scalar(rng.randint(-9, 9), table, 6)
            gp = gp + GradedPolynomial.generator("nM1", table, 6).scale(rng.randint(-4, 4))
            h.append(gp)
        P = reconstruct(h, GROUP_UPPER, k, 7, zero)
        dec = decompose(P, k)
        assert dec.h == h
        assert dec.residual_zero
        assert dec.integral_solve


def test_decompose_validates_input():
    table = build_generator_table(2, 1, False, 2)
    bad = PuiseuxSeries({1: GradedPolynomial.one(table, 2)}, 80, GradedPolynomial.zero(table, 2))
    with pytest.raises(AlgebraError):
        decompose(bad, 1)
    short = _scalar_gp_series(PuiseuxSeries({0: Fraction(1)}, 8, Fraction(0)), table, 2)
    with pytest.raises(AlgebraError):
        decompose(short, 2)  # cannot determine 2 coefficients from order 8


def test_transfer_detects_perturbation():
    table = build_generator_table(2, 1, False, 2)
    h = [GradedPolynomial.one(table, 2)]
    zero = GradedPolynomial.zero(table, 2)
    p1 = reconstruct(h, GROUP_LOWER, 1, 6, zero).scale(Fraction(4))  # 2^l with l = 2
    assert transfer_residual(p1, h, 2, 1).is_zero()
    h_bad = [GradedPolynomial.one(table, 2) + GradedPolynomial.one(table, 2)]
    res = transfer_residual(p1, h_bad, 2, 1)
    assert not res.is_zero()
    # leading mismatch is the constant term of -2^l (8 delta1)^k
    assert res.coefficient(0).constant_term() == Fraction(-8)


def test_decompose_flags_non_modular_input():
    # a series that solves the triangular system but fails at higher orders
    table = build_generator_table(2, 1, False, 2)
    zero = GradedPolynomial.zero(table, 2)
    good = reconstruct([GradedPolynomial.one(table, 2)], GROUP_UPPER, 1, 6, zero)
    junk = PuiseuxSeries({24: GradedPolynomial.generator("nM1", table, 2)}, 48, zero)
    dec = decompose(good + junk, 1)
    assert dec.h[0] == GradedPolynomial.one(table, 2)  # solve still works
    assert not dec.residual_zero                        # but the witness fails
