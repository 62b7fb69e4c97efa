import random
from fractions import Fraction

import pytest

from anomcancel import modforms
from anomcancel.algebra import AlgebraError, GradedPolynomial
from anomcancel.anomaly import divisibility_check
from anomcancel.genus import build_generator_table
from anomcancel.modforms import (GROUP_LOWER, GROUP_UPPER, basis_element, decompose,
                                 delta_eps, integrality_report, transfer_residual,
                                 unit_lower_inverse)
from anomcancel.qseries import PuiseuxSeries

from helpers import modular_basis_oracle, packed, residual_oracle


def _decompose(P, k):
    return decompose(packed(P), k, P.zero)


def _transfer(P1, h, l, k):
    return transfer_residual(packed(P1), h, l, k, P1.zero)


def _span(h, group, k, order, zero):
    """``sum_r h_r * basis_r`` through ``q^order``, from the lattice-sum oracle."""
    return residual_oracle(PuiseuxSeries({}, 8 * order, zero), h, group, k, -1, order)


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
    assert all(k % 8 == 0 for k in delta_eps("delta1", 8).terms)
    assert all(k % 8 == 0 for k in delta_eps("eps1", 8).terms)
    assert all(k % 4 == 0 for k in delta_eps("delta2", 8).terms)
    assert all(k % 4 == 0 for k in delta_eps("eps2", 8).terms)


def test_integrality_through_q10():
    assert all(integrality_report(10).values())


def test_basis_elements():
    b = basis_element(GROUP_UPPER, 1, 0, 6)
    assert b.coefficient(0) == Fraction(-1)
    assert b.coefficient(4) == Fraction(-24)
    b21 = basis_element(GROUP_LOWER, 2, 1, 6)
    assert b21 == delta_eps("eps1", 6)
    b20 = basis_element(GROUP_UPPER, 2, 0, 6)
    assert b20.coefficient(0) == Fraction(1)
    with pytest.raises(AlgebraError):
        basis_element(GROUP_UPPER, 2, 2, 6)


def test_upper_triangularity():
    for k in (1, 2, 3, 4, 5):
        for r in range(k // 2 + 1):
            b = basis_element(GROUP_UPPER, k, r, 8)
            assert b.leading_exponent() == 4 * r
            assert b.coefficient(4 * r) == Fraction((-1) ** k)


def _scalar_gp_series(series, table, W):
    zero = GradedPolynomial.zero(table, W)
    return series.map_coefficients(lambda c: GradedPolynomial.scalar(c, table, W), new_zero=zero)


def test_decompose_trivial_cases():
    table = build_generator_table(2, 1, False, 2)
    p = _scalar_gp_series(basis_element(GROUP_UPPER, 1, 0, 6), table, 2)
    dec = _decompose(p, 1)
    assert dec.h[0] == GradedPolynomial.one(table, 2)
    assert dec.residual_zero
    p2 = _scalar_gp_series(delta_eps("eps2", 6), table, 2)
    dec2 = _decompose(p2, 2)
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
        P = _span(h, GROUP_UPPER, k, 7, zero)
        dec = _decompose(P, k)
        assert dec.h == h
        assert dec.residual_zero
        assert dec.integral_solve


def test_decompose_validates_input():
    table = build_generator_table(2, 1, False, 2)
    bad = PuiseuxSeries({1: GradedPolynomial.one(table, 2)}, 80, GradedPolynomial.zero(table, 2))
    with pytest.raises(AlgebraError):
        _decompose(bad, 1)
    short = _scalar_gp_series(PuiseuxSeries({0: Fraction(1)}, 8, Fraction(0)), table, 2)
    with pytest.raises(AlgebraError):
        _decompose(short, 2)  # cannot determine 2 coefficients from order 8


def test_transfer_detects_perturbation():
    table = build_generator_table(2, 1, False, 2)
    h = [GradedPolynomial.one(table, 2)]
    zero = GradedPolynomial.zero(table, 2)
    p1 = _span(h, GROUP_LOWER, 1, 6, zero).scale(Fraction(4))  # 2^l with l = 2
    assert _transfer(p1, h, 2, 1).is_zero()
    h_bad = [GradedPolynomial.one(table, 2) + GradedPolynomial.one(table, 2)]
    res = _transfer(p1, h_bad, 2, 1)
    assert not res.is_zero()
    # leading mismatch is the constant term of -2^l (8 delta1)^k
    assert res.coefficient(0).constant_term() == Fraction(-8)


def test_decompose_flags_non_modular_input():
    # a series that solves the triangular system but fails at higher orders
    table = build_generator_table(2, 1, False, 2)
    zero = GradedPolynomial.zero(table, 2)
    good = _span([GradedPolynomial.one(table, 2)], GROUP_UPPER, 1, 6, zero)
    junk = PuiseuxSeries({24: GradedPolynomial.generator("nM1", table, 2)}, 48, zero)
    dec = _decompose(good + junk, 1)
    assert dec.h[0] == GradedPolynomial.one(table, 2)  # solve still works
    assert not dec.residual_zero                        # but the witness fails


ORACLE_ORDERS = (1, 2, 7, 24, 32)


@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_generators_match_lattice_sum_oracle(order):
    for which, group, k, r, den in (("delta1", GROUP_LOWER, 1, 0, 8), ("eps1", GROUP_LOWER, 2, 1, 1),
                                    ("delta2", GROUP_UPPER, 1, 0, 8), ("eps2", GROUP_UPPER, 2, 1, 1)):
        expected = modular_basis_oracle(group, k, r, order).scale(Fraction(1, den))
        assert delta_eps(which, order) == expected, which


@pytest.mark.parametrize("group", (GROUP_UPPER, GROUP_LOWER))
@pytest.mark.parametrize("order", ORACLE_ORDERS)
def test_basis_matches_lattice_sum_oracle(group, order):
    for k in range(9):
        for r in range(k // 2 + 1):
            if group == GROUP_UPPER and 4 * r > 8 * order:
                with pytest.raises(AlgebraError):   # the element starts beyond the order
                    basis_element(group, k, r, order)
                continue
            assert basis_element(group, k, r, order) == modular_basis_oracle(group, k, r, order), (k, r)


GENERATOR_ORACLE_ROWS = (("delta1", GROUP_LOWER, 1, 0, 8), ("eps1", GROUP_LOWER, 2, 1, 1),
                         ("delta2", GROUP_UPPER, 1, 0, 8), ("eps2", GROUP_UPPER, 2, 1, 1))


@pytest.mark.parametrize("which,group,k,r,den", GENERATOR_ORACLE_ROWS,
                         ids=[row[0] for row in GENERATOR_ORACLE_ROWS])
def test_divisor_sum_generators_match_lattice_sum_oracle_at_order_64(which, group, k, r, den):
    """The closed-form generators equal the theta-null fourth powers through q^64."""
    expected = modular_basis_oracle(group, k, r, 64).scale(Fraction(1, den))
    assert delta_eps(which, 64) == expected


def test_generators_use_no_series_product(monkeypatch):
    """The generators come from divisor sums alone: no theta null and no mul_sum."""
    calls = []
    monkeypatch.setattr(modforms, "mul_sum", lambda *a: calls.append(a))
    monkeypatch.setattr(modforms, "_gen_cache", {})
    for group in (GROUP_UPPER, GROUP_LOWER):
        modforms._generators(group, 16)
    assert calls == []
    assert not hasattr(modforms, "theta_null")


def test_basis_rows_never_multiply_by_the_unit(monkeypatch):
    """Every mul_sum of the rows has two non-unit operands: k < 2 needs none, k=2 only (8*delta)^2."""
    real, operands = modforms.mul_sum, []

    def spy(products):
        operands.append([c for a, b, _, _ in products for c in (a, b)])
        return real(products)

    monkeypatch.setattr(modforms, "mul_sum", spy)
    for group in (GROUP_UPPER, GROUP_LOWER):
        for k in range(7):
            monkeypatch.setattr(modforms, "_basis_cache", {})
            del operands[:]
            modforms._basis_rows(group, k, 6)
            assert not any(c.cols == {0: [c.den] + [0] * (len(c.cols[0]) - 1)} for ops in operands for c in ops)
            if k < 3:
                assert len(operands) == (0, 0, 1)[k]


def _residual_ring():
    table = build_generator_table(2, 1, True, 4)
    gen = {g.name: GradedPolynomial.generator(g.name, table, 4) for g in table.gens}
    h = [gen["nM1"] * gen["nV1"] + gen["w"].scale(Fraction(-3, 5)) + 2,
         gen["nM2"].scale(Fraction(1, 6)) - gen["w"] ** 4 + Fraction(7, 3)]
    return table, gen, h, GradedPolynomial.zero(table, 4)


def _assert_same_residual(got, expected):
    assert got == expected
    assert got.to_text() == expected.to_text()
    assert got.is_zero() == expected.is_zero()
    assert got.order_bound == expected.order_bound


def test_decompose_residual_keeps_junk_at_the_last_position():
    table, gen, h, zero = _residual_ring()
    k, order = 3, 6
    junk = (gen["nM1"] * gen["w"] ** 2).scale(Fraction(3, 7)) - gen["nM2"]
    P = residual_oracle(PuiseuxSeries({8 * order: junk}, 8 * order, zero), h, GROUP_UPPER, k, -1, order)
    dec = _decompose(P, k)
    assert dec.h == h
    _assert_same_residual(dec.residual, residual_oracle(P, dec.h, GROUP_UPPER, k, 1, order))
    assert dec.residual.terms == {8 * order: junk}


def test_decompose_residual_with_order_bound_off_a_multiple_of_8():
    table, gen, h, zero = _residual_ring()
    k, order = 3, 5
    junk = {4 * 7: gen["w"].scale(Fraction(1, 9)), 8 * order + 4: gen["nV1"]}
    P = residual_oracle(PuiseuxSeries(junk, 8 * order + 4, zero), h, GROUP_UPPER, k, -1, order + 1)
    dec = _decompose(P, k)
    assert dec.h == h
    expected = residual_oracle(P, dec.h, GROUP_UPPER, k, 1, order)
    _assert_same_residual(dec.residual, expected)
    assert dec.residual.order_bound == 8 * order
    assert dec.residual.terms == {4 * 7: junk[4 * 7]}


def test_transfer_residual_keeps_a_term_at_q_one_eighth():
    table, gen, h, zero = _residual_ring()
    k, l, order = 3, 2, 6
    odd = gen["w"].scale(Fraction(5, 2))
    P1 = residual_oracle(PuiseuxSeries({1: odd}, 8 * order, zero), h, GROUP_LOWER, k, -(2 ** l), order)
    _assert_same_residual(_transfer(P1, h, l, k), PuiseuxSeries({1: odd}, 8 * order, zero))
    h_bad = [h[0], h[1] + gen["nM1"]]
    res = _transfer(P1, h_bad, l, k)
    _assert_same_residual(res, residual_oracle(P1, h_bad, GROUP_LOWER, k, 2 ** l, order))
    assert res.coefficient(1) == odd and len(res.terms) > 1


def test_transfer_residual_with_order_bound_off_a_multiple_of_8():
    table, gen, h, zero = _residual_ring()
    k, l, order = 2, 3, 4
    tail = {8 * order + 4: gen["nM1"], 8 * order + 5: gen["w"]}
    P1 = residual_oracle(PuiseuxSeries(tail, 8 * order + 5, zero), h, GROUP_LOWER, k, -(2 ** l),
                         order + 1)
    assert P1.order_bound == 8 * order + 5
    res = _transfer(P1, h, l, k)
    _assert_same_residual(res, residual_oracle(P1, h, GROUP_LOWER, k, 2 ** l, order))
    assert res.is_zero() and res.order_bound == 8 * order
    h_bad = [h[0].scale(3), h[1]]
    res = _transfer(P1, h_bad, l, k)
    _assert_same_residual(res, residual_oracle(P1, h_bad, GROUP_LOWER, k, 2 ** l, order))
    assert not res.is_zero() and res.order_bound == 8 * order


def _patch_diagonal(monkeypatch, k, order, r, factor):
    """Replace upper row ``r`` of ``(k, order)`` in the memo by one whose diagonal entry is scaled."""
    rows = modforms._basis_rows(GROUP_UPPER, k, order)
    nums = list(rows[r].cols[0])
    nums[r] *= factor
    patched = rows[:r] + (rows[r]._replace(cols={0: nums}),) + rows[r + 1:]
    monkeypatch.setitem(modforms._basis_cache, (GROUP_UPPER, k, order), patched)


@pytest.mark.parametrize("factor", [3, -2])
def test_non_unit_diagonal_is_rejected_not_divided(monkeypatch, factor):
    """With an upper diagonal entry of 3 or -2, a series built from the patched rows would
    solve exactly by dividing; the integer solve refuses it instead."""
    k, order = 4, 6
    _patch_diagonal(monkeypatch, k, order, 1, factor)
    table = build_generator_table(3, 2, False, 6)
    zero = GradedPolynomial.zero(table, 6)
    nm1 = GradedPolynomial.generator("nM1", table, 6)
    h = [nm1.scale(r + 1) for r in range(k // 2 + 1)]
    P = _span(h, GROUP_UPPER, k, order, zero)
    # the patched row 1 differs from the true one only at its diagonal entry, at q^(1/2)
    P = P + PuiseuxSeries({4: h[1].scale((factor - 1) * (-1) ** k)}, P.order_bound, zero)
    minor = modforms.leading_minor(k, order)
    assert minor[1][1] == factor * (-1) ** k
    # dividing by the diagonal would recover h_1 exactly
    assert (P.coefficient(4) - h[0].scale(minor[1][0])).scale(Fraction(1, minor[1][1])) == h[1]
    with pytest.raises(AlgebraError, match="unit lower-triangular"):
        _decompose(P, k)


def test_divisibility_audit_uses_the_same_integer_inverse(monkeypatch):
    """The audit reads the same upper rows: a non-unit diagonal raises there too."""
    assert divisibility_check("3.6", 1).solve_integral
    _patch_diagonal(monkeypatch, 3, 3, 1, 2)
    with pytest.raises(AlgebraError, match="unit lower-triangular"):
        divisibility_check("3.6", 1)


def test_unit_lower_inverse():
    m = [[1, 0, 0], [24, -1, 0], [252, -48, 1]]
    inv = unit_lower_inverse(m)
    assert all(isinstance(c, int) for row in inv for c in row)
    assert [[sum(inv[i][t] * m[t][j] for t in range(3)) for j in range(3)] for i in range(3)] == \
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for bad in ([[2]], [[1, 0], [5, 3]], [[1, 1], [0, 1]]):
        with pytest.raises(AlgebraError):
            unit_lower_inverse(bad)

