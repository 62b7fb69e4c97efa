from fractions import Fraction

import pytest

from anomcancel.theta import FACTOR_KINDS, jacobi_residual, theta_factor, theta_log, theta_null

from helpers import (bivariate_inverse, bivariate_mul, product_factor, series_log,
                     theta_null_sum_form)


def q0_slice(f):
    """z-coefficients of the q^0 part, index = z-degree."""
    return [f.terms.get((d, 0), 0) for d in range(f.z_bound + 1)]


@pytest.mark.parametrize("kind", ["theta1", "theta2", "theta3", "theta_prime"])
def test_nulls_match_lattice_sums(kind):
    got = theta_null(kind, 10)
    want = theta_null_sum_form(kind, 10)
    assert got.terms == want.terms


@pytest.mark.parametrize("order", [1, 2, 7, 32])
def test_nulls_match_lattice_sums_at_other_orders(order):
    for kind in ("theta1", "theta2", "theta3", "theta_prime"):
        got = theta_null(kind, order)
        want = theta_null_sum_form(kind, order)
        assert got.terms == want.terms and got.order_bound == want.order_bound


def test_null_leading_terms():
    t3 = theta_null("theta3", 4)
    assert t3.coefficient(0) == 1 and t3.coefficient(4) == Fraction(2)
    t2 = theta_null("theta2", 4)
    assert t2.coefficient(4) == Fraction(-2)
    # reduced odd-type nulls start at q^{1/8}
    assert theta_null("theta1", 4).leading_exponent() == 1
    assert theta_null("theta_prime", 4).leading_exponent() == 1


def test_jacobi_identity():
    assert jacobi_residual(10).is_zero()
    assert jacobi_residual(1).is_zero()


def test_jacobi_checker_detects_perturbation():
    # drop one factor of the triple product: residual appears by q^1
    t1 = theta_null("theta1", 6)
    t2 = theta_null("theta2", 6)
    t3 = theta_null("theta3", 6)
    tp = theta_null("theta_prime", 6)
    broken = t2 * t3  # forgot the t1 factor entirely
    assert not (tp - broken).is_zero()
    # and a milder perturbation: scale one null
    assert not (tp - t1.scale(Fraction(Fraction(1, 2))) * t2 * t3).is_zero()


def test_factor_q0_slices():
    a = theta_factor("a", 3, 6)
    assert [str(c) for c in q0_slice(a)] == ["1", "0", "1/6", "0", "7/360", "0", "31/15120"]
    t1 = theta_factor("t1", 3, 4)
    assert [str(c) for c in q0_slice(t1)] == ["1", "0", "-1/2", "0", "1/24"]
    d = theta_factor("d", 3, 5)
    assert [str(c) for c in q0_slice(d)] == ["0", "1", "0", "-1/6", "0", "1/120"]


def test_factor_parity_and_unit():
    for kind in ("a", "t1", "t2", "t3"):
        f = theta_factor(kind, 4, 6)
        assert all(d % 2 == 0 for d, _ in f.terms)
        assert f.coefficient(0, 0) == 1
        assert {k: c for (d, k), c in f.terms.items() if d == 0} == {0: 1}
    d = theta_factor("d", 4, 5)
    assert d.terms and all(dd % 2 == 1 for dd, _ in d.terms)


def test_a_times_reduced_theta_is_z():
    a = theta_factor("a", 4, 6)
    d = theta_factor("d", 4, 6)
    assert (a * d).terms == {(1, 0): 1}


def test_sign_flip_swaps_half_integer_factors():
    t2 = theta_factor("t2", 4, 4)
    t3 = theta_factor("t3", 4, 4)
    flipped = {dk: (c if (dk[1] // 4) % 2 == 0 else -c) for dk, c in t2.terms.items()}
    assert flipped == t3.terms
    for kind in ("a", "t1"):
        f = theta_factor(kind, 4, 4)
        assert all(dk[1] % 8 == 0 for dk in f.terms), kind  # integer exponents: fixed by the flip


@pytest.mark.parametrize("kind", FACTOR_KINDS)
def test_factor_count_sufficiency(kind):
    """One more product factor (or q-order) leaves the expansion through q^3 unchanged."""
    for build in (product_factor, theta_factor):
        more = build(kind, 4, 4)
        assert {dk: c for dk, c in more.terms.items() if dk[1] <= 24} == build(kind, 3, 4).terms


def test_root_factor_inverse():
    """The oracle's geometric-series inverse inverts a factor."""
    f = theta_factor("t1", 3, 4)
    g = bivariate_inverse(f.terms, 4, 24)
    assert bivariate_mul(f.terms, g, 4, 24) == {(0, 0): 1}


@pytest.mark.parametrize("order,z_bound", [(0, 1), (0, 4), (1, 3), (2, 6), (3, 5), (5, 8), (10, 11)])
@pytest.mark.parametrize("kind", FACTOR_KINDS)
def test_theta_factor_matches_product_oracle(kind, order, z_bound):
    """The one-root exp of the closed-form log equals the product-built factor."""
    got, want = theta_factor(kind, order, z_bound), product_factor(kind, order, z_bound)
    assert (got.terms, got.z_bound, got.q_bound) == (want.terms, want.z_bound, want.q_bound)


def test_null_integrality():
    for kind in ("theta1", "theta2", "theta3", "theta_prime"):
        assert all(c.denominator == 1 for c in theta_null(kind, 10).terms.values())



LOG_GRID = [(2, 6), (3, 4), (4, 10), (6, 8), (12, 4), (14, 12)]


@pytest.mark.parametrize("order,z_bound", LOG_GRID)
@pytest.mark.parametrize("kind", ["a", "t1", "t2", "t3"])
def test_theta_log_matches_product_log(kind, order, z_bound):
    """The divisor-sum log equals the power-series log of the product-built factor."""
    f = product_factor(kind, order, z_bound)
    got = theta_log(kind, order, z_bound)
    assert (got.z_bound, got.q_bound) == (z_bound, f.q_bound)
    assert got.terms == series_log(f.terms, z_bound, f.q_bound)


@pytest.mark.parametrize("order,z_bound", LOG_GRID)
def test_theta_log_of_odd_factor_is_log_d_over_z(order, z_bound):
    d = product_factor("d", order, z_bound + 1)
    d_over_z = {(dd - 1, k): c for (dd, k), c in d.terms.items()}
    assert theta_log("d", order, z_bound).terms == series_log(d_over_z, z_bound, d.q_bound)


def test_theta_log_columns():
    """q^0: log(z/sin z) = z^2/6 + z^4/180; q^1 of log a: (2cos 2z - 2) = -4z^2 + 4z^4/3."""
    a = theta_log("a", 2, 4)
    assert a.coefficient(2, 0) == Fraction(1, 6) and a.coefficient(4, 0) == Fraction(1, 180)
    assert a.coefficient(2, 8) == -4 and a.coefficient(4, 8) == Fraction(4, 3)
    # q^2: m = 1, 2 divide 2, so the z^2 column is -4 * sigma_1(2) = -12
    assert a.coefficient(2, 16) == -12
    assert all(d % 2 == 0 and d >= 2 for d, _ in a.terms)
    assert q0_slice(theta_log("t2", 2, 4)) == [0] * 5
