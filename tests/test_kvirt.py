from fractions import Fraction
from functools import lru_cache

import pytest

from anomcancel.algebra import AlgebraError, GradedPolynomial
from anomcancel.genus import FAMILY_TM, FAMILY_V, LINE, RootFamily, build_generator_table
from anomcancel.kvirt import (adams, complexified_bundle, lambda_power, lambda_string, reduced,
                              theta_object)
from anomcancel.qseries import PuiseuxSeries
from helpers import TermSeries, string_product_oracle, theta_strings

KINDS = ("theta1", "theta2", "theta3", "theta_c", "theta_c_star")
FLAVOURS = [(False, +1), (False, -1), (True, +1), (True, -1)]


@lru_cache(maxsize=None)
def setup_bundles(W=4):
    table = build_generator_table(2, 1, True, W)
    T = complexified_bundle(RootFamily(FAMILY_TM, 2), table)
    V = complexified_bundle(RootFamily(FAMILY_V, 1), table)
    L = complexified_bundle(LINE, table)
    return table, T, V, L


def series(pieces, E):
    """The weight pieces as one series over ``E``'s ring, by the one view."""
    return PuiseuxSeries.from_pieces(pieces)


def theta_series(kind, T, L, order):
    return series(theta_object(kind, T, L, order), T)


def string_series(E, half, sign, order):
    return series(lambda_string(E, half, sign, order), E)


def test_ranks_and_reduction():
    table, T, V, L = setup_bundles()
    assert T.constant_term() == 4 and V.constant_term() == 2 and L.constant_term() == 2
    assert reduced(T).constant_term() == 0
    assert T - GradedPolynomial.scalar(4, table) == reduced(T)


def test_adams():
    table, T, V, L = setup_bundles()
    assert adams(T, 1) == T
    assert adams(adams(T, 2), 3) == adams(T, 6)
    assert adams(T, 2).constant_term() == T.constant_term()
    # doubling the roots of the line pair: e^{4iu} + e^{-4iu} = 2 cosh 4w
    w = GradedPolynomial.generator("w", table)
    want = GradedPolynomial.scalar(2, table) + (w * w).scale(16) + (w ** 4).scale(Fraction(64, 3))
    assert adams(L, 2) == want


def test_lambda_square_of_line_pair():
    table, T, V, L = setup_bundles()
    lam2 = lambda_power(L, 2)
    assert lam2.constant_term() == 1
    assert lam2 == GradedPolynomial.one(table)


@pytest.mark.parametrize("name", ["T", "V", "L", "T-4", "V-2", "L-2", "T+V"])
def test_lambda_powers_in_closed_form(name):
    # Newton's identities between exterior powers and Adams operations
    table, T, V, L = setup_bundles(6)
    E = {"T": T, "V": V, "L": L, "T-4": reduced(T), "V-2": reduced(V), "L-2": reduced(L),
         "T+V": T + V}[name]
    rank = E.constant_term()
    assert lambda_power(E, 0) == E.one_like()
    assert lambda_power(E, 1) == E
    assert lambda_power(E, 2) == (E * E - adams(E, 2)).scale(Fraction(1, 2))
    assert lambda_power(E, 3) == (E ** 3 - (E * adams(E, 2)).scale(3)
                                  + adams(E, 3).scale(2)).scale(Fraction(1, 6))
    assert lambda_power(E, 3).constant_term() == rank * (rank - 1) * (rank - 2) / 6


@pytest.mark.parametrize("name", ["T", "L", "T+V", "1"])
def test_strings_take_rank_zero_bundles(name):
    """A ranked bundle's log has a weight-0 part, which would need an exp in q alone."""
    table, T, V, L = setup_bundles()
    E = {"T": T, "L": L, "T+V": T + V, "1": GradedPolynomial.one(table)}[name]
    for half, sign in FLAVOURS:
        with pytest.raises(AlgebraError, match="rank-0"):
            lambda_string(E, half, sign, 2)
    assert string_series(reduced(E), False, +1, 1).coefficient(8) == reduced(E)


def test_s_lambda_inverse_relation():
    # theta_c_star with line = tangent is S_{q^n}(E) * lambda_{-q^n}(E) on one E
    table, T, V, L = setup_bundles()
    for E in (T, V, L):
        assert theta_series("theta_c_star", E, E, 2).terms == {0: E.one_like()}


def test_lambda_additivity():
    table, T, V, L = setup_bundles()
    for half, sign in FLAVOURS:
        lhs = TermSeries.of(string_series(reduced(T + V), half, sign, 2))
        rhs = TermSeries.of(string_series(reduced(T), half, sign, 2)) * TermSeries.of(
            string_series(reduced(V), half, sign, 2))
        assert lhs == rhs, (half, sign)


def test_first_order_coefficients():
    table, T, V, L = setup_bundles()
    E = reduced(T)
    # a trivial line reduces to zero, so theta_c_star is the bare symmetric string
    sym = theta_series("theta_c_star", T, GradedPolynomial.scalar(2, table), 2)
    assert sym.coefficient(8) == E
    assert string_series(E, True, -1, 2).coefficient(4) == -E
    assert sym.coefficient(8).constant_term() == 0


@pytest.mark.parametrize("W", [4, 6, 8])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_strings_match_product_oracle(W, order):
    table, T, V, L = setup_bundles(W)
    for kind in KINDS:
        got = TermSeries.of(theta_series(kind, T, L, order))
        assert got == string_product_oracle(theta_strings(kind, T, L), order), kind
        assert got.bound == 8 * order
    for E in (reduced(T), reduced(V), reduced(L), reduced(T + V)):
        for half, sign in FLAVOURS:
            want = string_product_oracle([(E, half, sign)], order)
            assert TermSeries.of(string_series(E, half, sign, order)) == want, (half, sign)


def test_theta_object_low_coefficients():
    table, T, V, L = setup_bundles()
    E = reduced(T)
    th1 = theta_series("theta1", T, None, 2)
    assert th1.coefficient(8) == E + E
    th2 = theta_series("theta2", T, None, 2)
    th3 = theta_series("theta3", T, None, 2)
    assert th2.coefficient(4) == -E
    assert th3.coefficient(4) == E
    assert not th2.coefficient(4) + th3.coefficient(4)
    assert th2.coefficient(8) == E + lambda_power(E, 2)


def test_theta_line_objects():
    table, T, V, L = setup_bundles()
    E = reduced(T)
    thc = string_product_oracle(theta_strings("theta_c", T, L, reduced_line=False), 2)
    assert 4 not in thc.terms
    want = E + L + lambda_power(L, 2).scale(2) - L * L
    assert thc.terms[8] == want.terms
    assert TermSeries.of(theta_series("theta_c", T, L, 2)) == thc      # every position through q^2
    star = theta_series("theta_c_star", T, L, 2)
    assert star.coefficient(8) == E - reduced(L)
    star_u = string_product_oracle(theta_strings("theta_c_star", T, L, reduced_line=False), 2)
    assert star_u.terms[8] == (E - L).terms


def test_string_truncation_sufficiency():
    # the string factors beyond the order window change nothing below it
    table, T, V, L = setup_bundles()
    base = theta_series("theta1", T, None, 2)
    more = theta_series("theta1", T, None, 3)  # adds the n=3 factors
    assert base.order_bound == 16
    assert {k: c for k, c in more.terms.items() if k <= 16} == base.terms
