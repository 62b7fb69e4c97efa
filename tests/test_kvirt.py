import random
from fractions import Fraction
from functools import lru_cache

import pytest

from anomcancel.algebra import GradedPolynomial
from anomcancel.genus import build_generator_table
from anomcancel.kvirt import (VirtualBundle, aux_bundle, bundle_coefficient,
                              character_series, lambda_string, line_pair_bundle,
                              tangent_bundle, theta_object)
from anomcancel.qseries import PuiseuxSeries
from helpers import string_product_oracle, theta_strings

KINDS = ("theta1", "theta2", "theta3", "theta_c", "theta_c_star")
FLAVOURS = [(False, +1), (False, -1), (True, +1), (True, -1)]


@lru_cache(maxsize=None)
def setup_bundles(W=4):
    table = build_generator_table(2, 1, True, W)
    T = tangent_bundle(2, table, W)
    V = aux_bundle(1, table, W)
    L = line_pair_bundle(table, W)
    return table, T, V, L


def one_series(E, bound):
    return PuiseuxSeries.constant(E.one_like(), bound, E.zero_like())


def test_ranks_and_reduction():
    table, T, V, L = setup_bundles()
    assert T.rank == 4 and V.rank == 2 and L.rank == 2
    assert T.reduced().rank == 0
    assert (T - VirtualBundle.trivial(4, table, 4)).ch == T.reduced().ch


def test_tensor_characters_randomized():
    table, T, V, L = setup_bundles()
    rng = random.Random(41)
    pool = [T, V, L, T.reduced(), L.lambda_power(2)]
    for _ in range(10):
        a, b = rng.choice(pool), rng.choice(pool)
        assert (a * b).ch == a.ch * b.ch
        assert (a * b).ch.constant_term() == a.ch.constant_term() * b.ch.constant_term()


def test_bundle_dot_is_sum_of_tensor_products():
    table, T, V, L = setup_bundles()
    pairs = [(T, V), (L, T.reduced()), (V, V)]
    want = T * V + L * T.reduced() + V * V
    assert T.dot(pairs) == want
    assert T.dot([]) == T.zero_like()


def test_adams():
    table, T, V, L = setup_bundles()
    assert T.adams(1) == T
    assert T.adams(2).adams(3) == T.adams(6)
    assert T.adams(2).rank == T.rank
    # doubling the roots of the line pair: e^{4iu} + e^{-4iu} = 2 cosh 4w
    w = GradedPolynomial.generator("w", table, 4)
    want = GradedPolynomial.scalar(2, table, 4) + (w * w).scale(16) + (w ** 4).scale(Fraction(64, 3))
    assert L.adams(2).ch == want


def test_lambda_square_of_line_pair():
    table, T, V, L = setup_bundles()
    lam2 = L.lambda_power(2)
    assert lam2.rank == 1
    assert lam2.ch == GradedPolynomial.one(table, 4)


def test_lambda_series_of_trivial_line():
    table, *_ = setup_bundles()
    c = VirtualBundle.trivial(1, table, 4)
    lt = lambda_string(c, True, +1, 3)
    assert bundle_coefficient(lt, 0) == c.one_like()
    assert bundle_coefficient(lt, 4) == c
    assert not bundle_coefficient(lt, 8)  # Lambda^2 of a line vanishes
    st = lambda_string(-c, False, -1, 3)  # S_t(c) = lambda_{-t}(-c): prod 1/(1 - q^n)
    for j, partitions in enumerate((1, 1, 2, 3)):
        assert bundle_coefficient(st, 8 * j) == c.one_like().scale(partitions)


def test_s_lambda_inverse_relation():
    # theta_c_star with line = tangent is S_{q^n}(E) * lambda_{-q^n}(E) on one E
    table, T, V, L = setup_bundles()
    for E in (T, V, L):
        prod = theta_object("theta_c_star", E, E, 2)
        assert (prod - one_series(E, prod.order_bound)).is_zero()


def test_lambda_additivity():
    table, T, V, L = setup_bundles()
    for half, sign in FLAVOURS:
        lhs = lambda_string(T + V, half, sign, 2)
        assert lhs == lambda_string(T, half, sign, 2) * lambda_string(V, half, sign, 2), (half, sign)


def test_first_order_coefficients():
    table, T, V, L = setup_bundles()
    E = T.reduced()
    # a trivial line reduces to zero, so theta_c_star is the bare symmetric string
    sym = theta_object("theta_c_star", T, VirtualBundle.trivial(2, table, 4), 2)
    assert bundle_coefficient(sym, 8) == E
    assert bundle_coefficient(lambda_string(E, True, -1, 2), 4) == -E
    assert bundle_coefficient(sym, 8).rank == 0


@pytest.mark.parametrize("W", [4, 6, 8])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_strings_match_product_oracle(W, order):
    table, T, V, L = setup_bundles(W)
    for kind in KINDS:
        got = theta_object(kind, T, L, order)
        assert got == string_product_oracle(theta_strings(kind, T, L), order), kind
        assert got.order_bound == 8 * order
    for E in (T.reduced(), V.reduced(), L, T + V):
        for half, sign in FLAVOURS:
            want = string_product_oracle([(E, half, sign)], order)
            assert lambda_string(E, half, sign, order) == want, (half, sign)


def test_theta_object_low_coefficients():
    table, T, V, L = setup_bundles()
    E = T.reduced()
    th1 = theta_object("theta1", T, None, 2)
    assert bundle_coefficient(th1, 8) == E + E
    th2 = theta_object("theta2", T, None, 2)
    th3 = theta_object("theta3", T, None, 2)
    assert bundle_coefficient(th2, 4) == -E
    assert bundle_coefficient(th3, 4) == E
    assert bundle_coefficient(th2 + th3, 4) == E.zero_like()
    assert bundle_coefficient(th2, 8) == E + E.lambda_power(2)


def test_theta_line_objects():
    table, T, V, L = setup_bundles()
    E = T.reduced()
    thc = string_product_oracle(theta_strings("theta_c", T, L, reduced_line=False), 2)
    assert not bundle_coefficient(thc, 4)
    want = E + L + L.lambda_power(2).scale(2) - L * L
    assert bundle_coefficient(thc, 8) == want
    thc_red = theta_object("theta_c", T, L, 2)
    for k in range(0, 17):
        assert bundle_coefficient(thc, k) == bundle_coefficient(thc_red, k)
    star = theta_object("theta_c_star", T, L, 2)
    assert bundle_coefficient(star, 8) == E - L.reduced()
    star_u = string_product_oracle(theta_strings("theta_c_star", T, L, reduced_line=False), 2)
    assert bundle_coefficient(star_u, 8) == E - L


def test_string_truncation_sufficiency():
    # the string factors beyond the order window change nothing below it
    table, T, V, L = setup_bundles()
    base = theta_object("theta1", T, None, 2)
    more = theta_object("theta1", T, None, 3)  # adds the n=3 factors
    assert (more - base).is_zero()
    assert {k: c for k, c in more.terms.items() if k <= 16} == base.terms


def test_character_series():
    table, T, V, L = setup_bundles()
    th1 = theta_object("theta1", T, None, 1)
    ch = character_series(th1)
    assert ch.coefficient(8) == T.reduced().ch.scale(2)


def test_tensor_unit():
    table, T, V, L = setup_bundles()
    one = VirtualBundle.trivial(1, table, 4)
    assert one * T == T and T * one == T
