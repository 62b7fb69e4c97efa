from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anomcancel import theta
from anomcancel.qseries import PuiseuxSeries
from anomcancel.theta import (FACTOR_KINDS, RootFactor, jacobi_residual, theta_factor,
                              theta_log, theta_null)

from helpers import (bivariate_inverse, bivariate_mul, product_factor, series_log,
                     theta_null_product_form, theta_null_sum_form)


def q0_slice(f):
    """z-coefficients of the q^0 part, index = z-degree."""
    return [f.terms.get((d, 0), 0) for d in range(f.z_bound + 1)]


@pytest.mark.parametrize("kind", ["theta1", "theta2", "theta3", "theta_prime"])
def test_nulls_match_lattice_sums(kind):
    """The library's lattice sums equal Jacobi's triple products multiplied out."""
    got = theta_null(kind, 10)
    want = theta_null_product_form(kind, 10)
    assert got.terms == want.terms


@pytest.mark.parametrize("order", [1, 2, 7, 32])
def test_nulls_match_lattice_sums_at_other_orders(order):
    for kind in ("theta1", "theta2", "theta3", "theta_prime"):
        got = theta_null(kind, order)
        want = theta_null_product_form(kind, order)
        assert got.terms == want.terms and got.order_bound == want.order_bound
        assert all(type(c) is Fraction for c in got.terms.values())


def test_product_oracle_matches_sum_oracle():
    """The two oracles agree: the triple products equal the lattice sums the level-2 oracle reads."""
    for kind in ("theta1", "theta2", "theta3", "theta_prime"):
        assert theta_null_product_form(kind, 12) == theta_null_sum_form(kind, 12)


def test_null_leading_terms():
    t3 = theta_null("theta3", 4)
    assert t3.coefficient(0) == 1 and t3.coefficient(4) == Fraction(2)
    t2 = theta_null("theta2", 4)
    assert t2.coefficient(4) == Fraction(-2)
    # reduced odd-type nulls start at q^{1/8}
    assert min(theta_null("theta1", 4).terms) == 1
    assert min(theta_null("theta_prime", 4).terms) == 1


def test_jacobi_identity():
    assert not jacobi_residual(10)
    assert not jacobi_residual(1)


@pytest.mark.parametrize("n", range(1, 13))
def test_jacobi_residual_reaches_an_eighth_past_the_order(n):
    """The residual is zero through ``q^(n+1/8)``, and the packed nulls it reads through that
    position hold the lattice sums of one order more, cut there: no term of the even nulls is missed."""
    r = jacobi_residual(n)
    assert not r and r.order_bound == 8 * n + 1
    for kind in ("theta1", "theta2", "theta3", "theta_prime"):
        got = PuiseuxSeries.from_packed(theta._null(kind, n, 8 * n + 1), Fraction(0))
        assert got.terms == {k: c for k, c in theta_null_product_form(kind, n + 1).terms.items() if k <= 8 * n + 1}


@pytest.mark.parametrize("n", [1, 4, 12])
def test_jacobi_residual_sees_its_last_position(monkeypatch, n):
    """A term planted at lattice ``8n + 1`` of the packed ``theta_prime`` is the whole residual."""
    real = theta._null

    def planted(kind, order, bound):
        c = real(kind, order, bound)
        if kind != "theta_prime":
            return c
        nums = list(c.cols[0])
        nums[(8 * order + 1) // c.step] += 1
        return c._replace(cols={0: nums})

    monkeypatch.setattr(theta, "_null", planted)
    assert jacobi_residual(n).terms == {8 * n + 1: Fraction(1)}


def test_jacobi_checker_detects_perturbation(monkeypatch):
    """theta1 replaced by 1 (the triple product loses a factor) or halved: the residual is nonzero."""
    real = theta._null
    for perturb in (lambda c: c._replace(cols={0: [1]}), lambda c: c._replace(den=2 * c.den)):
        def perturbed(kind, order, bound):
            c = real(kind, order, bound)
            return perturb(c) if kind == "theta1" else c

        monkeypatch.setattr(theta, "_null", perturbed)
        assert jacobi_residual(6)


@pytest.mark.parametrize("x,y", [(("a", 5, 8), ("d", 3, 6)), (("a", 0, 6), ("t1", 4, 10)),
                                 (("t1", 6, 4), ("t2", 3, 8)), (("d", 2, 10), ("t3", 5, 6)),
                                 (("t2", 4, 6), ("t3", 2, 10))])
def test_factor_product_matches_oracle(x, y):
    """Logs with unequal orders and z-bounds, on either lattice, multiply as their ``Fraction`` views,
    and every column of the product is reduced."""
    a, b = theta_log(*x), theta_log(*y)
    got = a * b
    zb, qb = min(a.z_bound, b.z_bound), min(a.q_bound, b.q_bound)
    assert (got.z_bound, got.q_bound) == (zb, qb)
    assert got.terms == bivariate_mul(a.terms, b.terms, zb, qb)
    for c in got.cols.values():
        assert any(c.cols[0]) and gcd(c.den, *c.cols[0]) == 1


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



LOG_GRID = [(2, 6), (3, 4), (4, 10), (6, 8), (12, 4), (14, 12), (24, 4), (32, 4)]


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


def test_log_sin_over_z_matches_series_log():
    """The q^0 columns of ``theta_log``, from the tangent numbers, are the power-series logs of the
    q^0 slices through z^40: ``log(sin z/z)`` for ``d``, its negative for ``a``, ``log cos z`` for ``t1``."""
    sin_over_z = {(d, 0): Fraction((-1) ** (d // 2), factorial(d + 1)) for d in range(0, 41, 2)}
    cos = {(d, 0): Fraction((-1) ** (d // 2), factorial(d)) for d in range(0, 41, 2)}
    log_sin, log_cos = series_log(sin_over_z, 40, 0), series_log(cos, 40, 0)
    assert len(log_sin) == len(log_cos) == 20
    for kind, want in (("a", {t: -c for t, c in log_sin.items()}), ("d", log_sin), ("t1", log_cos)):
        for order in (0, 2):
            got = theta_log(kind, order, 40)
            assert {(d, 0): c for (d, k), c in got.terms.items() if k == 0} == want


@pytest.mark.parametrize("half", [False, True])
def test_divisor_power_tables_by_enumeration(half):
    """``E_j``/``O_j`` at ``q^N`` sum ``m^(2j-1)`` over the pairs ``m a_n = N`` with ``m`` even/odd."""
    order, n_cols = 12, 3
    size = (2 if half else 1) * order + 1
    want = [[[0] * size for _ in range(n_cols)] for _ in range(2)]
    for m in range(1, size):
        for a in range(1, size, 2 if half else 1):       # a_n in units of the lattice step
            for j in range(n_cols):
                if m * a < size:
                    want[m % 2][j][m * a] += m ** (2 * j + 1)
    assert list(theta._divisor_powers(half, order, n_cols)) == want


def test_theta_log_columns():
    """q^0: log(z/sin z) = z^2/6 + z^4/180; q^1 of log a: (2cos 2z - 2) = -4z^2 + 4z^4/3."""
    a = theta_log("a", 2, 4)
    assert a.coefficient(2, 0) == Fraction(1, 6) and a.coefficient(4, 0) == Fraction(1, 180)
    assert a.coefficient(2, 8) == -4 and a.coefficient(4, 8) == Fraction(4, 3)
    # q^2: m = 1, 2 divide 2, so the z^2 column is -4 * sigma_1(2) = -12
    assert a.coefficient(2, 16) == -12
    assert all(d % 2 == 0 and d >= 2 for d, _ in a.terms)
    assert q0_slice(theta_log("t2", 2, 4)) == [0] * 5


def termwise_sum(a, b):
    """``a + b`` on the ``Fraction`` views, cut to the smaller bounds."""
    zb, qb = min(a.z_bound, b.z_bound), min(a.q_bound, b.q_bound)
    out = {}
    for f in (a, b):
        for (d, k), c in f.terms.items():
            if d <= zb and k <= qb:
                out[(d, k)] = out.get((d, k), 0) + c
    return {dk: c for dk, c in out.items() if c}


@st.composite
def logs(draw):
    """A log-shaped factor on lattice step 4 or 8, with its own z- and q-bounds."""
    step = draw(st.sampled_from([4, 8]))
    position = st.tuples(st.sampled_from([2, 4, 6, 8]), st.integers(0, 8).map(lambda i: step * i))
    coeff = st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                      st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 10 ** 9)))
    terms = draw(st.dictionaries(position, coeff, max_size=10))
    return RootFactor(terms, draw(st.integers(2, 8)), draw(st.sampled_from([0, 8, 12, 16, 24, 32])))


@settings(max_examples=100, deadline=None, database=None)
@given(logs(), logs())
def test_root_factor_addition_is_termwise(a, b):
    """The integer-column sum equals the termwise ``Fraction`` sum, and every column is reduced."""
    got = a + b
    assert (got.z_bound, got.q_bound) == (min(a.z_bound, b.z_bound), min(a.q_bound, b.q_bound))
    assert got.terms == termwise_sum(a, b)
    for c in got.cols.values():
        assert any(c.cols[0]) and gcd(c.den, *c.cols[0]) == 1


@pytest.mark.parametrize("kinds", [("a", "t1"), ("a", "t2"), ("t1", "t2"), ("t2", "t3")])
def test_theta_log_sums_are_termwise(kinds):
    """Logs on steps 8 and 4, with unequal orders and z-bounds, add as their ``Fraction`` views."""
    a, b = theta_log(kinds[0], 5, 8), theta_log(kinds[1], 3, 6)
    assert (a + b).terms == termwise_sum(a, b)

