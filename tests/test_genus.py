import random
from fractions import Fraction

import pytest

from anomcancel.algebra import AlgebraError, GradedPolynomial
from anomcancel.genus import (FAMILY_TM, FAMILY_W, LINE, RootFamily, additive_over_roots,
                              apply_constraint, build_generator_table, classical_genus,
                              eval_at_var, exp_by_weight, power_sums_gp, prod_over_roots)
from anomcancel.qseries import TruncationError
from anomcancel.theta import RootFactor, theta_log

from helpers import (TermSeries, bivariate_mul, brute_force_prod, eval_factor_at_w,
                     monomial_symmetric_prod, product_factor, series_log)


def test_prod_simple_polynomial_factor():
    table = build_generator_table(2, 1, False, 4)
    # log(1 + z^2) = z^2 - z^4/2 through z^4
    log = RootFactor(series_log({(0, 0): 1, (2, 0): 1}, 4, 0), 4, 0)
    assert log.terms == {(2, 0): 1, (4, 0): Fraction(-1, 2)}
    out = prod_over_roots(log, RootFamily(FAMILY_TM, 2), table, 0)
    n1 = GradedPolynomial.generator("nM1", table)
    n2 = GradedPolynomial.generator("nM2", table)
    assert out.coefficient(0) == GradedPolynomial.one(table) + n1 + n2


def test_prod_rejects_bad_factors():
    table = build_generator_table(2, 1, False, 4)
    fam = RootFamily(FAMILY_TM, 2)
    odd = RootFactor({(1, 0): 1, (2, 0): 1}, 4, 0)
    with pytest.raises(AlgebraError):
        prod_over_roots(odd, fam, table, 0)
    # a z^0 term is a log of a factor with f(0) != 1
    nonunit = RootFactor({(0, 0): Fraction(2), (2, 0): 1}, 4, 0)
    with pytest.raises(AlgebraError):
        prod_over_roots(nonunit, fam, table, 0)
    # a log known only through z^2 cannot give weight 4
    short = RootFactor({(2, 0): 1}, 2, 0)
    with pytest.raises(AlgebraError):
        prod_over_roots(short, fam, table, 0)
    with pytest.raises(AlgebraError):
        eval_at_var(odd, build_generator_table(2, 1, True, 4), 0)


@pytest.mark.parametrize("kind,log_order,order,bound", [
    ("t2", 0, 0, 0),      # a log with no column: every piece past F_0 has no product
    ("a", 5, 3, 24),      # the log runs further than the exp
    ("t1", 2, 4, 16),     # the log runs shorter than the exp
])
def test_exp_pieces_carry_the_exp_bound(kind, log_order, order, bound):
    """Every weight piece of an exp is known through q^order or the log's bound, whichever is
    less, even a piece with no product, and a packed read past that bound raises."""
    table = build_generator_table(2, 0, False, 4)
    sums = power_sums_gp(RootFamily(FAMILY_TM, 2), table)
    pieces = exp_by_weight([(theta_log(kind, log_order, 4), sums)], order)
    assert [f.bound for f in pieces] == [bound] * 3
    assert all(f.table is table for f in pieces)
    for f in pieces:
        with pytest.raises(TruncationError):
            f.coefficient(bound + 4)


def test_classical_genera():
    table = build_generator_table(2, 1, False, 4)
    fam = RootFamily(FAMILY_TM, 2)
    ahat = classical_genus("ahat", fam, table)
    n1 = GradedPolynomial.generator("nM1", table)
    assert ahat.component(2) == n1.scale(Fraction(1, 6))
    assert ahat.constant_term() == 1
    # in the standard basis the weight-2 part is -p1/24
    assert ahat.component(2).to_standard_basis().to_text() == "-1/24*pM1"
    sp = classical_genus("spinor_ch", fam, table)
    assert sp.constant_term() == Fraction(4)
    # ahat * spinor is prod 2 z_j cot z_j, and 2 z cot z = 2 - 2/3 z^2 - 2/45 z^4 + O(z^6)
    n2 = GradedPolynomial.generator("nM2", table)
    assert ahat * sp == (n1.scale(Fraction(-4, 3)) + n2.scale(Fraction(28, 45))
                         + (n1 * n1).scale(Fraction(-4, 45)) + 4)
    one_root = RootFamily(FAMILY_TM, 1)
    lh1 = classical_genus("ahat", one_root, table) * classical_genus("spinor_ch", one_root, table)
    assert lh1 == n1.scale(Fraction(-2, 3)) + (n1 * n1).scale(Fraction(-2, 45)) + 2


def test_exp_half_c():
    table = build_generator_table(2, 1, True, 3)
    e = classical_genus("exp_half_c", RootFamily(FAMILY_TM, 2), table)
    w = GradedPolynomial.generator("w", table)
    # e^{iu} with u = -i*w is e^{w}
    assert e.component(0) == GradedPolynomial.one(table)
    assert e.component(1) == w
    assert e.component(2) == (w * w).scale(Fraction(1, 2))


def test_additive_over_roots():
    table = build_generator_table(4, 1, False, 4)
    fam = RootFamily(FAMILY_TM, 4)
    assert additive_over_roots([Fraction(1)], fam, table).constant_term() == Fraction(4)
    n1 = GradedPolynomial.generator("nM1", table)
    assert additive_over_roots([Fraction(0), Fraction(1)], fam, table) == n1
    # 2cos(2z) - 2 has weight-2 part -4 n1
    g = [Fraction(0), Fraction(-4), Fraction(Fraction(4, 3))]
    out = additive_over_roots(g, fam, table)
    assert out.component(2) == n1.scale(-4)


def test_eval_at_var():
    table = build_generator_table(2, 1, True, 3)
    t2 = eval_at_var(theta_log("t2", 3, 3), table, 3)
    assert t2.coefficient(0) == GradedPolynomial.one(table)
    w = GradedPolynomial.generator("w", table)
    d = TermSeries.of(eval_at_var(theta_log("d", 3, 3), table, 3)).scale(w.terms)
    # the odd factor enters as w * exp(log(d/z) at u) = i * sin(u) = i * sin(-i*w) = w + w^3/6
    assert d.terms[0] == (w + (w ** 3).scale(Fraction(1, 6))).terms
    # and renders as c/2 + c^3/48 in the standard basis
    assert GradedPolynomial(table, d.terms[0]).to_standard_basis().to_text() == "1/2*c + 1/48*c^3"


def test_prod_multiplicativity_randomized():
    table = build_generator_table(3, 1, False, 6)
    fam = RootFamily(FAMILY_TM, 3)
    rng = random.Random(23)
    for _ in range(4):
        def rand_log():
            terms = {}
            for d in (2, 4, 6):
                for k in (0, 4, 8):
                    if rng.random() < 0.5:
                        terms[(d, k)] = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
            return RootFactor(terms, 6, 16)
        f, g = rand_log(), rand_log()
        # the log of a product is the sum of the logs
        lhs = TermSeries.of(prod_over_roots(f + g, fam, table, 2))
        rhs = (TermSeries.of(prod_over_roots(f, fam, table, 2))
               * TermSeries.of(prod_over_roots(g, fam, table, 2)))
        assert lhs == rhs


@pytest.mark.parametrize("n_roots,kind", [(1, "a"), (2, "a"), (3, "a"),
                                          (1, "t2"), (2, "t2"), (3, "t2"),
                                          (2, "t1"), (3, "t3")])
def test_brute_force_oracle(n_roots, kind):
    """Explicit-root expansion agrees with the log/Newton/exp engine."""
    W = 6
    table = build_generator_table(n_roots, 1, False, W)
    fam = RootFamily(FAMILY_TM, n_roots)
    engine = prod_over_roots(theta_log(kind, 2, W), fam, table, 2)
    oracle = brute_force_prod(product_factor(kind, 2, W), n_roots, "nM", table, W, 2)
    assert TermSeries.of(engine) == oracle


@pytest.mark.parametrize("k", [6, 8])
@pytest.mark.parametrize("kind", ["a", "t2"])
def test_monomial_symmetric_oracle_at_scale(kind, k):
    """Over the 2k tangent roots of dimension 4k, the exp equals the sum over partitions
    of the product-built factor's columns times the monomial symmetric functions."""
    W, order = 2 * k, k + 2
    table = build_generator_table(2 * k, 0, False, W)
    engine = prod_over_roots(theta_log(kind, order, W), RootFamily(FAMILY_TM, 2 * k), table, order)
    oracle = monomial_symmetric_prod(product_factor(kind, order, W), 2 * k, "nM", table, W, order)
    assert TermSeries.of(engine) == oracle


@pytest.mark.parametrize("order,W", [(2, 6), (3, 7), (4, 4)])
def test_eval_at_var_matches_product_oracle(order, W):
    """One exp of the summed t1+t2+t3 logs (and of log(d/z), times w) at the line root
    equals the product-built factors read at ``z = -i*w``."""
    table = build_generator_table(1, 1, True, W)
    bound = 8 * order
    logs = theta_log("t1", order, W) + theta_log("t2", order, W) + theta_log("t3", order, W)
    t1, t2, t3 = (product_factor(kind, order, W).terms for kind in ("t1", "t2", "t3"))
    product = RootFactor(bivariate_mul(bivariate_mul(t1, t2, W, bound), t3, W, bound), W, bound)
    assert TermSeries.of(eval_at_var(logs, table, order)) == eval_factor_at_w(product, table, W, bound)
    w = GradedPolynomial.generator("w", table)
    odd = TermSeries.of(eval_at_var(theta_log("d", order, W), table, order)).scale(w.terms)
    assert odd == eval_factor_at_w(product_factor("d", order, W), table, W, bound)


def test_constraints():
    table = build_generator_table(2, 2, True, 4)
    nv1 = GradedPolynomial.generator("nV1", table)
    nm1 = GradedPolynomial.generator("nM1", table)
    w = GradedPolynomial.generator("w", table)
    assert apply_constraint(nv1, "spin4k") == GradedPolynomial.zero(table)
    assert apply_constraint(nm1 + (w * w).scale(3), "spinc4k") == nv1
    assert apply_constraint(nm1 * nm1, "spinc4k2") == (nv1 - w * w) ** 2
    series = prod_over_roots(theta_log("t2", 1, 4), RootFamily(FAMILY_TM, 2), table, 1)
    with pytest.raises(AlgebraError):
        apply_constraint(series, "spinc4k")   # a series takes the relation through its root families


def test_line_is_a_one_root_family():
    table = build_generator_table(2, 1, True, 6)
    w2 = GradedPolynomial.generator("w", table, power=2)
    assert power_sums_gp(LINE, table) == (w2.one_like(), -w2, w2 * w2, -(w2 ** 3))
    with pytest.raises(AlgebraError):
        RootFamily(FAMILY_W, 2)


def test_constraint_is_ring_homomorphism():
    table = build_generator_table(2, 2, True, 4)
    rng = random.Random(31)
    names = [g.name for g in table.gens]
    def rand_poly():
        p = GradedPolynomial.zero(table)
        for _ in range(5):
            t = GradedPolynomial.scalar(rng.randint(-5, 5), table)
            for _ in range(rng.randint(0, 2)):
                t = t * GradedPolynomial.generator(rng.choice(names), table)
            p = p + t
        return p
    for kind in ("spin4k", "spinc4k", "spinc4k2"):
        for _ in range(5):
            f, g = rand_poly(), rand_poly()
            assert apply_constraint(f * g, kind) == apply_constraint(f, kind) * apply_constraint(g, kind)
            assert apply_constraint(f + g, kind) == apply_constraint(f, kind) + apply_constraint(g, kind)
