import random
from fractions import Fraction

import pytest

from anomcancel.algebra import AlgebraError, GradedPolynomial, dot
from anomcancel.genus import build_generator_table


def table4():
    return build_generator_table(4, 2, True, 4)


def test_gp_product_and_truncation():
    t = table4()
    one = GradedPolynomial.one(t, 4)
    n1 = GradedPolynomial.generator("nM1", t, 4)
    assert (one + n1) * (one - n1) == one - n1 * n1
    # weight-4 product dies at truncation 2
    n1w2 = GradedPolynomial.generator("nM1", t, 2)
    assert not (n1w2 * n1w2)
    assert n1.scale(2 ** 5) == n1.scale(32)


def test_gp_component():
    t = table4()
    n1 = GradedPolynomial.generator("nM1", t, 4)
    p = GradedPolynomial.one(t, 4) + n1 + n1 * n1
    assert p.component(2) == n1
    assert p.component(0) == GradedPolynomial.one(t, 4)
    w = GradedPolynomial.generator("w", t, 4)
    q = w ** 3 + w
    assert q.component(3) == w ** 3


def test_substitute_examples():
    t = table4()
    W = 4
    nm = GradedPolynomial.generator("nM1", t, W)
    nv = GradedPolynomial.generator("nV1", t, W)
    w = GradedPolynomial.generator("w", t, W)
    zero = GradedPolynomial.zero(t, W)
    assert (nv * nm).substitute("nV1", zero) == zero
    repl = w * w + nv
    assert nm.substitute("nM1", repl) == repl
    expanded = (nm * nm).substitute("nM1", repl)
    assert expanded == w ** 4 + (w * w * nv).scale(2) + nv * nv
    with pytest.raises(AlgebraError):
        nm.substitute("nM1", w)  # weight 1 != 2


def test_substitute_without_the_generator_returns_self_after_the_checks():
    t = table4()
    W = 4
    nm = GradedPolynomial.generator("nM1", t, W)
    w = GradedPolynomial.generator("w", t, W)
    p = nm * w + w ** 3
    assert p.substitute("nV1", w * w) is p
    zero = GradedPolynomial.zero(t, W)
    assert zero.substitute("nM1", nm) is zero
    with pytest.raises(AlgebraError):
        p.substitute("nV1", w)                                   # weight 1 != 2
    with pytest.raises(AlgebraError):
        p.substitute("nV1", GradedPolynomial.generator("nV1", t, W - 1))   # another truncation
    with pytest.raises(AlgebraError):
        p.substitute("nope", zero)


def test_standard_basis_map_and_roundtrip():
    t = table4()
    n1 = GradedPolynomial.generator("nM1", t, 4)
    std = n1.to_standard_basis()
    assert std.to_text() == "-1/4*pM1"
    n2 = GradedPolynomial.generator("nM2", t, 4)
    assert n2.to_standard_basis().to_text() == "1/16*pM2"
    w2 = GradedPolynomial.generator("w", t, 4, power=2)
    assert w2.to_standard_basis().to_text() == "1/4*c^2"
    rng = random.Random(7)
    for _ in range(20):
        p = _random_poly(t, 4, rng)
        assert p.to_standard_basis().from_standard_basis(t) == p


def _random_poly(t, W, rng, n_terms=5):
    p = GradedPolynomial.zero(t, W)
    names = [g.name for g in t.gens]
    for _ in range(n_terms):
        g = GradedPolynomial.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), t, W)
        for _ in range(rng.randint(0, 2)):
            g = g * GradedPolynomial.generator(rng.choice(names), t, W)
        p = p + g
    return p


def test_ring_axioms_randomized():
    t = table4()
    rng = random.Random(11)
    for _ in range(15):
        a, b, c = (_random_poly(t, 4, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_substitute_is_homomorphism():
    t = table4()
    rng = random.Random(13)
    w = GradedPolynomial.generator("w", t, 4)
    nv = GradedPolynomial.generator("nV1", t, 4)
    repl = w * w + nv.scale(3)
    for _ in range(10):
        f, g = _random_poly(t, 4, rng), _random_poly(t, 4, rng)
        lhs = (f * g).substitute("nM1", repl)
        rhs = f.substitute("nM1", repl) * g.substitute("nM1", repl)
        assert lhs == rhs


def test_float_coefficients_rejected():
    t = table4()
    n1 = GradedPolynomial.generator("nM1", t, 4)
    with pytest.raises(TypeError):
        GradedPolynomial.scalar(0.5, t, 4)
    with pytest.raises(TypeError):
        GradedPolynomial(t, {n1.sorted_terms()[0][0]: 0.5}, 4)
    with pytest.raises(TypeError):
        n1.scale(0.5)


def test_table_and_cap_mismatch_rejected():
    t = table4()
    other = build_generator_table(4, 2, False, 4)
    a = GradedPolynomial.generator("nM1", t, 4)
    for b in (GradedPolynomial.generator("nM1", other, 4), GradedPolynomial.generator("nM1", t, 6)):
        with pytest.raises(AlgebraError):
            a * b
        with pytest.raises(AlgebraError):
            a + b
        with pytest.raises(AlgebraError):
            dot([(a, a), (a, b)], t, 4)
        with pytest.raises(AlgebraError):
            dot([(b, a)], t, 4)
    # an equal table that is a different object is the same ring
    twin = GradedPolynomial.generator("nM1", build_generator_table(4, 2, True, 4), 4)
    assert twin.table is not t and a * twin == a * a and dot([(twin, a)], t, 4) == a * a


def test_dot_rescales_each_pair_to_the_common_denominator():
    t = table4()
    n1 = GradedPolynomial.generator("nM1", t, 4)
    w = GradedPolynomial.generator("w", t, 4)
    half, third = n1.scale(Fraction(1, 2)), w.scale(Fraction(1, 3))
    got = dot([(half.scale(Fraction(3, 5)), third), (w, w), (third.scale(7), third)], t, 4)
    assert got == half * third * Fraction(3, 5) + w * w + third * third * 7
    assert got.terms[(1, 0, 0, 0, 1)] == Fraction(1, 10)
    assert got.terms[(0, 0, 0, 0, 2)] == Fraction(16, 9)
