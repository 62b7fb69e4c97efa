import gc
import random
import weakref
from fractions import Fraction

import pytest

from anomcancel.algebra import ONE, AlgebraError, Generator, GeneratorTable, GradedPolynomial, QColumns, dot, mul_sum
from anomcancel.genus import build_generator_table


def table4():
    return build_generator_table(4, 2, True, 4)


def test_gp_product_and_truncation():
    t = table4()
    one = GradedPolynomial.one(t)
    n1 = GradedPolynomial.generator("nM1", t)
    assert (one + n1) * (one - n1) == one - n1 * n1
    # weight-4 product dies at truncation 2
    n1w2 = GradedPolynomial.generator("nM1", GeneratorTable(t.gens, 2))
    assert not (n1w2 * n1w2)
    assert n1.scale(2 ** 5) == n1.scale(32)


def test_gp_component():
    t = table4()
    n1 = GradedPolynomial.generator("nM1", t)
    p = GradedPolynomial.one(t) + n1 + n1 * n1
    assert p.component(2) == n1
    assert p.component(0) == GradedPolynomial.one(t)
    w = GradedPolynomial.generator("w", t)
    q = w ** 3 + w
    assert q.component(3) == w ** 3


def test_substitute_examples():
    t = table4()
    nm = GradedPolynomial.generator("nM1", t)
    nv = GradedPolynomial.generator("nV1", t)
    w = GradedPolynomial.generator("w", t)
    zero = GradedPolynomial.zero(t)
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
    nm = GradedPolynomial.generator("nM1", t)
    w = GradedPolynomial.generator("w", t)
    p = nm * w + w ** 3
    assert p.substitute("nV1", w * w) is p
    zero = GradedPolynomial.zero(t)
    assert zero.substitute("nM1", nm) is zero
    with pytest.raises(AlgebraError):
        p.substitute("nV1", w)                                   # weight 1 != 2
    with pytest.raises(AlgebraError):
        p.substitute("nV1", GradedPolynomial.generator("nV1", GeneratorTable(t.gens, W - 1)))   # another cap
    with pytest.raises(AlgebraError):
        p.substitute("nope", zero)


def test_standard_basis_map_and_roundtrip():
    t = table4()
    n1 = GradedPolynomial.generator("nM1", t)
    std = n1.to_standard_basis()
    assert std.to_text() == "-1/4*pM1"
    n2 = GradedPolynomial.generator("nM2", t)
    assert n2.to_standard_basis().to_text() == "1/16*pM2"
    w2 = GradedPolynomial.generator("w", t, power=2)
    assert w2.to_standard_basis().to_text() == "1/4*c^2"
    rng = random.Random(7)
    for _ in range(20):
        # a map that only rescales each monomial by a nonzero scalar is invertible
        p = _random_poly(t, rng)
        assert p.to_standard_basis().terms.keys() == p.terms.keys()


def _random_poly(t, rng, n_terms=5):
    p = GradedPolynomial.zero(t)
    names = [g.name for g in t.gens]
    for _ in range(n_terms):
        g = GradedPolynomial.scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 4)), t)
        for _ in range(rng.randint(0, 2)):
            g = g * GradedPolynomial.generator(rng.choice(names), t)
        p = p + g
    return p


def test_ring_axioms_randomized():
    t = table4()
    rng = random.Random(11)
    for _ in range(15):
        a, b, c = (_random_poly(t, rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_substitute_is_homomorphism():
    t = table4()
    rng = random.Random(13)
    w = GradedPolynomial.generator("w", t)
    nv = GradedPolynomial.generator("nV1", t)
    repl = w * w + nv.scale(3)
    for _ in range(10):
        f, g = _random_poly(t, rng), _random_poly(t, rng)
        lhs = (f * g).substitute("nM1", repl)
        rhs = f.substitute("nM1", repl) * g.substitute("nM1", repl)
        assert lhs == rhs


def test_float_coefficients_rejected():
    t = table4()
    n1 = GradedPolynomial.generator("nM1", t)
    with pytest.raises(TypeError):
        GradedPolynomial.scalar(0.5, t)
    with pytest.raises(TypeError):
        GradedPolynomial(t, {next(iter(n1.terms)): 0.5})
    with pytest.raises(TypeError):
        n1.scale(0.5)


@pytest.mark.parametrize("value", [0.5, "x", None])
def test_non_ring_operand_is_a_type_error(value):
    """Arithmetic with anything but an int, a ``Fraction`` or a polynomial is left to Python: ``TypeError``."""
    n1 = GradedPolynomial.generator("nM1", table4())
    for op in (lambda: n1 + value, lambda: value + n1, lambda: n1 - value, lambda: value - n1,
               lambda: n1 * value, lambda: value * n1):
        with pytest.raises(TypeError):
            op()


def test_standard_basis_needs_power_of_two_factors():
    """The basis change shifts numerators, so a generator factor that is not +-2^k is refused."""
    x = GeneratorTable([Generator("x", 2, "p", Fraction(-1, 4)), Generator("w", 1, "c", Fraction(2))], 4)
    px = GradedPolynomial.generator("x", x)
    assert (px * px).scale(Fraction(5, 3)).to_standard_basis().terms == {(2, 0): Fraction(5, 48)}
    mixed = px + px.one_like() + GradedPolynomial.generator("w", x)    # shifts of -2, 0 and +1
    assert mixed.scale(Fraction(1, 6)).to_standard_basis().terms == {
        (0, 0): Fraction(1, 6), (1, 0): Fraction(-1, 24), (0, 1): Fraction(1, 3)}
    # two rings with the same standard names and weights have one standard table
    x2 = GeneratorTable([Generator("x2", 2, "p", Fraction(4)), Generator("w", 1, "c", Fraction(1, 2))], 4)
    assert x2 is not x and x2.standard_table is x.standard_table
    px2 = GradedPolynomial.generator("x2", x2)
    assert (px * px).to_standard_basis() == (px2 * px2).scale(Fraction(1, 256)).to_standard_basis()
    y = GeneratorTable([Generator("y", 2, "q", Fraction(3))], 4)
    with pytest.raises(AlgebraError):
        GradedPolynomial.generator("y", y).to_standard_basis()


def test_table_and_cap_mismatch_rejected():
    t = table4()
    other = build_generator_table(4, 2, False, 4)
    a = GradedPolynomial.generator("nM1", t)
    for b in (GradedPolynomial.generator("nM1", other), GradedPolynomial.generator("nM1", GeneratorTable(t.gens, 6))):
        with pytest.raises(AlgebraError, match="generator table mismatch"):
            a * b
        with pytest.raises(AlgebraError, match="generator table mismatch"):
            a + b
        with pytest.raises(AlgebraError, match="generator table mismatch"):
            dot([(a, a), (a, b)], t)
        with pytest.raises(AlgebraError, match="generator table mismatch"):
            dot([(b, a)], t)
        with pytest.raises(AlgebraError, match="generator table mismatch"):
            mul_sum([(QColumns.of(a), ONE, 1, [(0, 1)]), (ONE, QColumns.of(b), 1, [(0, 1)])])
    # packed keys of two rings may coincide: w on one table and nV1 on another multiply to key 530,
    # which reads as nM1^2*nV1^2 on the first and as w on the second
    w = QColumns.of(GradedPolynomial.generator("w", build_generator_table(1, 0, True, 2)))
    nv1 = QColumns.of(GradedPolynomial.generator("nV1", build_generator_table(2, 1, True, 4)))
    with pytest.raises(AlgebraError, match="generator table mismatch"):
        mul_sum([(w, nv1, 1, [(0, 1)])])
    # an equal table, rebuilt, is the same object and so the same ring, and a scalar operand fits any ring
    twin = GradedPolynomial.generator("nM1", build_generator_table(4, 2, True, 4))
    assert GeneratorTable(t.gens, t.cap) is t and GeneratorTable(list(t.gens), t.cap) is t
    assert twin.table is t and a * twin == a * a and dot([(twin, a)], t) == a * a
    packed = mul_sum([(QColumns.of(twin), QColumns.of(a), 1, [(0, 1)]), (ONE, ONE, 1, [(0, 1)])])
    assert packed.table is t and packed.coefficient(0) == a * a + 1


def test_a_table_nothing_refers_to_is_freed():
    """Tables are kept one per ring only while something refers to them: the registry holds them weakly."""
    gens = (Generator("z", 3, "p", Fraction(1)), Generator("y", 1, "c", Fraction(2)))
    t = GeneratorTable(gens, 7)
    ref = weakref.ref(t)
    assert GeneratorTable(list(gens), 7) is t and GeneratorTable(gens, 6) is not t
    del t
    gc.collect()
    assert ref() is None


def test_dot_rescales_each_pair_to_the_common_denominator():
    t = table4()
    n1 = GradedPolynomial.generator("nM1", t)
    w = GradedPolynomial.generator("w", t)
    half, third = n1.scale(Fraction(1, 2)), w.scale(Fraction(1, 3))
    got = dot([(half.scale(Fraction(3, 5)), third), (w, w), (third.scale(7), third)], t)
    assert got == half * third * Fraction(3, 5) + w * w + third * third * 7
    assert got.terms[(1, 0, 0, 0, 1)] == Fraction(1, 10)
    assert got.terms[(0, 0, 0, 0, 2)] == Fraction(16, 9)
