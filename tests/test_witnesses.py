"""Characteristic numbers of the spin^c divisibility witnesses on products of CP^1.

Each witness is an admissible manifold and bundle for the theorem's setting:
``c = w2(M)`` and ``w2(V) = 0`` mod 2, and the setting's relation
(:func:`~anomcancel.genus.constraint_replacement`) holds as a degree-4 class.
On it the verified ``h_0`` and the constant-term side are integers; their
2-adic valuations are what the divisibility corollaries 4.4 and 4.9 bound.
"""

from fractions import Fraction

import pytest

from anomcancel.algebra import GradedPolynomial
from anomcancel.anomaly import get_env, verify_theorem
from anomcancel.genus import build_generator_table, constraint_replacement

from helpers import cp1_characteristic_number

# theorem, k, l, c, c1 of the lines of V (coefficients of x_1..x_r), h_0, constant_term_lhs
WITNESSES = [
    ("4.1", 1, 2, (2, 2), [(3, -2), (3, -2)], -1, -8),
    ("4.6", 1, 3, (2, 2, 2), [(-3, -2, 2), (-3, 2, -2), (-2, 2, 2)], -1, -16),
]


@pytest.mark.parametrize("theorem,k,l,c,lines,h0,lhs", WITNESSES, ids=[w[0] for w in WITNESSES])
def test_divisibility_witness(theorem, k, l, c, lines, h0, lhs):
    report = verify_theorem(theorem, k=k, l=l)
    assert report.status == "PASS"
    s = report.setting
    env = get_env(s)
    assert (len(c), len(lines)) == (s.weight, s.l)           # M = (CP^1)^W, V of rank 2l
    # admissible: c = w2(M) = 0 (w2(CP^1) = 2x) and w2(V) = sum_j c1(L_j) = 0, mod 2
    assert all(a % 2 == 0 for a in c)
    assert all(sum(col) % 2 == 0 for col in zip(*lines))
    name, repl = constraint_replacement(s.kind, env.table)
    relation = GradedPolynomial.generator(name, env.table) - repl
    assert cp1_characteristic_number(relation.to_standard_basis(), c, lines, top=False) == {}

    def number(poly):
        return cp1_characteristic_number(poly.to_standard_basis(), c, lines)

    assert number(report.h[0]) == h0
    assert number(env.constant_term_lhs) == lhs
    assert all(number(h).denominator == 1 for h in report.h)


def test_evaluator_is_a_ring_map():
    """On (CP^1)^4 with c = 2(x_1 + ... + x_4), c1(L_1) = x_1 + x_2 and c1(L_2) = x_3 + x_4.

    The squares ``c1(L_j)^2`` are ``2x_1x_2`` and ``2x_3x_4``.
    """
    table = build_generator_table(4, 2, True, 4)
    c, lines = (2, 2, 2, 2), [(1, 1, 0, 0), (0, 0, 1, 1)]

    def gen(name, power=1):
        return GradedPolynomial.generator(name, table, power=power).to_standard_basis()

    assert gen("nM1") and cp1_characteristic_number(gen("nM1"), c, lines, top=False) == {}
    # p1(V) = -4 nV1 and p2(V) = 16 nV2 (standard factors)
    assert cp1_characteristic_number(gen("nV1", 2), c, lines) == Fraction(8, 16)    # p1(V)^2 = 8
    assert cp1_characteristic_number(gen("nV2"), c, lines) == Fraction(4, 16)       # p2(V) = 4
    assert cp1_characteristic_number(gen("w", 4), c, lines) == Fraction(384, 16)     # c^4 = 16 * 4!
    # c^2 = 8 e_2(x), so c^2 p1(V) = 2 * 16 x_1x_2x_3x_4, and w^2 nV1 = -c^2 p1(V)/16
    assert cp1_characteristic_number(gen("w", 2) * gen("nV1"), c, lines) == -2
