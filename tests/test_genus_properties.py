"""Property tests for the one exp behind ``prod_over_roots``, ``eval_at_var`` and the P-series."""

from hypothesis import given, settings
from hypothesis import strategies as st

from anomcancel.genus import (CONSTRAINT_KINDS, FAMILY_TM, FAMILY_V, LINE, RootFamily,
                              apply_constraint, build_generator_table, constrained_power_sums,
                              eval_at_var, exp_over_roots, prod_over_roots)
from anomcancel.theta import RootFactor
from helpers import naive_exp_over_roots

W = 6
ORDER = 2
BOUND = 8 * ORDER
TABLE = build_generator_table(3, 1, True, W)

coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=4)
positions = st.tuples(st.sampled_from([2, 4, 6]), st.sampled_from([0, 4, 8, 12, 16]))
# logs of even per-root factors with f(0) = 1: even z-degree >= 2
logs = st.dictionaries(positions, coeffs, max_size=6).map(lambda t: RootFactor(t, W, BOUND))
families = st.integers(1, 3).map(lambda n: RootFamily(FAMILY_TM, n))

PROPERTY = settings(max_examples=40, deadline=None, database=None)


@PROPERTY
@given(logs, logs, families)
def test_exp_turns_sums_of_logs_into_products(a, b, fam):
    assert prod_over_roots(a + b, fam, TABLE, W, ORDER) == (
        prod_over_roots(a, fam, TABLE, W, ORDER) * prod_over_roots(b, fam, TABLE, W, ORDER))


@PROPERTY
@given(logs, families)
def test_recurrence_matches_naive_exp(log, fam):
    got = prod_over_roots(log, fam, TABLE, W, ORDER)
    assert got == naive_exp_over_roots(log.terms, fam.n_roots, "nM", TABLE, W, BOUND)


@PROPERTY
@given(logs, logs)
def test_line_evaluation_turns_sums_of_logs_into_products(a, b):
    assert eval_at_var(a + b, TABLE, W, ORDER) == (
        eval_at_var(a, TABLE, W, ORDER) * eval_at_var(b, TABLE, W, ORDER))


RELATION_TABLE = build_generator_table(3, 2, True, W)
any_family = st.one_of(families, st.integers(1, 2).map(lambda n: RootFamily(FAMILY_V, n)), st.just(LINE))


@PROPERTY
@given(logs, any_family, st.sampled_from(CONSTRAINT_KINDS))
def test_relation_on_power_sums_is_relation_on_the_product(log, fam, kind):
    plain = prod_over_roots(log, fam, RELATION_TABLE, W, ORDER)
    expected = plain.map_coefficients(lambda p: apply_constraint(p, kind))
    sums = constrained_power_sums(fam, kind, RELATION_TABLE, W)
    assert exp_over_roots([(log, sums)], RELATION_TABLE, W, ORDER) == expected


@PROPERTY
@given(logs, logs, any_family, any_family)
def test_one_exp_over_two_families_is_the_product(a, b, fam_a, fam_b):
    sums = [constrained_power_sums(fam, "spinc4k", RELATION_TABLE, W) for fam in (fam_a, fam_b)]
    both = exp_over_roots([(a, sums[0]), (b, sums[1])], RELATION_TABLE, W, ORDER)
    assert both == (exp_over_roots([(a, sums[0])], RELATION_TABLE, W, ORDER)
                    * exp_over_roots([(b, sums[1])], RELATION_TABLE, W, ORDER))
