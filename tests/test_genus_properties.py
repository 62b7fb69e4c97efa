"""Property tests for the one exp behind ``prod_over_roots``, ``eval_at_var`` and the P-series."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from anomcancel.genus import (CONSTRAINT_KINDS, FAMILY_TM, FAMILY_V, LINE, RootFamily,
                              apply_constraint, build_generator_table, eval_at_var, exp_by_weight,
                              power_sums_gp, prod_over_roots)
from anomcancel.qseries import PuiseuxSeries
from anomcancel.theta import RootFactor
from helpers import TermSeries, naive_exp_over_roots

W = 6
ORDER = 2
BOUND = 8 * ORDER
TABLE = build_generator_table(3, 1, True, W)

# small coefficients, and wide ones whose exps need packed fields of hundreds of bits
coeffs = st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                   st.builds(Fraction, st.integers(-2 ** 128, 2 ** 128), st.integers(1, 10 ** 6)))
positions = st.tuples(st.sampled_from([2, 4, 6]), st.sampled_from([0, 4, 8, 12, 16]))
# logs of even per-root factors with f(0) = 1: even z-degree >= 2
logs = st.dictionaries(positions, coeffs, max_size=6).map(lambda t: RootFactor(t, W, BOUND))
families = st.integers(1, 3).map(lambda n: RootFamily(FAMILY_TM, n))

PROPERTY = settings(max_examples=40, deadline=None, database=None)


@PROPERTY
@given(logs, logs, families)
def test_exp_turns_sums_of_logs_into_products(a, b, fam):
    def prod(log):
        return TermSeries.of(prod_over_roots(log, fam, TABLE, ORDER))

    assert prod(a + b) == prod(a) * prod(b)


@PROPERTY
@given(logs, families)
def test_recurrence_matches_naive_exp(log, fam):
    got = prod_over_roots(log, fam, TABLE, ORDER)
    assert TermSeries.of(got) == naive_exp_over_roots(log.terms, fam.n_roots, "nM", TABLE, W, BOUND)


@PROPERTY
@given(logs, logs)
def test_line_evaluation_turns_sums_of_logs_into_products(a, b):
    def at_line(log):
        return TermSeries.of(eval_at_var(log, TABLE, ORDER))

    assert at_line(a + b) == at_line(a) * at_line(b)


RELATION_TABLE = build_generator_table(3, 2, True, W)
any_family = st.one_of(families, st.integers(1, 2).map(lambda n: RootFamily(FAMILY_V, n)), st.just(LINE))


def one_exp(logs):
    """The one exp over ``logs`` as an oracle series on ``RELATION_TABLE``."""
    return TermSeries.of(PuiseuxSeries.from_pieces(exp_by_weight(logs, ORDER)))


def constrained_power_sums(fam, kind):
    """The family's power sums with the setting's relation on its elementary classes."""
    return power_sums_gp(RootFamily(fam.family, fam.n_roots, kind), RELATION_TABLE)


@PROPERTY
@given(logs, any_family, st.sampled_from(CONSTRAINT_KINDS))
def test_relation_on_power_sums_is_relation_on_the_product(log, fam, kind):
    plain = prod_over_roots(log, fam, RELATION_TABLE, ORDER)
    expected = TermSeries({k: apply_constraint(p, kind).terms for k, p in plain.terms.items()},
                          plain.order_bound, RELATION_TABLE, W)
    sums = constrained_power_sums(fam, kind)
    assert one_exp([(log, sums)]) == expected


@PROPERTY
@given(logs, logs, any_family, any_family)
def test_one_exp_over_two_families_is_the_product(a, b, fam_a, fam_b):
    sums = [constrained_power_sums(fam, "spinc4k") for fam in (fam_a, fam_b)]
    both = one_exp([(a, sums[0]), (b, sums[1])])
    assert both == one_exp([(a, sums[0])]) * one_exp([(b, sums[1])])
