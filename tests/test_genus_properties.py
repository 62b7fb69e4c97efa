"""Property tests for the one exp behind ``prod_over_roots`` and ``eval_at_var``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from anomcancel.genus import FAMILY_TM, RootFamily, build_generator_table, eval_at_var, prod_over_roots
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
