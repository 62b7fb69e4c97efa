"""Independent oracles used by the tests.

Nothing here shares code paths with the library: theta nulls come from
classical lattice sums instead of products, and root products are expanded in
explicit symbolic roots and rewritten into the elementary basis by leading-
term elimination instead of the log/Newton/exp route.
"""

from __future__ import annotations

from fractions import Fraction

from anomcancel.algebra import GradedPolynomial
from anomcancel.qseries import PuiseuxSeries
from anomcancel.theta import RootFactor


def theta_null_sum_form(kind: str, order: int) -> PuiseuxSeries:
    """Classical lattice-sum expansions of the theta nulls (reduced forms)."""
    offset = kind in ("theta1", "theta_prime")
    bound = 8 * order + (1 if offset else 0)
    terms: dict[int, Fraction] = {}
    n = 0
    while True:
        if kind in ("theta2", "theta3"):
            k = 4 * n * n
            if k > bound:
                break
            c = (2 if n else 1) * ((-1) ** n if kind == "theta2" else 1)
        else:
            k = 1 + 4 * n * (n + 1)
            if k > bound:
                break
            c = (-1) ** n * (2 * n + 1) if kind == "theta_prime" else 1
        terms[k] = terms.get(k, Fraction(0)) + c
        n += 1
    return PuiseuxSeries(terms, bound, Fraction(0))


# -- explicit-root product oracle ------------------------------------------------


def _elementary_explicit(i: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """e_i(Z_1..Z_n) as an explicit polynomial."""
    out: dict[tuple[int, ...], Fraction] = {}

    def rec(start, left, exps):
        if left == 0:
            out[tuple(exps)] = Fraction(1)
            return
        for j in range(start, n - left + 1):
            exps[j] = 1
            rec(j + 1, left - 1, exps)
            exps[j] = 0

    rec(0, i, [0] * n)
    return out


def weighted_poly_mul(a_terms, b_terms, gen_weights, cap):
    """Product of two exponent-vector term maps, keeping monomials of weight <= cap.

    Visits every pair and weighs each product monomial from ``gen_weights``
    (one weight per exponent position), so it shares no pruning with the
    library's graded multiply.
    """
    out = {}
    for e1, c1 in a_terms.items():
        for e2, c2 in b_terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(x * g for x, g in zip(e, gen_weights)) > cap:
                continue
            s = out.get(e, Fraction(0)) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _conjugate_partition(lam: tuple[int, ...]) -> list[int]:
    return [sum(1 for part in lam if part >= i) for i in range(1, (lam[0] if lam else 0) + 1)]


def symmetric_to_elementary(poly: dict[tuple[int, ...], Fraction], n: int,
                            prefix: str, table, max_weight: int) -> GradedPolynomial:
    """Rewrite a symmetric polynomial in Z_1..Z_n into the e-generators."""
    work = {e: c for e, c in poly.items() if c}
    out = GradedPolynomial.zero(table, max_weight)
    while work:
        lead = max(work, key=lambda e: tuple(sorted(e, reverse=True)))
        lam = tuple(sorted(lead, reverse=True))
        lam = tuple(x for x in lam if x)
        coeff = work[lead]
        if not lam:
            out = out + GradedPolynomial.scalar(coeff, table, max_weight)
            work.pop(lead)
            continue
        gp_term = GradedPolynomial.scalar(coeff, table, max_weight)
        explicit = {(0,) * n: Fraction(1)}
        for part in _conjugate_partition(lam):
            gp_term = gp_term * GradedPolynomial.generator(f"{prefix}{part}", table, max_weight)
            explicit = weighted_poly_mul(explicit, _elementary_explicit(part, n), (1,) * n, sum(lam))
        out = out + gp_term
        for e, c in explicit.items():
            s = work.get(e, Fraction(0)) - coeff * c
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return out


def brute_force_prod(factor: RootFactor, n_roots: int, prefix: str, table,
                     max_weight: int, order: int) -> PuiseuxSeries:
    """``prod_j factor(z_j)`` via explicit roots, as a polynomial-valued series."""
    cap = max_weight // 2
    bound = min(8 * order, factor.q_bound)
    per_root = {}
    for (d, k), c in factor.terms.items():
        if k > bound:
            continue
        assert d % 2 == 0, "oracle handles even factors only"
        per_root[(d // 2, k)] = c
    series: dict[int, dict[tuple[int, ...], Fraction]] = {0: {(0,) * n_roots: Fraction(1)}}
    for j in range(n_roots):
        nxt: dict[int, dict] = {}
        for k1, poly in series.items():
            for (m, kap), c in per_root.items():
                k = k1 + kap
                if k > bound:
                    continue
                bucket = nxt.setdefault(k, {})
                for exps, c0 in poly.items():
                    if sum(exps) + m > cap:
                        continue
                    e = tuple(x + (m if i == j else 0) for i, x in enumerate(exps))
                    s = bucket.get(e, Fraction(0)) + c0 * c
                    if s:
                        bucket[e] = s
                    else:
                        bucket.pop(e, None)
        series = nxt
    zero = GradedPolynomial.zero(table, max_weight)
    terms = {}
    for k, poly in series.items():
        gp = symmetric_to_elementary(poly, n_roots, prefix, table, max_weight)
        if gp:
            terms[k] = gp
    return PuiseuxSeries(terms, bound, zero)
