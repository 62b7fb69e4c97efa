"""Independent oracles used by the tests.

Nothing here shares code paths with the library: theta nulls come from
classical lattice sums instead of products, per-root factors are multiplied
out from their ``O(order)`` bivariate product form (:func:`product_factor`)
instead of exponentiating closed-form logs, root products are expanded in
explicit symbolic roots and rewritten into the elementary basis by leading-
term elimination instead of the log/Newton/exp route, logs of product-built
factors are taken by the power series ``sum (-1)^(m+1) u^m / m`` instead of
closed-form divisor sums, exps are the plain ``sum S^t / t!``, products over
many roots are summed over partitions in the monomial symmetric basis, and
packed q-series products are convolved one position pair at a time in
``Fraction`` arithmetic.

:func:`reference_P` is the one exception: it reassembles a P-series from the
library's single-family products, which the oracles above pin, by the
unfused route the library no longer takes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from anomcancel.algebra import GradedPolynomial
from anomcancel.genus import (FAMILY_TM, FAMILY_V, RootFamily, build_generator_table,
                              constraint_replacement, eval_at_var, prod_over_roots)
from anomcancel.qseries import PuiseuxSeries
from anomcancel.theta import RootFactor, theta_log


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


# -- product-built factor oracle -------------------------------------------------


def bivariate_mul(a: dict, b: dict, z_bound: int, q_bound: int) -> dict:
    """Product of two ``{(z_degree, lattice): coeff}`` series, cut at both bounds."""
    out = {}
    for (d1, k1), c1 in a.items():
        for (d2, k2), c2 in b.items():
            if d1 + d2 <= z_bound and k1 + k2 <= q_bound:
                dk = (d1 + d2, k1 + k2)
                out[dk] = out.get(dk, Fraction(0)) + c1 * c2
    return {dk: c for dk, c in out.items() if c}


def bivariate_inverse(f: dict, z_bound: int, q_bound: int) -> dict:
    """``1/f = sum (-u)^m`` with ``u = f - 1``, for a bivariate series with f = 1 at z = q = 0."""
    assert f.get((0, 0)) == 1, "needs f = 1 at z = q = 0"
    minus_u = {dk: -c for dk, c in f.items() if dk != (0, 0)}
    out = {(0, 0): Fraction(1)}
    power = dict(out)
    while power:
        power = bivariate_mul(power, minus_u, z_bound, q_bound)
        for dk, c in power.items():
            out[dk] = out.get(dk, Fraction(0)) + c
    return {dk: c for dk, c in out.items() if c}


def _trig(z_bound: int, odd: bool) -> dict:
    """``sin z`` (odd) or ``cos z`` through ``z^z_bound`` as a q^0 bivariate series."""
    return {(d, 0): Fraction((-1) ** (d // 2), factorial(d)) for d in range(int(odd), z_bound + 1, 2)}


@lru_cache(maxsize=None)
def product_factor(kind: str, order: int, z_bound: int) -> RootFactor:
    """A per-root factor through ``q^order`` and ``z^z_bound``, multiplied out as a product.

    The factor is its q^0 slice (``z/sin z``, ``cos z``, ``1``, ``1``,
    ``sin z`` for ``a, t1, t2, t3, d``) times, for ``n = 1..order``, the
    quotient ``(1 + s e^{2iz} q^a)(1 + s e^{-2iz} q^a) / (1 + s q^a)^2``
    (inverted for ``a``), with ``s = +1`` for ``t1, t3`` and ``-1``
    otherwise and ``a = n - 1/2`` for ``t2, t3`` and ``n`` otherwise.  The
    paired numerator is ``1 + 2s cos(2z) q^a + q^2a``.  Every product and
    inverse is done here on plain dicts.
    """
    q_bound = 8 * order
    s = +1 if kind in ("t1", "t3") else -1
    shift = 4 if kind in ("t2", "t3") else 0
    if kind == "a":
        sin_over_z = {(d - 1, 0): c for (d, _), c in _trig(z_bound + 1, odd=True).items()}
        out = bivariate_inverse(sin_over_z, z_bound, q_bound)
    elif kind in ("t1", "d"):
        out = _trig(z_bound, odd=kind == "d")
    elif kind in ("t2", "t3"):
        out = {(0, 0): Fraction(1)}
    else:
        raise ValueError(f"unknown factor kind {kind!r}")
    cos_2z = {(d, 0): c * 2 ** d for (d, _), c in _trig(z_bound, odd=False).items()}
    for n in range(1, order + 1):
        a = 8 * n - shift
        paired = {(d, a): 2 * s * c for (d, _), c in cos_2z.items()}
        paired.update({(0, 0): Fraction(1), (0, 2 * a): Fraction(1)})
        scalar_sq = {(0, 0): Fraction(1), (0, a): Fraction(2 * s), (0, 2 * a): Fraction(1)}
        num, den = (scalar_sq, paired) if kind == "a" else (paired, scalar_sq)
        quotient = bivariate_mul(num, bivariate_inverse(den, z_bound, q_bound), z_bound, q_bound)
        out = bivariate_mul(out, quotient, z_bound, q_bound)
    return RootFactor(out, z_bound, q_bound)


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


# -- monomial-symmetric product oracle ---------------------------------------------


def _partitions(d: int, largest: int | None = None):
    """Partitions of ``d`` as non-increasing tuples."""
    if d == 0:
        yield ()
        return
    for first in range(min(d, largest or d), 0, -1):
        for rest in _partitions(d - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _zero_one_matrices(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """How many 0/1 matrices have row sums ``rows`` and column sums ``cols`` (sorted, nonzero)."""
    if not rows:
        return int(not cols)
    total = 0

    def choose(start, left, remaining):
        nonlocal total
        if left == 0:
            rest = tuple(sorted((c for c in remaining if c), reverse=True))
            total += _zero_one_matrices(rows[1:], rest)
            return
        for j in range(start, len(remaining) - left + 1):
            remaining[j] -= 1
            choose(j + 1, left - 1, remaining)
            remaining[j] += 1

    choose(0, rows[0], list(cols))
    return total


def _invert(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Inverse of a square matrix by Gauss-Jordan elimination."""
    n = len(matrix)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if work[r][c])
        work[c], work[pivot] = work[pivot], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for r in range(n):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]


def monomial_symmetric_prod(factor: RootFactor, n_roots: int, prefix: str, table,
                            max_weight: int, order: int) -> PuiseuxSeries:
    """``prod_j f(z_j) = sum_lambda (prod_i f_(lambda_i)) m_lambda``, rewritten into the e-generators.

    ``f_m`` is the q-series in front of ``z^2m`` of an even factor with
    ``f_0 = 1``.  Each ``m_lambda`` of weight ``d`` becomes ``sum_mu
    (M^-1)[lambda][mu] e_mu``, where ``M[mu][lambda]`` counts the 0/1
    matrices with row sums ``mu`` and column sums ``lambda`` (the
    coefficient of ``m_lambda`` in ``e_mu``).  Needs at least
    ``max_weight // 2`` roots, so no partition is cut by the root count.
    """
    cap = max_weight // 2
    assert n_roots >= cap, "the oracle needs a root for every part"
    bound = min(8 * order, factor.q_bound)
    f: dict[int, dict[int, Fraction]] = {}
    for (d, k), c in factor.terms.items():
        assert d % 2 == 0, "oracle handles even factors only"
        if k <= bound and d // 2 <= cap:
            f.setdefault(d // 2, {})[k] = c
    assert f.get(0) == {0: 1}, "needs f = 1 at z = 0"
    gens = {i: table.index(f"{prefix}{i}") for i in range(1, cap + 1)}
    out: dict[int, dict[tuple[int, ...], Fraction]] = {}
    for d in range(cap + 1):
        parts = list(_partitions(d))
        inverse = _invert([[Fraction(_zero_one_matrices(mu, lam)) for lam in parts] for mu in parts])
        for lam, row in zip(parts, inverse):
            series = {0: Fraction(1)}
            for part in lam:
                series = _series_mul(series, f.get(part, {}), bound)
            for mu, c in zip(parts, row):
                if not c:
                    continue
                exps = [0] * len(table)
                for part in mu:
                    exps[gens[part]] += 1
                for k, v in series.items():
                    bucket = out.setdefault(k, {})
                    bucket[tuple(exps)] = bucket.get(tuple(exps), Fraction(0)) + c * v
    zero = GradedPolynomial.zero(table, max_weight)
    terms = {k: GradedPolynomial(table, t, max_weight) for k, t in out.items()}
    return PuiseuxSeries({k: g for k, g in terms.items() if g}, bound, zero)


# -- packed q-series product oracle -------------------------------------------------


def naive_mul_sum(products, step: int, count: int) -> dict[tuple[int, int], Fraction]:
    """``{(key, lattice): coeff}`` of ``sum (n/d) * x^t * a * b``, one position pair at a time.

    Each operand is a ``(den, step, {key: [numerator per position]})``
    triple; keys add as ints, and positions above ``(count - 1) * step``
    are dropped.
    """
    top = (count - 1) * step
    out: dict[tuple[int, int], Fraction] = {}
    for (da, sa, ca), (db, sb, cb), d, scatter in products:
        for ka, xs in ca.items():
            for i, x in enumerate(xs):
                for kb, ys in cb.items():
                    for j, y in enumerate(ys):
                        if i * sa + j * sb > top:
                            continue
                        for t, n in scatter:
                            where = (ka + kb + t, i * sa + j * sb)
                            out[where] = out.get(where, Fraction(0)) + Fraction(x * y * n, da * db * d)
    return {where: c for where, c in out.items() if c}


# -- log, exp and line-evaluation oracles -----------------------------------------


def series_log(terms: dict[tuple[int, int], Fraction], z_bound: int,
               q_bound: int) -> dict[tuple[int, int], Fraction]:
    """``log f`` of a bivariate ``{(z_degree, lattice): coeff}`` series with f = 1 at z = 0.

    The power series ``sum (-1)^(m+1) u^m / m`` with ``u = f - 1``; the result
    has no z^0 terms.
    """
    u = {dk: c for dk, c in terms.items() if dk != (0, 0)}
    assert terms.get((0, 0)) == 1 and all(d > 0 for d, _ in u), "needs f = 1 at z = 0"
    out: dict[tuple[int, int], Fraction] = {}
    power = dict(u)
    m = 1
    while power:
        for dk, c in power.items():
            out[dk] = out.get(dk, Fraction(0)) + c * Fraction((-1) ** (m + 1), m)
        power = bivariate_mul(power, u, z_bound, q_bound)
        m += 1
    return {dk: c for dk, c in out.items() if c}


def _series_mul(a: dict, b: dict, bound: int) -> dict:
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            if k1 + k2 <= bound:
                out[k1 + k2] = out[k1 + k2] + c1 * c2 if k1 + k2 in out else c1 * c2
    return out


def naive_exp_over_roots(log_terms: dict[tuple[int, int], Fraction], n_roots: int, prefix: str,
                         table, max_weight: int, bound: int) -> PuiseuxSeries:
    """``exp(sum_m s_m * [z^2m] log)`` as ``sum S^t / t!``.

    The power sums ``s_m`` of the squared roots are rewritten into the
    e-generators from explicit roots (``symmetric_to_elementary``).
    """
    one = GradedPolynomial.one(table, max_weight)
    S: dict[int, GradedPolynomial] = {}
    for (d, k), c in log_terms.items():
        assert d % 2 == 0 and d > 0, "needs an even log without z^0 terms"
        if k > bound or d > max_weight:
            continue
        explicit = {tuple(d // 2 if i == j else 0 for i in range(n_roots)): Fraction(1)
                    for j in range(n_roots)}
        s_m = symmetric_to_elementary(explicit, n_roots, prefix, table, max_weight)
        S[k] = S[k] + s_m.scale(c) if k in S else s_m.scale(c)
    out = {0: one}
    term = {0: one}
    for t in range(1, max_weight // 2 + 1):
        term = {k: g.scale(Fraction(1, t)) for k, g in _series_mul(term, S, bound).items()}
        for k, g in term.items():
            out[k] = out[k] + g if k in out else g
    return PuiseuxSeries({k: g for k, g in out.items() if g}, bound,
                         GradedPolynomial.zero(table, max_weight))


def eval_factor_at_w(factor: RootFactor, table, max_weight: int, bound: int) -> PuiseuxSeries:
    """A product-built factor at ``z = -i*w``, read as ``z^d -> (-1)^(d//2) w^d``.

    For an odd factor this is ``i*f(-i*w)``, its real form.
    """
    out: dict[int, GradedPolynomial] = {}
    for (d, k), c in factor.terms.items():
        if k > bound or d > max_weight:
            continue
        gp = GradedPolynomial.generator("w", table, max_weight, power=d).scale(
            -c if (d // 2) % 2 else c)
        out[k] = out[k] + gp if k in out else gp
    return PuiseuxSeries({k: g for k, g in out.items() if g}, bound,
                         GradedPolynomial.zero(table, max_weight))


# -- unfused P-series assembly ------------------------------------------------------


def reference_P(setting, which: str) -> PuiseuxSeries:
    """P1/P2/P3 of a setting by the unfused route.

    Each factor is its own full-weight product over its family's roots; the
    core is ``2^n * a * (t1 + t2 + t3)`` over the tangent roots (spin), or
    ``a`` times the product of the line evaluations of ``t1``, ``t2`` and
    ``t3`` (spin^c, dim 4k), or ``a * w * d/z`` at the line (spin^c, dim
    4k+2).  The core times the auxiliary factor (and ``2^l`` for P1) is cut
    to its top-weight component, then the relation is substituted into each
    coefficient.
    """
    s = setting
    W = s.weight
    table = build_generator_table(s.tm_roots, W // 2, s.spin_c, W)

    def log(kind):
        return theta_log(kind, s.n_q, W)

    def over(kind, fam):
        return prod_over_roots(log(kind), fam, table, W, s.n_q)

    tm = RootFamily(FAMILY_TM, s.tm_roots)
    a = over("a", tm)
    if s.kind == "spin4k":
        core = (a * (over("t1", tm) + over("t2", tm) + over("t3", tm))).scale(2 ** s.tm_roots)
    elif s.kind == "spinc4k":
        at_line = [eval_at_var(log(t), table, W, s.n_q) for t in ("t1", "t2", "t3")]
        core = a * at_line[0] * at_line[1] * at_line[2]
    else:
        w = GradedPolynomial.generator("w", table, W)
        core = a * eval_at_var(log("d"), table, W, s.n_q).scale(w)
    series = core * over({"P1": "t1", "P2": "t2", "P3": "t3"}[which], RootFamily(FAMILY_V, s.l))
    if which == "P1":
        series = series.scale(2 ** s.l)
    name, repl = constraint_replacement(s.kind, table, W)
    return series.map_coefficients(lambda p: p.component(W).substitute(name, repl))
