"""Independent oracles used by the tests.

Nothing here shares code paths with the library: theta nulls are Jacobi's
triple products multiplied out one binomial at a time by dict convolution
(:func:`theta_null_product_form`) instead of the library's lattice sums,
which :func:`theta_null_sum_form` writes out again for the level-2 oracle
below; per-root factors are multiplied out from their ``O(order)``
bivariate product form (:func:`product_factor`) instead of exponentiating
closed-form logs, root products are expanded in
explicit symbolic roots and rewritten into the elementary basis by leading-
term elimination instead of the log/Newton/exp route, logs of product-built
factors are taken by the power series ``sum (-1)^(m+1) u^m / m`` instead of
closed-form divisor sums, exps are the plain ``sum S^t / t!``, products over
many roots are summed over partitions in the monomial symmetric basis, and
packed q-series products are convolved one position pair at a time in
``Fraction`` arithmetic, and the level-2 generators and basis rows are
multiplied out from the lattice sums by plain dict convolution; tensor
strings of bundles are products of one exp-by-powers series per factor
instead of one exp of a summed divisor-sum log, with their own Adams
operation and reduction read off the weight components.

Polynomial-valued series are the oracles' own :class:`TermSeries`:
``{lattice: {exponent vector: Fraction}}`` with a bound, multiplied pair by
pair through :func:`weighted_poly_mul` and added through
:func:`naive_combination`.  The library's ``PuiseuxSeries`` is a read-only
view, so the tests read its ``.terms`` (:meth:`TermSeries.of`) and compare
term maps.  No oracle but :func:`reference_P` runs either integer kernel,
``algebra.dot`` or ``algebra.mul_sum``; ``tests/test_boundaries.py`` runs
the string oracle and the naive exp with both switched off.
:func:`packed` writes a polynomial-valued series into the packed integer
form by hand, from its dicts.  :func:`polynomial_text` prints a polynomial
from its ``Fraction`` terms, one ``str(Fraction)`` per coefficient.
:func:`cp1_characteristic_number` evaluates a standard-basis polynomial on
a product of CP^1 with a sum of realified line bundles, for the
divisibility witnesses.

:func:`reference_P` is the one exception: it reassembles a P-series from the
library's single-family products, which the oracles above pin, by the
unfused route the library no longer takes.  Those products come from
``mul_sum`` by design, and the relation is substituted into each
coefficient by ``GradedPolynomial.substitute``, which runs ``dot``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from operator import add

from anomcancel.algebra import GradedPolynomial, QColumns
from anomcancel.genus import (FAMILY_TM, FAMILY_V, RootFamily, build_generator_table,
                              constraint_replacement, eval_at_var, prod_over_roots)
from anomcancel.modforms import GROUP_UPPER
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
    return PuiseuxSeries(terms, bound)


def theta_null_product_form(kind: str, order: int) -> PuiseuxSeries:
    """Jacobi's triple products for the theta nulls (reduced forms), one binomial at a time.

    ``theta3`` and ``theta2`` are ``prod_j (1 - q^j)(1 +- q^(j-1/2))^2``,
    ``theta1`` is ``q^(1/8) prod_j (1 - q^j)(1 + q^j)^2`` and ``theta_prime``
    is ``q^(1/8) prod_j (1 - q^j)^3``; each binomial ``1 + c*q^a`` is one dict
    convolution, cut at the bound.
    """
    odd = kind in ("theta1", "theta_prime")
    bound = 8 * order + (1 if odd else 0)
    binomials = {"theta3": lambda j: [(8 * j, -1), (8 * j - 4, 1), (8 * j - 4, 1)],
                 "theta2": lambda j: [(8 * j, -1), (8 * j - 4, -1), (8 * j - 4, -1)],
                 "theta1": lambda j: [(8 * j, -1), (8 * j, 1), (8 * j, 1)],
                 "theta_prime": lambda j: [(8 * j, -1)] * 3}[kind]
    out = {1 if odd else 0: Fraction(1)}
    for j in range(1, order + 1):
        for a, c in binomials(j):
            out = _series_mul(out, {0: Fraction(1), a: Fraction(c)}, bound)
    return PuiseuxSeries(out, bound)


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


def _weighed(terms, gen_weights) -> list:
    """``(exponent vector, coefficient, weight)`` per term, the weight read from ``gen_weights``."""
    return [(e, c, sum(x * g for x, g in zip(e, gen_weights))) for e, c in terms.items()]


def _add_products(a, b, cap: int, out: dict):
    """Add the product of every pair of weighed terms of ``a`` and ``b`` with weight <= cap into ``out``."""
    for e1, c1, w1 in a:
        room = cap - w1
        for e2, c2, w2 in b:
            if w2 <= room:
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2


def weighted_poly_mul(a_terms, b_terms, gen_weights, cap):
    """Product of two exponent-vector term maps, keeping monomials of weight <= cap.

    Visits every pair; a product monomial's weight is the sum of its
    factors' weights, each read from ``gen_weights`` (one weight per exponent
    position), so it shares no pruning with the library's graded multiply.
    """
    out: dict = {}
    _add_products(_weighed(a_terms, gen_weights), _weighed(b_terms, gen_weights), cap, out)
    return {e: c for e, c in out.items() if c}


# -- term-map oracles for one polynomial operation ------------------------------------
# Coefficient by coefficient in ``Fraction``s, with no integer numerators and no
# shared denominator: the library keeps both.


def polynomial_text(terms: dict[tuple[int, ...], Fraction], names, weights) -> str:
    """A polynomial's text from its ``Fraction`` terms, the way the reports print it.

    Terms run by total weight, then by exponent vector, joined by ``" + "``;
    each is ``str(Fraction)`` times its monomial (``name^e`` joined by
    ``*``), with a coefficient of 1 left out; no term at all prints ``0``.
    """
    def weight(e):
        return sum(x * w for x, w in zip(e, weights))

    parts = []
    for e in sorted((e for e, c in terms.items() if c), key=lambda e: (weight(e), e)):
        mono = "*".join(n if x == 1 else f"{n}^{x}" for x, n in zip(e, names) if x)
        c = str(Fraction(terms[e]))
        parts.append(c if not mono else mono if c == "1" else f"{c}*{mono}")
    return " + ".join(parts) if parts else "0"


def naive_combination(parts) -> dict:
    """``sum s * terms`` over ``(s, terms)`` in ``parts``: add, subtract, negate and scale."""
    out: dict = {}
    for s, terms in parts:
        for e, c in terms.items():
            out[e] = out.get(e, Fraction(0)) + s * c
    return {e: c for e, c in out.items() if c}


def naive_rescale(terms, factor) -> dict:
    """Each coefficient times ``factor(exponent vector)``: a component, a basis change, an Adams operation."""
    out = {e: c * factor(e) for e, c in terms.items()}
    return {e: c for e, c in out.items() if c}


def _conjugate_partition(lam: tuple[int, ...]) -> list[int]:
    return [sum(1 for part in lam if part >= i) for i in range(1, (lam[0] if lam else 0) + 1)]


def symmetric_to_elementary(poly: dict[tuple[int, ...], Fraction], n: int,
                            prefix: str, table, max_weight: int) -> dict[tuple[int, ...], Fraction]:
    """Rewrite a symmetric polynomial in Z_1..Z_n into the e-generators, as a term map.

    Monomials above ``max_weight`` are dropped.
    """
    work = {e: c for e, c in poly.items() if c}
    out: dict[tuple[int, ...], Fraction] = {}
    while work:
        lead = max(work, key=lambda e: tuple(sorted(e, reverse=True)))
        lam = tuple(sorted(lead, reverse=True))
        lam = tuple(x for x in lam if x)
        coeff = work[lead]
        exps = [0] * len(table.gens)
        explicit = {(0,) * n: Fraction(1)}
        for part in _conjugate_partition(lam):
            exps[table.index(f"{prefix}{part}")] += 1
            explicit = weighted_poly_mul(explicit, _elementary_explicit(part, n), (1,) * n, sum(lam))
        if sum(x * g.weight for x, g in zip(exps, table.gens)) <= max_weight:
            out[tuple(exps)] = out.get(tuple(exps), 0) + coeff
        for e, c in explicit.items():
            s = work.get(e, Fraction(0)) - coeff * c
            if s:
                work[e] = s
            else:
                work.pop(e, None)
    return {e: c for e, c in out.items() if c}


def brute_force_prod(factor: RootFactor, n_roots: int, prefix: str, table,
                     max_weight: int, order: int) -> TermSeries:
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
    return TermSeries({k: symmetric_to_elementary(poly, n_roots, prefix, table, max_weight)
                       for k, poly in series.items()}, bound, table, max_weight)


# -- the oracles' polynomial-valued series ---------------------------------------


class TermSeries:
    """An oracle series ``{lattice: {exponent vector: Fraction}}``, known through ``bound``.

    Each coefficient is a plain term map over the generators of ``table``,
    cut at weight ``cap``; no coefficient is an empty map.  Sums and scalings
    go through :func:`naive_combination`, products pair by pair as in
    :func:`weighted_poly_mul`, so no series or polynomial arithmetic of the
    library runs.  :meth:`of` reads a library series as term maps, which is
    how the tests compare library outputs with the oracles.
    """

    __slots__ = ("terms", "bound", "table", "cap")

    def __init__(self, terms, bound: int, table, cap: int):
        assert all(k <= bound for k in terms), "a term beyond the bound"
        self.terms = {k: dict(t) for k, t in terms.items() if t}
        self.bound, self.table, self.cap = bound, table, cap

    @staticmethod
    def of(series) -> "TermSeries":
        """A polynomial-valued library series, each coefficient read through its ``.terms``."""
        return TermSeries({k: p.terms for k, p in series.terms.items()}, series.order_bound,
                          series.table, series.table.cap)

    def like(self, terms, bound=None) -> "TermSeries":
        """A series over the same ring, known through ``bound`` (this one's when None)."""
        return TermSeries(terms, self.bound if bound is None else bound, self.table, self.cap)

    def one(self) -> "TermSeries":
        """The constant series 1 over the same ring, known through the same bound."""
        return self.like({0: {(0,) * len(self.table.gens): Fraction(1)}})

    def __eq__(self, other):
        return isinstance(other, TermSeries) and (self.terms, self.bound) == (other.terms, other.bound)

    def __repr__(self):
        return f"TermSeries({self.terms!r}, bound={self.bound})"

    def __add__(self, other: "TermSeries") -> "TermSeries":
        """Termwise sum, known through the lower of the two bounds."""
        bound = min(self.bound, other.bound)
        keys = {k for k in (*self.terms, *other.terms) if k <= bound}
        return self.like({k: naive_combination([(1, self.terms.get(k, {})), (1, other.terms.get(k, {}))])
                          for k in keys}, bound)

    def scale(self, c) -> "TermSeries":
        """Every coefficient times a scalar, or times a polynomial given as a term map."""
        if isinstance(c, dict):
            weights = [g.weight for g in self.table.gens]
            return self.like({k: weighted_poly_mul(t, c, weights, self.cap) for k, t in self.terms.items()})
        return self.like({k: naive_combination([(c, t)]) for k, t in self.terms.items()})

    def map(self, fn) -> "TermSeries":
        """Every coefficient's term map through ``fn``."""
        return self.like({k: fn(t) for k, t in self.terms.items()})

    def __mul__(self, other: "TermSeries") -> "TermSeries":
        """All-pairs product, known through each bound plus the other operand's first stored position.

        Coefficient pairs multiply as in :func:`weighted_poly_mul`, each term weighed once.
        """
        bound = min(self.bound + min(other.terms, default=other.bound + 1),
                    other.bound + min(self.terms, default=self.bound + 1))
        weights = [g.weight for g in self.table.gens]
        b = {k: _weighed(t, weights) for k, t in other.terms.items()}
        out: dict[int, dict] = {}
        for k1, t in self.terms.items():
            a = _weighed(t, weights)
            for k2, bt in b.items():
                if k1 + k2 <= bound:
                    _add_products(a, bt, self.cap, out.setdefault(k1 + k2, {}))
        return self.like({k: {e: c for e, c in t.items() if c} for k, t in out.items()}, bound)


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
                            max_weight: int, order: int) -> TermSeries:
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
    return TermSeries({k: {e: c for e, c in t.items() if c} for k, t in out.items()}, bound, table, max_weight)


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


# -- level-2 generator and basis oracle ---------------------------------------------


def _power_terms(base: dict, m: int, bound: int) -> dict:
    out = {0: Fraction(1)}
    for _ in range(m):
        out = _series_mul(out, base, bound)
    return out


@lru_cache(maxsize=None)
def _level2_oracle_pair(group: str, order: int) -> tuple[dict, dict]:
    """``(8*delta, eps)`` of one group as ``{lattice: coeff}``, from the lattice-sum nulls."""
    bound = 8 * order
    t3 = _power_terms(theta_null_sum_form("theta3", order).terms, 4, bound)
    if group == GROUP_UPPER:
        t1 = {k: 16 * c for k, c in _power_terms(theta_null_sum_form("theta1", order).terms, 4, bound).items()}
        d8 = {k: -t1.get(k, 0) - t3.get(k, 0) for k in set(t1) | set(t3)}
        eps = {k: c / 16 for k, c in _series_mul(t1, t3, bound).items()}
    else:
        t2 = _power_terms(theta_null_sum_form("theta2", order).terms, 4, bound)
        d8 = {k: t2.get(k, 0) + t3.get(k, 0) for k in set(t2) | set(t3)}
        eps = {k: c / 16 for k, c in _series_mul(t2, t3, bound).items()}
    return d8, eps


@lru_cache(maxsize=None)
def _level2_oracle_power(group: str, which: int, m: int, order: int) -> tuple:
    """``(8*delta)^m`` (``which`` 0) or ``eps^m`` (``which`` 1) as ``(lattice, coeff)`` pairs."""
    if m == 0:
        return ((0, Fraction(1)),)
    prev = dict(_level2_oracle_power(group, which, m - 1, order))
    return tuple(_series_mul(prev, _level2_oracle_pair(group, order)[which], 8 * order).items())


def modular_basis_oracle(group: str, k: int, r: int, order: int) -> PuiseuxSeries:
    """``(8*delta)^(k-2r) * eps^r`` through ``q^order`` by plain dict convolution.

    The generators come from the lattice sums (:func:`theta_null_sum_form`)
    as ``theta^4`` and ``theta2^4 theta3^4 / 16`` (lower group) or
    ``-(16*theta1^4 + theta3^4)`` and ``theta1^4 theta3^4`` (upper group); every
    power is repeated multiplication.  ``k=1, r=0`` gives ``8*delta`` and
    ``k=2, r=1`` gives ``eps``.
    """
    d = dict(_level2_oracle_power(group, 0, k - 2 * r, order))
    e = dict(_level2_oracle_power(group, 1, r, order))
    terms = _series_mul(d, e, 8 * order)
    return PuiseuxSeries({pos: c for pos, c in terms.items() if c}, 8 * order)


def residual_oracle(P: TermSeries, h, group: str, k: int, scale: int, order: int) -> TermSeries:
    """``P - scale * sum_r h_r * basis_r`` through ``min(P.bound, 8*order)``, position by position.

    Each ``h_r`` is read through its ``Fraction`` terms.
    """
    bound = min(P.bound, 8 * order)
    parts = {pos: [(1, t)] for pos, t in P.terms.items() if pos <= bound}
    for r, hr in enumerate(h):
        for pos, b in modular_basis_oracle(group, k, r, order).terms.items():
            if pos <= bound:
                parts.setdefault(pos, []).append((-b * scale, hr.terms))
    return P.like({pos: naive_combination(p) for pos, p in parts.items()}, bound)


def packed(series: TermSeries) -> QColumns:
    """A polynomial-valued series in the packed integer form, carrying its order bound and ring.

    Positions go on the gcd of 8 and the stored exponents, numerators over
    the lcm of all denominators.  A monomial's key gives generator ``i`` a
    bit field of ``(cap // weight_i).bit_length()`` bits, first generator
    lowest, at the truncation weight ``cap`` of the series' ring, and puts
    the monomial's weight, from the generator weights, in one field above
    them all.
    """
    shifts, shift = [], 0
    for g in series.table.gens:
        shifts.append(shift)
        shift += (series.cap // g.weight).bit_length()
    weights = [g.weight for g in series.table.gens]
    step = gcd(8, *series.terms)
    den = lcm(*(c.denominator for t in series.terms.values() for c in t.values()))
    size = max(series.terms, default=0) // step + 1
    cols: dict[int, list[int]] = {}
    for pos, t in series.terms.items():
        for e, c in t.items():
            key = sum(x << s for x, s in zip(e, shifts)) + (sum(x * w for x, w in zip(e, weights)) << shift)
            cols.setdefault(key, [0] * size)[pos // step] = c.numerator * (den // c.denominator)
    return QColumns(den, step, cols, series.bound, series.table)


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
                         table, max_weight: int, bound: int) -> TermSeries:
    """``exp(sum_m s_m * [z^2m] log)`` as ``sum S^t / t!``.

    The power sums ``s_m`` of the squared roots are rewritten into the
    e-generators from explicit roots (``symmetric_to_elementary``).
    """
    parts: dict[int, list] = {}
    for (d, k), c in log_terms.items():
        assert d % 2 == 0 and d > 0, "needs an even log without z^0 terms"
        if k > bound or d > max_weight:
            continue
        explicit = {tuple(d // 2 if i == j else 0 for i in range(n_roots)): Fraction(1)
                    for j in range(n_roots)}
        parts.setdefault(k, []).append((c, symmetric_to_elementary(explicit, n_roots, prefix, table, max_weight)))
    S = TermSeries({k: naive_combination(p) for k, p in parts.items()}, bound, table, max_weight)
    out = term = S.one()
    for t in range(1, max_weight // 2 + 1):
        term = (term * S).scale(Fraction(1, t))
        out = out + term
    return out


def eval_factor_at_w(factor: RootFactor, table, max_weight: int, bound: int) -> TermSeries:
    """A product-built factor at ``z = -i*w``, read as ``z^d -> (-1)^(d//2) w^d``.

    For an odd factor this is ``i*f(-i*w)``, its real form.
    """
    at = table.index("w")
    out: dict[int, dict] = {}
    for (d, k), c in factor.terms.items():
        if k <= bound and d <= max_weight:
            e = tuple(d if i == at else 0 for i in range(len(table.gens)))
            out.setdefault(k, {})[e] = -c if (d // 2) % 2 else c
    return TermSeries(out, bound, table, max_weight)


# -- tensor-string product oracle --------------------------------------------------
# Bundles are their Chern characters; the oracle keeps its own Adams operation
# and reduction, read off the weight components.


def _psi(E: GradedPolynomial, m: int) -> dict:
    """Adams operation as a term map: each weight-w term of ``E`` times ``m^w``."""
    weights = [g.weight for g in E.table.gens]
    return naive_rescale(E.terms, lambda e: m ** sum(x * g for x, g in zip(e, weights)))


def _reduce(E: GradedPolynomial) -> GradedPolynomial:
    """``E`` minus its rank, the weight-0 component."""
    return E - E.component(0)


def _bundle_exp_by_powers(X: TermSeries) -> TermSeries:
    """``sum X^t / t!`` for a character-valued series with positive leading exponent."""
    out = term = X.one()
    for t in range(1, X.bound // min(X.terms, default=X.bound + 1) + 1):
        term = (term * X).scale(Fraction(1, t))
        out = out + term
    return out


def _string_factor(E, step: int, sign, bound: int) -> TermSeries:
    """``lambda_{sign q^(step/8)}(E)``, or ``S_{q^(step/8)}(E)`` when ``sign`` is None.

    The exp by powers of ``sum_m (-1)^(m-1) sign^m psi^m(E) t^m / m`` (of
    ``sum_m psi^m(E) t^m / m`` for ``S``).
    """
    terms = {}
    for m in range(1, bound // step + 1):
        c = Fraction(1, m) if sign is None else Fraction((-1) ** (m - 1) * sign ** m, m)
        terms[m * step] = naive_combination([(c, _psi(E, m))])
    return _bundle_exp_by_powers(TermSeries(terms, bound, E.table, E.table.cap))


def string_product_oracle(strings, order: int) -> TermSeries:
    """A product of tensor strings through ``q^order``, one series product per factor.

    A string ``(E, half, sign)`` is ``tensor_{n>=1} lambda_{sign q^(a_n)}(E)``
    with ``a_n = n`` (``n - 1/2`` when half), or ``tensor_n S_{q^(a_n)}(E)``
    when ``sign`` is None.  Each factor is its own exp by powers.
    """
    bound = 8 * order
    E = strings[0][0]
    out = TermSeries({}, bound, E.table, E.table.cap).one()
    for E, half, sign in strings:
        for step in range(4 if half else 8, bound + 1, 8):
            out = out * _string_factor(E, step, sign, bound)
    return out


def theta_strings(kind: str, tangent, line, *, reduced_line: bool = True) -> list:
    """The strings of a theta object for :func:`string_product_oracle`.

    The symmetric string of the reduced tangent, then the exterior strings of
    the tangent (``theta1/2/3``) or of the line (``theta_c``, ``theta_c_star``),
    the line reduced unless ``reduced_line`` is False.
    """
    t = _reduce(tangent)
    ell = line if line is None or not reduced_line else _reduce(line)
    exterior = {"theta1": [(t, False, 1)], "theta2": [(t, True, -1)], "theta3": [(t, True, 1)],
                "theta_c": [(ell, False, 1), (ell, True, -1), (ell, True, 1)],
                "theta_c_star": [(ell, False, -1)]}[kind]
    return [(t, False, None)] + exterior


# -- unfused P-series assembly ------------------------------------------------------


def reference_P(setting, which: str) -> TermSeries:
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
    table = build_generator_table(W, W // 2, s.spin_c, W)

    def log(kind):
        return theta_log(kind, s.n_q, W)

    def over(kind, fam):
        return TermSeries.of(prod_over_roots(log(kind), fam, table, s.n_q))

    def at_line(kind):
        return TermSeries.of(eval_at_var(log(kind), table, s.n_q))

    tm = RootFamily(FAMILY_TM, W)
    a = over("a", tm)
    if s.kind == "spin4k":
        core = (a * (over("t1", tm) + over("t2", tm) + over("t3", tm))).scale(2 ** W)
    elif s.kind == "spinc4k":
        core = a * at_line("t1") * at_line("t2") * at_line("t3")
    else:
        core = a * at_line("d").scale(GradedPolynomial.generator("w", table).terms)
    series = core * over({"P1": "t1", "P2": "t2", "P3": "t3"}[which], RootFamily(FAMILY_V, s.l))
    if which == "P1":
        series = series.scale(2 ** s.l)
    name, repl = constraint_replacement(s.kind, table)
    return series.map(lambda t: GradedPolynomial(table, t).component(W).substitute(name, repl).terms)


# -- characteristic numbers on products of CP^1 ---------------------------------------


def _class_mul(a: dict, b: dict) -> dict:
    """Product of two classes on ``(CP^1)^r``, as ``{0/1 exponent vector: coeff}`` with ``x_i^2 = 0``."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if not any(x and y for x, y in zip(e1, e2)):
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _class_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def cp1_characteristic_number(poly: GradedPolynomial, c, lines, *, top: bool = True):
    """A standard-basis polynomial evaluated on ``M = (CP^1)^r``, with ``V`` a sum of realified lines.

    ``c`` and each entry of ``lines`` are the coefficient vectors of a class
    ``sum_i a_i x_i`` in ``H^2``, ``x_i`` the hyperplane class of the i-th
    factor.  The ring map sends ``pM_i`` to 0 (``p(M) = prod (1 + x_i^2) =
    1``), ``pV_i`` to ``e_i`` of the squares ``c1(L_j)^2`` (``p(V) = prod_j
    (1 + c1(L_j)^2)``) and ``c`` to ``c``.  It returns the coefficient of
    ``x_1 ... x_r``, the characteristic number, or with ``top=False`` the
    whole class (a relation in degree 4 is checked that way).
    """
    r = len(c)

    def linear(a):
        return {tuple(int(i == j) for j in range(r)): Fraction(x) for i, x in enumerate(a) if x}

    elementary = [{(0,) * r: Fraction(1)}]
    for line in lines:
        square = _class_mul(linear(line), linear(line))
        elementary = [_class_add(e, _class_mul(prev, square)) for e, prev in
                      zip(elementary + [{}], [{}] + elementary)]
    values = {"c": linear(c)}
    values.update({f"pV{i}": e for i, e in enumerate(elementary) if i})
    out: dict = {}
    for exps, coeff in poly.terms.items():
        term = {(0,) * r: coeff}
        for e, g in zip(exps, poly.table.gens):
            assert g.name == g.std_name, "needs a polynomial in the standard basis"
            for _ in range(e):
                term = _class_mul(term, values.get(g.name, {}))      # pM_i and pV_(i > #lines) are 0
        out = _class_add(out, term)
    return out.get((1,) * r, Fraction(0)) if top else out
