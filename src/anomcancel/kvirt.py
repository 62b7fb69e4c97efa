"""Lambda-ring calculus on bundles given by their Chern characters.

A bundle is its character polynomial: the rank is the constant term, and
the Adams operation ``psi^m`` scales the weight-w part by ``m^w``.  Every
bundle the verifier uses (tangent, auxiliary, and the spin^c line pair) is
the complexified bundle of a root family (:func:`complexified_bundle`).  The
exterior/symmetric power series are the classical lambda-ring exponentials,
so everything extends to virtual arguments automatically:

    lambda_t(E) = exp( sum_m (-1)^(m-1) psi^m(E) t^m / m )
    s_t(E)      = exp( sum_m          psi^m(E) t^m / m ) = 1/lambda_{-t}(E)

A tensor string ``tensor_n lambda_{t_n}(E)`` is therefore the exp of a
divisor sum over Adams operations, and a theta object, a product of strings,
is one exp of its strings' summed logs, run by the Euler recurrence on the
q-lattice.  The results are Puiseux series with polynomial coefficients.
This module is the independent low-order oracle against the theta-product
path: both must produce the same character forms coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import AlgebraError, GradedPolynomial, GeneratorTable
from .genus import RootFamily, additive_over_roots
from .qseries import HALF_UNIT, Q_UNIT, PuiseuxSeries


def reduced(E: GradedPolynomial) -> GradedPolynomial:
    """``E - rank(E)``."""
    return E - E.constant_term()


def adams(E: GradedPolynomial, m: int) -> GradedPolynomial:
    """Adams operation ``psi^m``: multiply each Chern root by ``m``.

    On the line pair ``2 cosh 2w`` it gives ``2 cosh 4w``:

    >>> from anomcancel.genus import LINE, build_generator_table
    >>> L = complexified_bundle(LINE, build_generator_table(1, 0, True, 4), 4)
    >>> L.to_text(), adams(L, 2).to_text()
    ('2 + 4*w^2 + 4/3*w^4', '2 + 16*w^2 + 64/3*w^4')
    """
    if m < 1:
        raise AlgebraError("Adams operations need m >= 1")
    table = E.table
    terms = {e: c * m ** table.monomial_weight(e) for e, c in E.terms.items()}
    return GradedPolynomial(table, terms, E.max_weight)


def lambda_power(E: GradedPolynomial, i: int) -> GradedPolynomial:
    """Exterior power: the ``t^i`` coefficient of ``lambda_t(E)``, one exp of its Adams log."""
    if i < 0:
        raise AlgebraError("negative exterior power")
    log = {m: adams(E, m).scale(Fraction((-1) ** (m - 1), m)) for m in range(1, i + 1)}
    return _exp(log, E.one_like(), i).coefficient(i)


def complexified_bundle(fam: RootFamily, table: GeneratorTable, max_weight: int) -> GradedPolynomial:
    """``sum_j (e^{2iz_j} + e^{-2iz_j})``, each root's ``2 cos 2z`` being ``sum_m 2(-4)^m z^{2m} / (2m)!``.

    Rank ``2n``.  On :data:`~anomcancel.genus.LINE`, whose squared root is
    ``-w^2``, it is the line pair ``L + conj(L) = 2 cosh 2w``.
    """
    coeffs = [2 * Fraction((-4) ** m, factorial(2 * m)) for m in range(max_weight // 2 + 1)]
    return additive_over_roots(coeffs, fam, table, max_weight)


# (on the line?, first step in lattice units, sign) of each object's exterior strings;
# every object also carries the symmetric string of the reduced tangent.
_EXTERIOR_STRINGS = {"theta1": [(False, Q_UNIT, 1)], "theta2": [(False, HALF_UNIT, -1)],
                     "theta3": [(False, HALF_UNIT, 1)],
                     "theta_c": [(True, Q_UNIT, 1), (True, HALF_UNIT, -1), (True, HALF_UNIT, 1)],
                     "theta_c_star": [(True, Q_UNIT, -1)]}


def _string_log(strings, bound: int) -> dict[int, GradedPolynomial]:
    """Summed log of the strings ``tensor_n lambda_{sign q^(a_n)}(E)`` through lattice ``bound``.

    A string is ``(E, first, sign, exterior)`` with steps ``a_n = first + Q_UNIT(n - 1)``
    lattice units, and ``S`` in place of ``lambda`` when not exterior.  The
    log's coefficient at lattice ``N`` is the divisor sum ``sum_{m a_n = N}
    (-1)^(m-1) sign^m psi^m(E) / m``, without ``(-1)^(m-1)`` for ``S``.
    """
    log: dict[int, GradedPolynomial] = {}
    for E, first, sign, exterior in strings:
        for m in range(1, bound // first + 1):
            psi = adams(E, m).scale(Fraction(sign ** m * ((-1) ** (m - 1) if exterior else 1), m))
            for a in range(first, bound // m + 1, Q_UNIT):
                log[m * a] = log[m * a] + psi if m * a in log else psi
    return log


def _exp(log: dict[int, GradedPolynomial], one: GradedPolynomial, bound: int) -> PuiseuxSeries:
    """``exp`` of a log with no constant term, by ``N F_N = sum_j j L_j F_(N-j)`` through ``bound``."""
    slopes = [(j, log[j].scale(j)) for j in sorted(log)]
    out = {0: one}
    for n in range(1, bound + 1):
        f = one.dot([(s, out[n - j]) for j, s in slopes if j <= n and n - j in out])
        if f:
            out[n] = f.scale(Fraction(1, n))
    return PuiseuxSeries(out, bound, GradedPolynomial.zero(one.table, one.max_weight))


def lambda_string(E: GradedPolynomial, half: bool, sign: int, order: int) -> PuiseuxSeries:
    """``tensor_{n>=1} lambda_{sign q^(n)}(E)`` (or steps ``n - 1/2`` when half).

    A trivial line gives ``prod (1 + q^n)``; the half string has no ``q`` term,
    because ``lambda^2`` of a line vanishes:

    >>> from anomcancel.genus import build_generator_table
    >>> line = GradedPolynomial.one(build_generator_table(1, 0, True, 2), 2)
    >>> lambda_string(line, False, +1, 1).to_text()
    '1 + q'
    >>> lambda_string(line, True, +1, 1).to_text()
    '1 + q^(1/2)'
    """
    bound = Q_UNIT * order
    return _exp(_string_log([(E, HALF_UNIT if half else Q_UNIT, sign, True)], bound), E.one_like(), bound)


def theta_object(kind: str, tangent: GradedPolynomial, line: GradedPolynomial | None,
                 order: int) -> PuiseuxSeries:
    """The five tensor-string objects as character-valued series, each one exp of its strings' logs.

    ``tangent`` and ``line`` are the unreduced bundles; both enter reduced.
    The unreduced line would give the same ``theta_c`` (the trivial-factor
    corrections cancel across its three exterior strings) but another
    ``theta_c_star``; the reduced one matches the theta-quotient path.
    """
    if kind not in _EXTERIOR_STRINGS:
        raise AlgebraError(f"unknown theta object {kind!r}")
    if line is None and kind.startswith("theta_c"):
        raise AlgebraError(f"{kind} needs the line bundle")
    t = reduced(tangent)
    strings = [(t, Q_UNIT, 1, False)] + [(reduced(line) if on_line else t, first, sign, True)
                                         for on_line, first, sign in _EXTERIOR_STRINGS[kind]]
    return _exp(_string_log(strings, Q_UNIT * order), t.one_like(), Q_UNIT * order)
