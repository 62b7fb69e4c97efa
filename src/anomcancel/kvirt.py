"""Lambda-ring calculus on bundles given by their Chern characters.

A bundle is its character polynomial: the rank is the constant term, and
the Adams operation ``psi^m`` scales the weight-w part by ``m^w``.  Every
bundle the verifier uses (tangent, auxiliary, and the spin^c line pair) is
the complexified bundle of a root family (:func:`complexified_bundle`).  The
exterior/symmetric power series are the classical lambda-ring exponentials,
so everything extends to virtual arguments automatically:

    lambda_t(E) = exp( sum_m (-1)^(m-1) psi^m(E) t^m / m )
    s_t(E)      = exp( sum_m          psi^m(E) t^m / m ) = 1/lambda_{-t}(E)

So the log of a tensor string ``tensor_n lambda_{sign q^(a_n)}(E)`` has
weight-w part ``E_w`` times ``sum_(m a_n = N) eps_m sign^m m^(w-1) q^N``
(``eps_m = (-1)^(m-1)``, 1 for S), a column for the theta route's exp
:func:`~anomcancel.algebra.exp_by_grade`; ``E`` has rank 0.  A theta object
is one exp of its strings' logs, as weight pieces (piece n at weight 2n):
the independent oracle for the theta-product path.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .algebra import AlgebraError, GradedPolynomial, GeneratorTable, QColumns, dot, exp_by_grade
from .genus import RootFamily, additive_over_roots
from .qseries import HALF_UNIT, Q_UNIT


def reduced(E: GradedPolynomial) -> GradedPolynomial:
    """``E - rank(E)``."""
    return E - E.component(0)


def adams(E: GradedPolynomial, m: int) -> GradedPolynomial:
    """Adams operation ``psi^m``: multiply each Chern root by ``m``.

    On the line pair ``2 cosh 2w`` it gives ``2 cosh 4w``:

    >>> from anomcancel.genus import LINE, build_generator_table
    >>> L = complexified_bundle(LINE, build_generator_table(1, 0, True, 4))
    >>> L.to_text(), adams(L, 2).to_text()
    ('2 + 4*w^2 + 4/3*w^4', '2 + 16*w^2 + 64/3*w^4')
    """
    if m < 1:
        raise AlgebraError("Adams operations need m >= 1")
    return E.scale_by_weight(m)


def lambda_power(E: GradedPolynomial, i: int) -> GradedPolynomial:
    """Exterior power ``lambda^i(E)``, by Newton: ``n lambda^n = sum_j (-1)^(j-1) psi^j(E) lambda^(n-j)``."""
    if i < 0:
        raise AlgebraError("negative exterior power")
    lam = [E.one_like()]
    for n in range(1, i + 1):
        lam.append(dot([(adams(E, j).scale(Fraction((-1) ** (j - 1), n)), lam[n - j]) for j in range(1, n + 1)],
                       E.table))
    return lam[i]


def complexified_bundle(fam: RootFamily, table: GeneratorTable) -> GradedPolynomial:
    """``sum_j (e^{2iz_j} + e^{-2iz_j})``, each root's ``2 cos 2z`` being ``sum_m 2(-4)^m z^{2m} / (2m)!``.

    Rank ``2n``.  On :data:`~anomcancel.genus.LINE`, whose squared root is
    ``-w^2``, it is the line pair ``L + conj(L) = 2 cosh 2w``.
    """
    coeffs = [2 * Fraction((-4) ** m, factorial(2 * m)) for m in range(table.cap // 2 + 1)]
    return additive_over_roots(coeffs, fam, table)


# (on the line?, first step in lattice units, sign) of each object's exterior strings;
# every object also carries the symmetric string of the reduced tangent.
_EXTERIOR_STRINGS = {"theta1": [(False, Q_UNIT, 1)], "theta2": [(False, HALF_UNIT, -1)],
                     "theta3": [(False, HALF_UNIT, 1)],
                     "theta_c": [(True, Q_UNIT, 1), (True, HALF_UNIT, -1), (True, HALF_UNIT, 1)],
                     "theta_c_star": [(True, Q_UNIT, -1)]}


def _adams_column(first: int, sign: int, exterior: bool, power: int, bound: int) -> list[int]:
    """``sum_(m a_n = N) eps_m sign^m m^power`` at ``N = i * first`` for steps ``a_n = first + Q_UNIT (n - 1)``."""
    col = [0] * (bound // first + 1)
    for m in range(1, bound // first + 1):
        c = ((-1) ** (m - 1) if exterior else 1) * sign ** m * m ** power
        for a in range(first, bound // m + 1, Q_UNIT):
            col[m * a // first] += c
    return col


def _exp_of_strings(strings, bound: int) -> list[QColumns]:
    """The weight pieces of a product of strings ``(E, first, sign, exterior)``, through lattice ``bound``."""
    columns = []
    for E, first, sign, exterior in strings:
        den, groups = E.int_form()
        for w, items in groups:
            if w == 0 or w % 2:
                raise AlgebraError(f"a tensor string takes a rank-0 bundle of even weights, not weight {w}")
            col = QColumns(1, first, {0: _adams_column(first, sign, exterior, w - 1, bound)}, bound)
            columns.append((w // 2, col, den, items))
    return exp_by_grade(columns, strings[0][0].table, bound)


def lambda_string(E: GradedPolynomial, half: bool, sign: int, order: int) -> list[QColumns]:
    """``tensor_{n>=1} lambda_{sign q^(n)}(E)`` (or steps ``n - 1/2`` when half) for a rank-0 ``E``, by weight.

    >>> from anomcancel.genus import LINE, build_generator_table
    >>> table = build_generator_table(1, 0, True, 4)
    >>> E = reduced(complexified_bundle(LINE, table))      # 2 cosh 2w - 2, the q^1 coefficient
    >>> [piece.coefficient(8).to_text() for piece in lambda_string(E, False, +1, 1)]
    ['0', '4*w^2', '4/3*w^4']
    """
    return _exp_of_strings([(E, HALF_UNIT if half else Q_UNIT, sign, True)], Q_UNIT * order)


def theta_object(kind: str, tangent: GradedPolynomial, line: GradedPolynomial | None,
                 order: int) -> list[QColumns]:
    """The weight pieces of the five tensor-string objects, each one exp of its strings' logs.

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
    return _exp_of_strings(strings, Q_UNIT * order)
