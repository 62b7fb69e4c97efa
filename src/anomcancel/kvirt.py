"""Lambda-ring calculus on virtual bundles given by their Chern characters.

A virtual bundle is represented by its character polynomial alone; the rank
is the weight-0 part.  Adams operations scale the weight-w piece by ``m^w``,
and the exterior/symmetric power series come from the standard exponential
formulas, so everything extends to virtual arguments automatically:

    lambda_t(E) = exp( sum_m (-1)^(m-1) psi^m(E) t^m / m )
    s_t(E)      = exp( sum_m          psi^m(E) t^m / m ) = 1/lambda_{-t}(E)

Series of bundles (exterior strings, symmetric strings, and the tensor-string
objects built from them) are Puiseux series with VirtualBundle coefficients.
This module is the independent low-order oracle against the theta-product
path: both must produce the same character forms coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError, GradedPolynomial, GeneratorTable
from .genus import FAMILY_TM, FAMILY_V, RootFamily, additive_over_roots
from .qseries import PuiseuxSeries

THETA_KINDS = ("theta1", "theta2", "theta3", "theta_c", "theta_c_star")


class VirtualBundle:
    """Formal difference of bundles, carried as (rank, Chern character)."""

    __slots__ = ("ch",)

    def __init__(self, ch: GradedPolynomial):
        object.__setattr__(self, "ch", ch)

    def __setattr__(self, name, value):
        raise AttributeError("VirtualBundle is immutable")

    @property
    def rank(self) -> int:
        c = self.ch.constant_term()
        if c.denominator != 1:
            raise AlgebraError(f"rank {c} is not an integer")
        return int(c)

    @staticmethod
    def trivial(n: int, table: GeneratorTable, max_weight: int) -> "VirtualBundle":
        return VirtualBundle(GradedPolynomial.scalar(n, table, max_weight))

    def zero_like(self) -> "VirtualBundle":
        return VirtualBundle(GradedPolynomial.zero(self.ch.table, self.ch.max_weight))

    def one_like(self) -> "VirtualBundle":
        return VirtualBundle(GradedPolynomial.one(self.ch.table, self.ch.max_weight))

    def __add__(self, other: "VirtualBundle") -> "VirtualBundle":
        return VirtualBundle(self.ch + other.ch)

    def __sub__(self, other: "VirtualBundle") -> "VirtualBundle":
        return VirtualBundle(self.ch - other.ch)

    def __neg__(self) -> "VirtualBundle":
        return VirtualBundle(-self.ch)

    def __mul__(self, other: "VirtualBundle") -> "VirtualBundle":
        """Tensor product: characters multiply."""
        return VirtualBundle(self.ch * other.ch)

    def dot(self, pairs) -> "VirtualBundle":
        """``sum_i a_i * b_i`` over bundle pairs, through the characters' kernel."""
        return VirtualBundle(self.ch.dot([(a.ch, b.ch) for a, b in pairs]))

    def scale(self, value) -> "VirtualBundle":
        return VirtualBundle(self.ch.scale(value))

    def __bool__(self):
        return bool(self.ch)

    def __eq__(self, other):
        if isinstance(other, VirtualBundle):
            return self.ch == other.ch
        return NotImplemented

    def reduced(self) -> "VirtualBundle":
        """``E - rank(E)``."""
        return VirtualBundle(self.ch - self.ch.constant_term())

    def adams(self, m: int) -> "VirtualBundle":
        """Adams operation: multiply each Chern root by ``m``."""
        if m < 1:
            raise AlgebraError("Adams operations need m >= 1")
        table = self.ch.table
        terms = {e: c * m ** table.monomial_weight(e) for e, c in self.ch.terms.items()}
        return VirtualBundle(GradedPolynomial(table, terms, self.ch.max_weight))

    def lambda_power(self, i: int) -> "VirtualBundle":
        """Exterior power via the Newton-type recurrence over Adams operations."""
        if i < 0:
            raise AlgebraError("negative exterior power")
        lam = [self.one_like()]
        for n in range(1, i + 1):
            acc = self.zero_like()
            for j in range(1, n + 1):
                term = self.adams(j) * lam[n - j]
                acc = acc + (term if j % 2 == 1 else -term)
            lam.append(acc.scale(Fraction(1, n)))
        return lam[i]

    def to_text(self) -> str:
        return self.ch.to_text()

    def to_json_obj(self):
        return self.ch.to_json_obj()

    def __repr__(self):
        return f"VirtualBundle({self.ch.to_text()})"


def tangent_bundle(n_roots: int, table: GeneratorTable, max_weight: int) -> VirtualBundle:
    """Complexified tangent bundle: ``sum_j (e^{2iz_j} + e^{-2iz_j})``."""
    return _cosine_bundle(RootFamily(FAMILY_TM, n_roots), table, max_weight)


def aux_bundle(n_roots: int, table: GeneratorTable, max_weight: int) -> VirtualBundle:
    """Complexified auxiliary bundle of rank ``2 * n_roots``."""
    return _cosine_bundle(RootFamily(FAMILY_V, n_roots), table, max_weight)


def _cosine_bundle(fam: RootFamily, table: GeneratorTable, max_weight: int) -> VirtualBundle:
    # e^{2iz} + e^{-2iz} = 2 cos 2z = sum 2(-4)^m z^{2m} / (2m)!
    coeffs = []
    fact = 1
    for m in range(0, max_weight // 2 + 1):
        if m:
            fact *= (2 * m - 1) * (2 * m)
        coeffs.append(2 * Fraction((-4) ** m, fact))
    return VirtualBundle(additive_over_roots(coeffs, fam, table, max_weight))


def line_pair_bundle(table: GeneratorTable, max_weight: int) -> VirtualBundle:
    """The complexified line ``L + conj(L)``: ``e^{2iu} + e^{-2iu} = 2 cosh 2w``, rank 2."""
    out = GradedPolynomial.scalar(2, table, max_weight)
    fact = 1
    for d in range(2, max_weight + 1, 2):
        fact *= (d - 1) * d
        out = out + GradedPolynomial.generator("w", table, max_weight, power=d).scale(
            2 * Fraction(2 ** d, fact))
    return VirtualBundle(out)


def _exp_bundle_series(X: PuiseuxSeries) -> PuiseuxSeries:
    zero: VirtualBundle = X.zero
    out = PuiseuxSeries.constant(zero.one_like(), X.order_bound, zero)
    term = out
    lead = X.leading_exponent()
    if lead <= 0:
        raise AlgebraError("exponential needs a series with positive leading exponent")
    t = 0
    while t * lead <= X.order_bound:
        t += 1
        term = (term * X).map_coefficients(lambda b: b.scale(Fraction(1, t)))
        if term.is_zero():
            break
        out = out + term
    return out


def lambda_series(E: VirtualBundle, step_units: int, sign: int, order: int) -> PuiseuxSeries:
    """``lambda_t(E)`` at ``t = sign * q^(step/8)`` as a bundle-valued series."""
    if step_units <= 0:
        raise AlgebraError("the exponent step must be positive")
    bound = 8 * order
    zero = E.zero_like()
    terms = {}
    m = 1
    while m * step_units <= bound:
        c = Fraction((-1) ** (m - 1) * sign ** m, m)
        terms[m * step_units] = E.adams(m).scale(c)
        m += 1
    return _exp_bundle_series(PuiseuxSeries(terms, bound, zero))


def s_series(E: VirtualBundle, step_units: int, order: int) -> PuiseuxSeries:
    """``S_t(E)`` at ``t = q^(step/8)``; inverse of ``lambda_{-t}(E)``."""
    bound = 8 * order
    zero = E.zero_like()
    terms = {}
    m = 1
    while m * step_units <= bound:
        terms[m * step_units] = E.adams(m).scale(Fraction(1, m))
        m += 1
    return _exp_bundle_series(PuiseuxSeries(terms, bound, zero))


def sym_string(E: VirtualBundle, order: int) -> PuiseuxSeries:
    """``tensor_{n>=1} S_{q^n}(E)``, truncated when steps leave the window."""
    out = PuiseuxSeries.constant(E.one_like(), 8 * order, E.zero_like())
    n = 1
    while 8 * n <= 8 * order:
        out = out * s_series(E, 8 * n, order)
        n += 1
    return out


def lambda_string(E: VirtualBundle, half: bool, sign: int, order: int) -> PuiseuxSeries:
    """``tensor_{n>=1} lambda_{sign q^(n)}(E)`` (or steps ``n - 1/2`` when half)."""
    out = PuiseuxSeries.constant(E.one_like(), 8 * order, E.zero_like())
    n = 1
    while True:
        step = 8 * n - (4 if half else 0)
        if step > 8 * order:
            break
        out = out * lambda_series(E, step, sign, order)
        n += 1
    return out


def theta_object(kind: str, tangent: VirtualBundle, line: VirtualBundle | None,
                 order: int, *, reduced_line: bool = True) -> PuiseuxSeries:
    """The five tensor-string objects as bundle-valued series.

    ``tangent`` and ``line`` are the unreduced bundles; the tangent enters
    every object reduced.  For ``theta_c`` the reduced and unreduced line
    conventions give identical series (their trivial-factor corrections cancel
    across the three strings); for ``theta_c_star`` they differ and the
    reduced one is the convention matching the theta-quotient path.
    """
    t = tangent.reduced()
    if kind == "theta1":
        return sym_string(t, order) * lambda_string(t, False, +1, order)
    if kind == "theta2":
        return sym_string(t, order) * lambda_string(t, True, -1, order)
    if kind == "theta3":
        return sym_string(t, order) * lambda_string(t, True, +1, order)
    if line is None:
        raise AlgebraError(f"{kind} needs the line bundle")
    ell = line.reduced() if reduced_line else line
    if kind == "theta_c":
        return (sym_string(t, order)
                * lambda_string(ell, False, +1, order)
                * lambda_string(ell, True, -1, order)
                * lambda_string(ell, True, +1, order))
    if kind == "theta_c_star":
        return sym_string(t, order) * lambda_string(ell, False, -1, order)
    raise AlgebraError(f"unknown theta object {kind!r}")


def bundle_coefficient(series: PuiseuxSeries, k: int) -> VirtualBundle:
    """Coefficient bundle of ``q^(k/8)`` in a bundle-valued series."""
    return series.coefficient(k)


def character_series(series: PuiseuxSeries) -> PuiseuxSeries:
    """Replace each bundle coefficient by its Chern character polynomial."""
    zero: VirtualBundle = series.zero
    return series.map_coefficients(lambda b: b.ch, new_zero=zero.ch)
