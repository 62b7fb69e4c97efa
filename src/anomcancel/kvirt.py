"""Lambda-ring calculus on virtual bundles given by their Chern characters.

A virtual bundle is represented by its character polynomial alone; the rank
is the weight-0 part.  Adams operations scale the weight-w piece by ``m^w``,
and the exterior/symmetric power series are the classical lambda-ring
exponentials, so everything extends to virtual arguments automatically:

    lambda_t(E) = exp( sum_m (-1)^(m-1) psi^m(E) t^m / m )
    s_t(E)      = exp( sum_m          psi^m(E) t^m / m ) = 1/lambda_{-t}(E)

A tensor string ``tensor_n lambda_{t_n}(E)`` is therefore the exp of a
divisor sum over Adams operations, and a theta object, a product of strings,
is one exp of its strings' summed logs, run by the Euler recurrence on the
q-lattice.  The results are Puiseux series with VirtualBundle coefficients.
This module is the independent low-order oracle against the theta-product
path: both must produce the same character forms coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraError, GradedPolynomial, GeneratorTable
from .genus import FAMILY_TM, FAMILY_V, RootFamily, additive_over_roots
from .qseries import PuiseuxSeries

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
        """Exterior power: the ``t^i`` coefficient of ``lambda_t(E)``, one exp of its Adams log."""
        if i < 0:
            raise AlgebraError("negative exterior power")
        log = {m: self.adams(m).scale(Fraction((-1) ** (m - 1), m)) for m in range(1, i + 1)}
        return _exp(log, self.one_like(), i).coefficient(i)

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


# (on the line?, first step in lattice units, sign) of each object's exterior strings;
# every object also carries the symmetric string of the reduced tangent.
_EXTERIOR_STRINGS = {"theta1": [(False, 8, 1)], "theta2": [(False, 4, -1)], "theta3": [(False, 4, 1)],
                     "theta_c": [(True, 8, 1), (True, 4, -1), (True, 4, 1)],
                     "theta_c_star": [(True, 8, -1)]}


def _string_log(strings, bound: int) -> dict[int, VirtualBundle]:
    """Summed log of the strings ``tensor_n lambda_{sign q^(a_n)}(E)`` through lattice ``bound``.

    A string is ``(E, first, sign, exterior)`` with steps ``a_n = first + 8(n - 1)``
    lattice units, and ``S`` in place of ``lambda`` when not exterior.  The
    log's coefficient at lattice ``N`` is the divisor sum ``sum_{m a_n = N}
    (-1)^(m-1) sign^m psi^m(E) / m``, without ``(-1)^(m-1)`` for ``S``.
    """
    log: dict[int, VirtualBundle] = {}
    for E, first, sign, exterior in strings:
        for m in range(1, bound // first + 1):
            psi = E.adams(m).scale(Fraction(sign ** m * ((-1) ** (m - 1) if exterior else 1), m))
            for a in range(first, bound // m + 1, 8):
                log[m * a] = log[m * a] + psi if m * a in log else psi
    return log


def _exp(log: dict[int, VirtualBundle], one: VirtualBundle, bound: int) -> PuiseuxSeries:
    """``exp`` of a log with no constant term, by ``N F_N = sum_j j L_j F_(N-j)`` through ``bound``."""
    slopes = [(j, log[j].scale(j)) for j in sorted(log)]
    out = {0: one}
    for n in range(1, bound + 1):
        f = one.dot([(s, out[n - j]) for j, s in slopes if j <= n and n - j in out])
        if f:
            out[n] = f.scale(Fraction(1, n))
    return PuiseuxSeries(out, bound, one.zero_like())


def lambda_string(E: VirtualBundle, half: bool, sign: int, order: int) -> PuiseuxSeries:
    """``tensor_{n>=1} lambda_{sign q^(n)}(E)`` (or steps ``n - 1/2`` when half).

    A trivial line gives ``prod (1 + q^n)``; the half string has no ``q`` term,
    because ``lambda^2`` of a line vanishes:

    >>> from anomcancel.genus import build_generator_table
    >>> line = VirtualBundle.trivial(1, build_generator_table(1, 0, True, 2), 2)
    >>> lambda_string(line, False, +1, 1).to_text()
    '1 + q'
    >>> lambda_string(line, True, +1, 1).to_text()
    '1 + q^(1/2)'
    """
    return _exp(_string_log([(E, 4 if half else 8, sign, True)], 8 * order), E.one_like(), 8 * order)


def theta_object(kind: str, tangent: VirtualBundle, line: VirtualBundle | None,
                 order: int) -> PuiseuxSeries:
    """The five tensor-string objects as bundle-valued series, each one exp of its strings' logs.

    ``tangent`` and ``line`` are the unreduced bundles; both enter reduced.
    The unreduced line would give the same ``theta_c`` (the trivial-factor
    corrections cancel across its three exterior strings) but another
    ``theta_c_star``; the reduced one matches the theta-quotient path.
    """
    if kind not in _EXTERIOR_STRINGS:
        raise AlgebraError(f"unknown theta object {kind!r}")
    if line is None and kind.startswith("theta_c"):
        raise AlgebraError(f"{kind} needs the line bundle")
    t = tangent.reduced()
    strings = [(t, 8, 1, False)] + [(line.reduced() if on_line else t, first, sign, True)
                                    for on_line, first, sign in _EXTERIOR_STRINGS[kind]]
    return _exp(_string_log(strings, 8 * order), t.one_like(), 8 * order)


def bundle_coefficient(series: PuiseuxSeries, k: int) -> VirtualBundle:
    """Coefficient bundle of ``q^(k/8)`` in a bundle-valued series."""
    return series.coefficient(k)


def character_series(series: PuiseuxSeries) -> PuiseuxSeries:
    """Replace each bundle coefficient by its Chern character polynomial."""
    zero: VirtualBundle = series.zero
    return series.map_coefficients(lambda b: b.ch, new_zero=zero.ch)
