"""Tour of the theta layer: nulls, the product identity, level-2 generators.

Everything is exact: q-expansions carry rational coefficients on the
(1/8)-lattice, and the classical product identity for the derivative null
reduces to an identity of integer series that the engine checks to any order.
"""

from anomcancel import delta_eps, jacobi_residual, theta_factor, theta_null
from anomcancel.modforms import GROUP_UPPER, basis_element


def show_nulls(order=6):
    print("# theta nulls (reduced normalization, through q^%d)" % order)
    for kind in ("theta2", "theta3", "theta1", "theta_prime"):
        print(f"{kind:>12}: {theta_null(kind, order).to_text()}")
    print()


def show_jacobi(order=10):
    res = jacobi_residual(order)
    print(f"# product identity for the derivative null, residual through q^{order}:")
    print("   ", res.to_text(), "(zero =", not res, ")")
    print()


def show_generators(order=6):
    print("# level-2 modular generators")
    for name in ("delta1", "eps1", "delta2", "eps2"):
        print(f"{name:>8}: {delta_eps(name, order).to_text()}")
    # divisor sums: every coefficient past the constant term is an integer
    for name, den in (("delta1", 4), ("eps1", 16), ("delta2", 8), ("eps2", 1)):
        terms = delta_eps(name, order).terms
        assert all(c.denominator == (den if u == 0 else 1) for u, c in terms.items()), name
    print()


def show_basis(order=5):
    print("# triangular weight-2k basis over the half-integer group, k = 2")
    for r in (0, 1):
        print(f"  r={r}: {basis_element(GROUP_UPPER, 2, r, order).to_text()}")
    print()


def show_factor():
    print("# per-root factor a(z) = z theta'(0)/theta(z), q^0 slice is z/sin z")
    print(theta_factor("a", 3, 6).to_text())


if __name__ == "__main__":
    show_nulls()
    show_jacobi()
    show_generators()
    show_basis()
    show_factor()
