"""One spin verification, step by step (k = 2, so dimension 8).

The walkthrough builds the half-integer P-series from theta factors, solves
the two basis coefficients h_0, h_1, shows them in normalized and standard
Pontryagin generators, and checks the constant-term and q^1 identities
exactly.
"""

from anomcancel import build_P, make_setting, verify_theorem
from anomcancel.anomaly import decompose_setting

K, L = 2, 2


def walkthrough():
    setting = make_setting("spin4k", K, L)
    print(f"setting: dim {setting.dim} spin manifold, auxiliary bundle of rank {2 * L}, "
          f"series through q^{setting.n_q}")

    p2 = build_P(setting, "P2")
    print("\nP2 leading coefficients (top-weight forms, first Pontryagin class of the "
          "auxiliary bundle set to zero):")
    for units in sorted(p2.terms)[:3]:
        poly = p2.coefficient(units).to_standard_basis()
        print(f"  q-lattice {units:>2} (q^{units}/8): {poly.to_text()}")

    dec = decompose_setting(setting)
    print("\nbasis coefficients:")
    for r, h in enumerate(dec.h):
        print(f"  h_{r} normalized: {h.to_text()}")
        print(f"      standard:   {h.to_standard_basis().to_text()}")
    print("decomposition residual zero over all computed orders:", dec.residual_zero)
    print("h_r as integer combinations of the input coefficients:",
          [[str(c) for c in row] for row in dec.solve_coeffs])

    for tid in ("3.1", "3.2"):
        report = verify_theorem(tid, k=K, l=L)
        print(f"\nidentity {tid}: {report.status}")
        for name, check in sorted(report.checks.items()):
            print(f"  {name}: {'zero' if check.zero else 'NONZERO'}")


if __name__ == "__main__":
    walkthrough()
