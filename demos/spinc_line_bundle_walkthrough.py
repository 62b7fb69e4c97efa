"""Spin^c verifications in both dimension families.

The line bundle contributes the weight-1 generator w = c/2, where c is the
first Chern class; the line's root variable is u = -i*w.  Written in w every
coefficient is rational, so the standard basis (Pontryagin classes and c)
is real by construction; the demo asserts that every standard-basis
coefficient of P1 is a ``Fraction``.
"""

from fractions import Fraction

from anomcancel import build_P, make_setting, verify_theorem


def run(kind, tids, k, l):
    setting = make_setting(kind, k, l)
    print(f"\n== {kind}: dim {setting.dim}, auxiliary rank {2 * l} ==")
    p1 = build_P(setting, "P1")
    print("P1 constant coefficient, normalized:", p1.coefficient(0).to_text())
    print("                      standard basis:", p1.coefficient(0).to_standard_basis().to_text())
    for units in sorted(p1.terms):
        std = p1.coefficient(units).to_standard_basis()
        assert all(type(c) is Fraction for c in std.terms.values()), "standard-basis coefficients must be rational"
    for tid in tids:
        report = verify_theorem(tid, k=k, l=l)
        print(f"identity {tid}: {report.status}")
        for r, h in enumerate(report.h):
            print(f"  h_{r} (standard) = {h.to_standard_basis().to_text()}")


if __name__ == "__main__":
    run("spinc4k", ("4.1", "4.2"), k=1, l=2)
    run("spinc4k2", ("4.6", "4.8"), k=1, l=1)
    run("spinc4k2", ("4.6", "4.8"), k=2, l=2)
