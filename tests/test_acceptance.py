"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion.  Every tolerance here is exact: a check passes only when the
residual is identically zero (or, for the audits, when the 2-adic bound
matches the expected outcome, including the one expected gap).
"""

import time
from fractions import Fraction

from anomcancel import anomaly, suite
from anomcancel.genus import FAMILY_TM, RootFamily, build_generator_table, prod_over_roots
from anomcancel.modforms import delta_eps, leading_minor, unit_lower_inverse
from anomcancel.theta import jacobi_residual, theta_log

from helpers import TermSeries, brute_force_prod, product_factor

SPIN_GRID = [(k, l) for k in (1, 2, 3) for l in (1, 2, 3, 4)]
SPINC4K_GRID = [(k, l) for k in (1, 2) for l in (1, 2, 3)]
SPINC4K2_GRID = [(k, l) for k in (1, 2) for l in (1, 2)]


def announce(n, ok, desc):
    print(f"\ncriterion {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_1_theta_layer():
    t0 = time.perf_counter()
    ok = not jacobi_residual(10)
    pins = {
        "delta1": [(0, Fraction(1, 4)), (8, 6)],
        "eps1": [(0, Fraction(1, 16)), (8, -1)],
        "delta2": [(0, Fraction(-1, 8)), (4, -3)],
        "eps2": [(0, 0), (4, 1)],
    }
    for name, vals in pins.items():
        series = delta_eps(name, 10)
        ok = ok and all(series.coefficient(k) == Fraction(c) for k, c in vals)
    for name, den in (("delta1", 4), ("eps1", 16), ("delta2", 8), ("eps2", 1)):
        # integral past the constant term: 8*delta2, eps2, 16*eps1 and delta1 - 1/4
        ok = ok and all(c.denominator == (den if u == 0 else 1) for u, c in delta_eps(name, 10).terms.items())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    announce(1, ok, f"theta/modform layer exact through q^10 in {elapsed:.2f}s (< 1s)")


def test_criterion_2_spin_theorems():
    worst = 0.0
    ok = True
    for k, l in SPIN_GRID:
        t0 = time.perf_counter()
        for tid in ("3.1", "3.2"):
            r = anomaly.verify_theorem(tid, k=k, l=l)
            ok = ok and r.status == "PASS" and not r.variant_notes
            ok = ok and all(type(c) is int for row in r.solve_coeffs for c in row)
            for name in ("decomposition_residual", "transfer_residual", "main_identity"):
                ok = ok and r.checks[name].zero
            if tid == "3.1":
                ok = ok and r.checks["h0_closed_form"].zero
                if k >= 2:
                    ok = ok and r.checks["h1_closed_form"].zero
        worst = max(worst, time.perf_counter() - t0)
    ok = ok and worst < 30.0
    announce(2, ok, f"spin identities exact on {{1,2,3}}x{{1,2,3,4}}, worst case {worst:.2f}s (< 30s)")


def test_criterion_3_corollaries():
    ok = True
    for tid in ("3.3", "3.4"):
        for l in (1, 2, 3, 4):
            r = anomaly.verify_theorem(tid, l=l)
            ok = ok and r.checks["printed_identity_tangent_twist"].zero
            ok = ok and r.checks["constant_term_identity"].zero
            ok = ok and r.status in ("PASS", "PASS_WITH_VARIANT")
    announce(3, ok, "k-pinned corollaries exact with the printed coefficients for l in 1..4 "
                    "(tangent-twist reading; independent-V residual recorded)")


def test_criterion_4_oracle_equivalence():
    ok = True
    grids = ([("spin4k", k, l) for k, l in SPIN_GRID]
             + [("spinc4k", k, l) for k, l in SPINC4K_GRID]
             + [("spinc4k2", k, l) for k, l in SPINC4K2_GRID])
    for kind, k, l in grids:
        s = anomaly.make_setting(kind, k, l)
        for which in ("P1", "P2"):
            ok = ok and not anomaly.cross_check_bundle_expansion(s, which, 1)
    for n_roots in (1, 2, 3):
        table = build_generator_table(n_roots, 1, False, 6)
        fam = RootFamily(FAMILY_TM, n_roots)
        for kind in ("a", "t2"):
            engine = prod_over_roots(theta_log(kind, 2, 6), fam, table, 2)
            oracle = brute_force_prod(product_factor(kind, 2, 6), n_roots, "nM", table, 6, 2)
            ok = ok and TermSeries.of(engine) == oracle
    announce(4, ok, "theta path and bundle path agree at q^0, q^(1/2), q^1 on the whole grid; "
                    "genus engine matches explicit-root brute force (<= 3 roots, weight <= 6)")


def _rational_in_standard_basis(polys) -> bool:
    return all(type(c) is Fraction for p in polys for c in p.to_standard_basis().terms.values())


def test_criterion_5_spinc_theorems():
    worst = 0.0
    ok = True
    for k, l in SPINC4K_GRID:
        t0 = time.perf_counter()
        for tid in ("4.1", "4.2"):
            r = anomaly.verify_theorem(tid, k=k, l=l)
            ok = ok and r.status == "PASS" and _rational_in_standard_basis(r.h)
        worst = max(worst, time.perf_counter() - t0)
    for k, l in SPINC4K2_GRID:
        t0 = time.perf_counter()
        for tid in ("4.6", "4.8"):
            r = anomaly.verify_theorem(tid, k=k, l=l)
            ok = ok and r.status == "PASS" and _rational_in_standard_basis(r.h)
        p1 = anomaly.build_P(anomaly.make_setting("spinc4k2", k, l), "P1")
        ok = ok and _rational_in_standard_basis(p1.terms.values())
        worst = max(worst, time.perf_counter() - t0)
    ok = ok and worst < 60.0
    announce(5, ok, f"spin^c identities exact on both grids, outputs rational in the standard basis, "
                    f"worst case {worst:.2f}s (< 60s)")


def test_criterion_6_structural_checks():
    ok = True
    grids = ([("spin4k", k, l) for k, l in SPIN_GRID]
             + [("spinc4k", k, l) for k, l in SPINC4K_GRID]
             + [("spinc4k2", k, l) for k, l in SPINC4K2_GRID])
    for kind, k, l in grids:
        checks = anomaly.structural_checks(anomaly.make_setting(kind, k, l))
        ok = ok and checks["p3_equals_p2_sign_flipped"].zero
    for l in (1, 2, 3, 4):
        checks = anomaly.structural_checks(anomaly.make_setting("spin4k", 1, l))
        ok = ok and checks["degenerate_lhs_vanishes"].zero
        ok = ok and checks["degenerate_rhs_vanishes"].zero
    announce(6, ok, "P3(q^(1/2)) = P2(-q^(1/2)) on the whole grid; k=1 spin identity degenerates "
                    "to 0 = 0 on both sides")


def test_criterion_7_divisibility_audits():
    ok = True
    for m in (0, 1):
        ok = ok and anomaly.divisibility_check("3.6", m).outcome == "PASS"
        ok = ok and anomaly.divisibility_check("3.8", m).outcome == "PASS"
        ok = ok and anomaly.divisibility_check("4.4", m).outcome == "PASS"
        ok = ok and anomaly.divisibility_check("4.5", m).outcome == "PASS"
        ok = ok and anomaly.divisibility_check("4.10", m).outcome == "PASS"
        gap = anomaly.divisibility_check("4.9", m)
        ok = ok and gap.outcome == "GAP" and gap.implied_exponent == 4 and gap.claimed_exponent == 5
        inverse = unit_lower_inverse(leading_minor(gap.k, gap.k // 2 + 2))
        ok = ok and all(type(c) is int for row in inverse for c in row)
    announce(7, ok, "divisibility audits confirm 16 / 2^9 / 2^10; the mod-32 claim is flagged "
                    "as implied 16 vs claimed 32 (expected gap)")


def test_criterion_8_full_suite_deterministic():
    t0 = time.perf_counter()
    first = suite.run_suite()
    second = suite.run_suite(parallel=2)
    elapsed = time.perf_counter() - t0
    ok = first["all_ok"] and second["all_ok"]
    ok = ok and suite.suite_json(first) == suite.suite_json(second)
    ok = ok and elapsed < 300.0
    announce(8, ok, f"full grid ({first['summary']['total']} cases) byte-identical across serial "
                    f"and parallel runs, {elapsed:.1f}s total (< 300s)")
