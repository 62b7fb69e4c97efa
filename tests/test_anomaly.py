import json
import pickle
from fractions import Fraction

import pytest

from anomcancel import anomaly
from anomcancel.algebra import AlgebraError
from anomcancel.anomaly import (build_P, cross_check_bundle_expansion,
                                decompose_setting, divisibility_check, get_env,
                                make_setting, structural_checks, verify_theorem)
from anomcancel.genus import apply_constraint, build_generator_table
from anomcancel.modforms import DELTA_EPS_KINDS, decompose, delta_eps, transfer_residual
from anomcancel.qseries import HALF_UNIT, Q_UNIT, TruncationError
from anomcancel.suite import suite_cases
from anomcancel.theta import RootFactor, theta_factor, theta_log, theta_null

from helpers import packed, reference_P


def gating_failures(report):
    return [n for n, c in report.checks.items() if c.gating and not c.zero]


def test_setting_validation():
    with pytest.raises(AlgebraError):
        make_setting("spin4k", 0, 1)
    with pytest.raises(AlgebraError):
        make_setting("spin4k", 3, 1, n_q=3)  # too few orders to over-determine
    with pytest.raises(AlgebraError):
        make_setting("weird", 1, 1)
    s = make_setting("spinc4k2", 2, 1)
    assert s.weight == 5 and s.dim == 10 and s.tm_roots == 5


def test_spin_theorems_pass():
    for tid in ("3.1", "3.2"):
        r = verify_theorem(tid, k=2, l=1)
        assert r.status == "PASS", gating_failures(r)
        assert r.solve_integral


def test_spin_constant_term_content():
    # P2's constant coefficient carries the closed form of h0 with sign (-1)^k
    s = make_setting("spin4k", 2, 1)
    dec = anomaly.decompose_setting(s)
    p2 = build_P(s, "P2")
    assert dec.h[0] == p2.coefficient(0)  # k even: (-1)^k = +1
    s1 = make_setting("spin4k", 1, 1)
    dec1 = anomaly.decompose_setting(s1)
    assert dec1.h[0] == -build_P(s1, "P2").coefficient(0)


@pytest.mark.parametrize("kind", ["spin4k", "spinc4k", "spinc4k2"])
def test_p_series_match_the_unfused_reference(kind):
    """Summed logs, the relation on the power sums and top-weight-only pairs change no
    term and no order bound."""
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            for n_q in (None, 2 * k + 7):
                s = make_setting(kind, k, l, n_q)
                for which in ("P1", "P2", "P3"):
                    assert build_P(s, which) == reference_P(s, which), (s, which)


def test_degenerate_k1_case():
    checks = structural_checks(make_setting("spin4k", 1, 2))
    assert checks["degenerate_lhs_vanishes"].zero
    assert checks["degenerate_rhs_vanishes"].zero


def test_sign_flip_structure_all_kinds():
    for kind, k, l in (("spin4k", 2, 1), ("spinc4k", 1, 1), ("spinc4k2", 1, 1)):
        checks = structural_checks(make_setting(kind, k, l))
        assert checks["p3_equals_p2_sign_flipped"].zero, kind


def test_corollaries_variant_reading():
    for tid in ("3.3", "3.4"):
        r = verify_theorem(tid, l=2)
        assert r.status == "PASS_WITH_VARIANT"
        assert r.checks["printed_identity_tangent_twist"].zero
        assert not r.checks["printed_identity_independent_v"].zero
        assert not r.checks["printed_identity_independent_v"].gating
        assert r.checks["constant_term_identity"].zero
    with pytest.raises(AlgebraError):
        verify_theorem("3.3", k=3, l=1)  # k is pinned to 2


def test_spinc_theorems_pass():
    for tid, k, l in (("4.1", 1, 2), ("4.2", 1, 2), ("4.6", 1, 1), ("4.8", 1, 1)):
        r = verify_theorem(tid, k=k, l=l)
        assert r.status == "PASS", (tid, gating_failures(r))
        assert r.checks["reality_standard_basis"].zero


def test_spinc4k2_outputs_real_in_standard_basis():
    s = make_setting("spinc4k2", 1, 1)
    p1 = build_P(s, "P1")
    for k in p1.exponents():
        std = p1.coefficient(k).to_standard_basis()
        assert std.is_real(), f"imaginary part at q-lattice {k}"


def test_unreduced_line_variant_recorded():
    r = verify_theorem("4.8", k=1, l=1)
    c = r.checks["unreduced_line_variant"]
    assert not c.gating
    assert not c.zero  # differs by twice the constant-term side, by design


def _full_order_mismatches(kind, k, l):
    """The (which, lattice) positions through q^(n_q) where the two routes differ on P1 or P2."""
    s = make_setting(kind, k, l)
    env = get_env(s)
    bad = []
    for which in ("P1", "P2"):
        kv = env.kvirt_series(which, order=s.n_q)
        for units in range(0, Q_UNIT * s.n_q + 1, HALF_UNIT):
            bundle_side = apply_constraint(kv.coefficient(units).component(s.weight), kind)
            if env.coefficient(which, units) != bundle_side:
                bad.append((which, units))
    return bad


def test_cross_checks():
    """At q^(3/2) and q^(5/2) the lambda-ring series must run to the next whole order; over the
    suite grid the two routes agree at every half-integer position the P-series carry."""
    for kind, k, l in (("spin4k", 1, 1), ("spinc4k", 1, 1), ("spinc4k2", 1, 1), ("spin4k", 2, 1),
                       ("spinc4k", 2, 1), ("spinc4k2", 2, 1)):
        s = make_setting(kind, k, l)
        for which in ("P1", "P2"):
            for units in (0, 4, 8, 12, 20):
                assert not cross_check_bundle_expansion(s, units, which), (kind, which, units)
    for case in suite_cases():
        if case.kind == "crosscheck":
            kind, k, l, _ = case.params
            assert not _full_order_mismatches(kind, k, l), case.case_id


@pytest.mark.slow
@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("kind", ["spin4k", "spinc4k", "spinc4k2"])
def test_cross_checks_at_every_order_beyond_the_grid(kind, k):
    assert not _full_order_mismatches(kind, k, 1)


def test_packed_read_past_the_bound_raises():
    """The packed P-series carries the bound it is known through, and its own read enforces it."""
    s = make_setting("spin4k", 2, 1)
    env = get_env(s)
    top = env.packed("P2")
    assert top.bound == 8 * s.n_q == build_P(s, "P2").order_bound
    assert top.coefficient(top.bound, env.table, s.weight) == build_P(s, "P2").coefficient(top.bound)
    for past in (top.bound + 4, top.bound + 1):
        with pytest.raises(TruncationError, match="beyond the computed order"):
            top.coefficient(past, env.table, s.weight)
        with pytest.raises(TruncationError):
            env.coefficient("P2", past)


def test_divisibility_outcomes():
    assert divisibility_check("3.6", 0).outcome == "PASS"
    a38 = divisibility_check("3.8", 0)
    assert a38.outcome == "PASS" and a38.implied_exponent is None
    a38b = divisibility_check("3.8", 1)
    assert a38b.outcome == "PASS" and a38b.implied_exponent == 10
    gap = divisibility_check("4.9", 0)
    assert gap.outcome == "GAP"
    assert gap.implied_exponent == 4 and gap.claimed_exponent == 5
    assert divisibility_check("4.10", 1).outcome == "PASS"
    with pytest.raises(AlgebraError):
        divisibility_check("4.9", 1, l=3)  # l below 4m+2
    with pytest.raises(AlgebraError):
        divisibility_check("3.1", 0)


def test_divisibility_respects_assumed_valuation():
    # with v2(h) = 2 the implied power for the gap case reaches 32
    a = divisibility_check("4.9", 0, assumed_v2_h=2)
    assert a.implied_exponent == 5 and a.outcome == "PASS"


def test_report_json_deterministic():
    r1 = verify_theorem("3.1", k=1, l=1)
    r2 = verify_theorem("3.1", k=1, l=1)
    assert json.dumps(r1.to_json_obj(), indent=2) == json.dumps(r2.to_json_obj(), indent=2)
    obj = r1.to_json_obj()
    assert obj["schema"] == 1
    assert "elapsed_seconds" not in json.dumps(obj)


def test_verify_rejects_bad_ids():
    with pytest.raises(AlgebraError):
        verify_theorem("9.9", k=1)
    with pytest.raises(AlgebraError):
        verify_theorem("3.6", k=1)  # audits go through divisibility_check
    with pytest.raises(AlgebraError):
        verify_theorem("3.1")  # k required


def test_higher_order_does_not_break_identities():
    # doubling the checked window must leave every residual zero
    r = verify_theorem("3.1", k=2, l=1, n_q=12)
    assert r.status == "PASS", gating_failures(r)
    r = verify_theorem("4.6", k=1, l=1, n_q=10)
    assert r.status == "PASS", gating_failures(r)


def test_generalizes_beyond_the_grid():
    # dim 16 engages a third basis coefficient (r = 2) for the first time
    r = verify_theorem("3.1", k=4, l=2)
    assert len(r.h) == 3 and r.status == "PASS", gating_failures(r)
    r = verify_theorem("3.2", k=4, l=2)
    assert r.status == "PASS", gating_failures(r)
    r = verify_theorem("4.6", k=3, l=1)
    assert r.status == "PASS", gating_failures(r)


@pytest.mark.parametrize("kind", ["spin4k", "spinc4k", "spinc4k2"])
def test_single_scalar_ring(kind):
    """Every coefficient the engine produces is exactly a Fraction."""
    setting = make_setting(kind, 1, 1)
    polys = [p for which in ("P1", "P2", "P3") for p in build_P(setting, which).terms.values()]
    polys += decompose_setting(setting).h
    coeffs = [c for p in polys for c in p.terms.values()]
    coeffs += [g.std_factor for g in get_env(setting).table.gens]
    coeffs += [c for name in DELTA_EPS_KINDS for c in delta_eps(name, setting.n_q).terms.values()]
    assert coeffs
    assert {type(c) for c in coeffs} == {Fraction}



def test_pickle_roundtrip():
    """Every immutable series type survives pickling (it is rebuilt through its constructor)."""
    p2 = build_P(make_setting("spinc4k", 2, 1), "P2")
    table = build_generator_table(2, 2, True, 4)
    for obj in (table, p2, p2.zero, theta_null("theta3", 3), theta_factor("t2", 3, 4),
                theta_log("a", 3, 4)):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        if isinstance(obj, RootFactor):   # no __eq__: compare its state
            assert (back.terms, back.z_bound, back.q_bound) == (obj.terms, obj.z_bound, obj.q_bound)
        else:
            assert back == obj
    back = pickle.loads(pickle.dumps(table))
    assert back.monomial_weight((1, 0, 1, 0, 1)) == 5
    assert back.standard_table == table.standard_table


_KIND_THEOREMS = {"spin4k": ("3.1", "3.2"), "spinc4k": ("4.1", "4.2"), "spinc4k2": ("4.6", "4.8")}


def _verdicts_at(kind, k, l):
    """verify JSON in both bases for the kind's two identities, and P1/P2/P3."""
    reports = [json.dumps(verify_theorem(tid, k=k, l=l).to_json_obj(basis))
               for tid in _KIND_THEOREMS[kind] for basis in ("standard", "normalized")]
    return reports, [build_P(make_setting(kind, k, l), which) for which in ("P1", "P2", "P3")]


@pytest.mark.parametrize("kind", list(_KIND_THEOREMS))
def test_sharing_the_tangent_half_cannot_change_a_verdict(kind, monkeypatch):
    """l=3 built cold equals l=3 built after l=1 and l=2 filled the memo.

    Settings that differ only in l share one tangent half, whose exps run once.
    """
    monkeypatch.setattr(anomaly, "_env_cache", {})
    monkeypatch.setattr(anomaly, "_tangent_cache", {})
    cold = _verdicts_at(kind, 2, 3)

    calls = []
    real_exp = anomaly.exp_by_weight

    def counting_exp(logs, *rest):
        calls.append([sums for _, sums in logs])
        return real_exp(logs, *rest)

    monkeypatch.setattr(anomaly, "_env_cache", {})
    monkeypatch.setattr(anomaly, "_tangent_cache", {})
    monkeypatch.setattr(anomaly, "exp_by_weight", counting_exp)
    _verdicts_at(kind, 2, 1)
    _verdicts_at(kind, 2, 2)
    assert _verdicts_at(kind, 2, 3) == cold

    envs = [get_env(make_setting(kind, 2, l)) for l in (1, 2, 3)]
    half = envs[0].half
    assert all(env.half is half for env in envs)
    tangent_exps = [c for c in calls if any(sums is half.tm_sums for sums in c)]
    assert len(tangent_exps) == (3 if kind == "spin4k" else 1)
    assert len(calls) - len(tangent_exps) == 3 * 3     # P1/P2/P3's auxiliary exp at each l


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("kind", ["spin4k", "spinc4k", "spinc4k2"])
def test_public_and_packed_decompositions_agree(kind, k):
    """The ``build_P`` view of P2, packed again by hand, decomposes to exactly the verdict
    path's decomposition; the same holds for the transfer residual of P1."""
    for l in (1, 2, 3):
        s = make_setting(kind, k, l)
        env = get_env(s)
        public, verdict = decompose(packed(build_P(s, "P2")), k, env.gp_zero), env.decomposition()
        assert public.h == verdict.h
        assert public.solve_coeffs == verdict.solve_coeffs
        assert public.integral_solve is verdict.integral_solve is True
        assert public.residual == verdict.residual and verdict.residual_zero
        edge = transfer_residual(packed(build_P(s, "P1")), verdict.h, l, k, env.gp_zero)
        assert edge == transfer_residual(env.packed("P1"), verdict.h, l, k, env.gp_zero)
        assert edge.is_zero()


def test_unknown_p_series_is_rejected():
    s = make_setting("spin4k", 1, 1)
    for read in (build_P, decompose_setting):
        with pytest.raises(AlgebraError, match="unknown P-series"):
            read(s, "P4")


def test_verdict_path_calls_the_public_modular_operations_once(monkeypatch):
    """One cold verify decomposes P2 once and transfers once, through the public names
    ``anomaly`` imports (the names a tracer wrapping them would see)."""
    calls = {"decompose": 0, "transfer_residual": 0}

    def counting(name):
        real = getattr(anomaly, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(anomaly, "_env_cache", {})
    monkeypatch.setattr(anomaly, "_tangent_cache", {})
    for name in calls:
        monkeypatch.setattr(anomaly, name, counting(name))
    assert verify_theorem("4.6", k=2, l=2).status == "PASS"
    assert calls == {"decompose": 1, "transfer_residual": 1}

