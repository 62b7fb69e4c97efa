import json
import pickle
from fractions import Fraction

import pytest

from anomcancel import anomaly
from anomcancel.algebra import AlgebraError, GradedPolynomial
from anomcancel.anomaly import (DIVISIBILITY_IDS, build_P, cross_check_bundle_expansion,
                                decompose_setting, divisibility_check, get_env,
                                make_setting, structural_checks, verify_theorem)
from anomcancel.genus import (FAMILY_TM, FAMILY_V, FAMILY_W, RootFamily, apply_constraint,
                              build_generator_table, classical_genus)
from anomcancel.kvirt import complexified_bundle, lambda_string, reduced, theta_object
from anomcancel.modforms import DELTA_EPS_KINDS, decompose, delta_eps, transfer_residual
from anomcancel.qseries import HALF_UNIT, Q_UNIT, PuiseuxSeries, TruncationError
from anomcancel.suite import SuiteCase, run_case, suite_cases
from anomcancel.theta import RootFactor, theta_factor, theta_log, theta_null

from helpers import TermSeries, packed, reference_P


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
    assert s.weight == 5 and s.dim == 10


def test_spin_theorems_pass():
    for tid in ("3.1", "3.2"):
        r = verify_theorem(tid, k=2, l=1)
        assert r.status == "PASS", gating_failures(r)
        assert all(type(c) is int for row in r.solve_coeffs for c in row)


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
                    assert TermSeries.of(build_P(s, which)) == reference_P(s, which), (s, which)


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
        assert all(type(c) is Fraction for h in r.h for c in h.to_standard_basis().terms.values())


def test_spinc4k2_outputs_real_in_standard_basis():
    s = make_setting("spinc4k2", 1, 1)
    p1 = build_P(s, "P1")
    for k, c in p1.terms.items():
        std = c.to_standard_basis()
        assert all(type(c) is Fraction for c in std.terms.values()), f"non-rational coefficient at q-lattice {k}"


def test_unreduced_line_variant_recorded():
    r = verify_theorem("4.8", k=1, l=1)
    c = r.checks["unreduced_line_variant"]
    assert not c.gating
    assert not c.zero  # differs by twice the constant-term side, by design


def _full_order_mismatches(kind, k, l):
    """The (which, lattice) positions through q^(n_q) where the two routes differ on P1, P2 or P3."""
    s = make_setting(kind, k, l)
    return [(which, units) for which in ("P1", "P2", "P3")
            for units in sorted(cross_check_bundle_expansion(s, which, s.n_q).terms)]


def test_cross_checks():
    """Through q^3 the lambda-ring series runs past q^(3/2) and q^(5/2); over the suite grid
    the two routes agree at every position the P-series carry, for P1, P2 and P3."""
    for kind, k, l in (("spin4k", 1, 1), ("spinc4k", 1, 1), ("spinc4k2", 1, 1), ("spin4k", 2, 1),
                       ("spinc4k", 2, 1), ("spinc4k2", 2, 1)):
        s = make_setting(kind, k, l)
        for which in ("P1", "P2"):
            residual = cross_check_bundle_expansion(s, which, 3)
            assert residual.order_bound == 3 * Q_UNIT
            assert not residual, (kind, which, residual)
    for case in suite_cases():
        if case.kind == "crosscheck":
            kind, k, l, _ = case.params
            assert not _full_order_mismatches(kind, k, l), case.case_id


def test_tangent_genus_is_the_lambda_ring_constant_term():
    """The genus every identity side reads is the q^0 coefficient of the lambda-ring tangent series."""
    for case in suite_cases():
        if case.kind == "crosscheck":
            half = get_env(make_setting(*case.params)).half
            constant = sum((PuiseuxSeries.from_pieces(pieces).coefficient(0) * poly
                            for pieces, poly in half.kvirt_tangent(1)), GradedPolynomial.zero(half.table))
            assert half.genus == constant, case.case_id


def test_planted_twist_sign_shows_in_the_residual_and_fails_the_row(monkeypatch):
    """A twist built with the wrong string sign must show at exactly the positions it
    changes: for P2 every q^(n+1/2) and no q^n, for P1 every q^n past the constant.

    At l = 1 the spin relation kills the one class of V, so the twist would be invisible."""
    real = anomaly.lambda_string
    monkeypatch.setattr(anomaly, "lambda_string",
                        lambda E, half, sign, order: real(E, half, -sign, order))
    monkeypatch.setattr(anomaly, "_env_cache", {})
    monkeypatch.setattr(anomaly, "_tangent_cache", {})
    s = make_setting("spin4k", 2, 2)
    bound = Q_UNIT * s.n_q
    p2 = cross_check_bundle_expansion(s, "P2", s.n_q)
    assert sorted(p2.terms) == list(range(HALF_UNIT, bound, Q_UNIT))
    p1 = cross_check_bundle_expansion(s, "P1", s.n_q)
    assert sorted(p1.terms) == list(range(Q_UNIT, bound + 1, Q_UNIT))
    row = run_case(SuiteCase("crosscheck spin4k k=2 l=2", "crosscheck", ("spin4k", 2, 2, None)))
    assert row["status"] == "FAIL" and not row["ok"]
    assert "value" in row["report"]["checks"]["P2@q^(1/2)"]


@pytest.mark.parametrize("k", [4, 6, 8])
@pytest.mark.parametrize("kind", ["spin4k", "spinc4k", "spinc4k2"])
def test_cross_checks_at_every_order_beyond_the_grid(kind, k):
    assert not _full_order_mismatches(kind, k, 1)


def test_packed_read_past_the_bound_raises():
    """The packed P-series carries the bound it is known through, and its own read enforces it,
    also for a cross-check asked past it."""
    s = make_setting("spin4k", 2, 1)
    env = get_env(s)
    top = env.packed("P2")
    assert top.bound == 8 * s.n_q == build_P(s, "P2").order_bound
    assert top.coefficient(top.bound) == build_P(s, "P2").coefficient(top.bound)
    for past in (top.bound + 4, top.bound + 1):
        with pytest.raises(TruncationError, match="beyond the computed order"):
            top.coefficient(past)
        with pytest.raises(TruncationError):
            env.packed("P2").coefficient(past)
    with pytest.raises(TruncationError):
        cross_check_bundle_expansion(s, "P2", s.n_q + 1)


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


@pytest.mark.parametrize("corollary", DIVISIBILITY_IDS)
def test_audit_guard_rejects_each_negative_input_alone(corollary):
    """A negative ``m`` raises at the default valuation, and a negative valuation at ``m = 0``:
    at ``m = -1`` the sum over the ``h_r`` is empty, and the audit would read PASS."""
    with pytest.raises(AlgebraError, match="must be >= 0"):
        divisibility_check(corollary, -1)
    with pytest.raises(AlgebraError, match="must be >= 0"):
        divisibility_check(corollary, 0, assumed_v2_h=-1)
    assert divisibility_check(corollary, 0).assumed_v2_h == divisibility_check(corollary, 0, None).assumed_v2_h == 1


def test_one_theorem_table():
    """A theorem is one row: its kind, its reading, its pinned k and its printed coefficients.
    A pinned k is enforced, the suite reads it from the row, and ``l`` defaults to 1."""
    assert anomaly.THEOREM_IDS == tuple(anomaly._THEOREMS)
    for kind, reading, pinned, printed in anomaly._THEOREMS.values():
        assert reading in anomaly._READINGS and bool(printed) == (pinned is not None)
    with pytest.raises(AlgebraError, match="3.4 fixes k = 3"):
        verify_theorem("3.4", k=2)
    pinned = {c.params[:2] for c in suite_cases() if c.params[0] in ("3.3", "3.4")}
    assert pinned == {("3.3", 2), ("3.4", 3)}
    assert verify_theorem("3.3").setting.l == verify_theorem("3.3", l=None).setting.l == 1


def test_one_verdict_rule():
    """FAIL exactly when a gating check is nonzero; a variant reading qualifies only a PASS."""
    zero, one = PuiseuxSeries({}, 0), PuiseuxSeries({0: Fraction(1)}, 0)
    assert anomaly.verdict([]) == anomaly.verdict([anomaly.Check(one, gating=False)]) == "PASS"
    assert anomaly.verdict([anomaly.Check(zero), anomaly.Check(one)]) == "FAIL"
    report = anomaly.VerificationReport("3.3", make_setting("spin4k", 2, 1))
    report.variant_notes.append("a variant")
    report.checks["x"] = anomaly.Check(zero)
    assert report.status == "PASS_WITH_VARIANT"
    report.checks["y"] = anomaly.Check(one)
    assert report.status == "FAIL"


def _retyped_exponent(corollary, m, l, assumed_v2_h):
    """The audit's exponent in closed form, ``k = 2m+1``: ``min_r (l+k-6r)``, or
    ``min_(r>=1) (l+k+6-6r+v2(r))`` for the q^1 corollaries, plus the assumed valuation."""
    k = 2 * m + 1
    if anomaly._DIV_TABLE[corollary][2]:
        exps = [l + k + 6 - 6 * r + (r & -r).bit_length() - 1 for r in range(1, k // 2 + 1)]
    else:
        exps = [l + k - 6 * r for r in range(k // 2 + 1)]
    return min(exps) + assumed_v2_h if exps else None


@pytest.mark.parametrize("corollary", DIVISIBILITY_IDS)
def test_audit_exponents_are_the_valuations_of_the_verified_scalars(corollary):
    for m in range(4):
        for l in range(4 * m + 2, 4 * m + 6):
            for assumed in (0, 1):
                audit = divisibility_check(corollary, m, l=l, assumed_v2_h=assumed)
                assert audit.implied_exponent == _retyped_exponent(corollary, m, l, assumed)


def test_audit_and_identities_read_one_list_of_scalars(monkeypatch):
    """Doubling the right-side scalars moves the audit's exponent and breaks the identity."""
    assert divisibility_check("3.6", 1).implied_exponent == 4
    assert verify_theorem("3.1", k=3, l=2).status == "PASS"
    real = anomaly.rhs_coefficients
    monkeypatch.setattr(anomaly, "rhs_coefficients", lambda k, l, q1: [2 * c for c in real(k, l, q1)])
    assert divisibility_check("3.6", 1).implied_exponent == 5
    report = verify_theorem("3.1", k=3, l=2)
    assert not report.checks["main_identity"].zero and report.status == "FAIL"


def test_v2_of_a_rational():
    assert anomaly._v2(Fraction(-12, 5)) == 2
    assert anomaly._v2(Fraction(3, 8)) == -3
    with pytest.raises(AlgebraError):
        anomaly._v2(Fraction(0))


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
    for obj in (table, p2, p2.coefficient(0), get_env(make_setting("spinc4k", 2, 1)).packed("P2"),
                theta_null("theta3", 3), theta_factor("t2", 3, 4), theta_log("a", 3, 4)):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        if isinstance(obj, RootFactor):   # no __eq__: compare its state
            assert (back.terms, back.z_bound, back.q_bound) == (obj.terms, obj.z_bound, obj.q_bound)
        else:
            assert back == obj
    back = pickle.loads(pickle.dumps(table))
    assert sum(e * g.weight for e, g in zip((1, 0, 1, 0, 1), back.gens)) == 5 and back.cap == 4
    # one object per ring: a table rebuilt or unpickled is the table itself, and so one memo key
    assert back is table is build_generator_table(2, 2, True, 4) and {table: 1}[back] == 1
    assert back.standard_table is table.standard_table and back.standard_table.cap == 4


_CASE = ("3.1 k=2 l=1", "theorem", ("3.1", 2, 1, None))


@pytest.mark.parametrize("cls, args, fields, other", [
    (anomaly.Setting, ("spinc4k", 2, 3, 8), {"kind": "spinc4k", "k": 2, "l": 3, "n_q": 8}, {"l": 4}),
    (RootFamily, (FAMILY_V, 3), {"family": FAMILY_V, "n_roots": 3, "relation": None}, {"family": FAMILY_TM}),
    (SuiteCase, _CASE, dict(zip(("case_id", "kind", "params", "expected"), (*_CASE, "PASS"))),
     {"expected": "GAP"}),
], ids=["Setting", "RootFamily", "SuiteCase"])
def test_memo_keys_are_immutable_values(cls, args, fields, other):
    """Memo keys (``_env_cache``, ``_power_sums_cache``, the suite's cases) behave as values.

    Positional and keyword construction agree (``SuiteCase`` defaults ``expected`` to PASS);
    equality and hashing go by the field tuple, never by identity or against a bare tuple.
    """
    a, b = cls(*args), cls(**fields)
    assert a is not b and a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a != cls(**{**fields, **other}) and a != tuple(fields.values())
    assert repr(a) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in fields.items())})"
    back = pickle.loads(pickle.dumps(a))
    assert type(back) is cls and back == a and hash(back) == hash(a)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b and [getattr(a, n) for n in fields] == list(fields.values())


@pytest.mark.parametrize("make", [
    lambda: anomaly.Setting("weird", 1, 1, 3),
    lambda: anomaly.Setting("spin4k", 0, 1, 4),
    lambda: anomaly.Setting("spin4k", 1, 0, 4),
    lambda: anomaly.Setting("spin4k", 3, 1, 4),
    lambda: RootFamily(FAMILY_TM, 0),
    lambda: RootFamily(FAMILY_W, 2),
    lambda: RootFamily(FAMILY_V, 1, "weird"),
])
def test_memo_keys_reject_bad_input(make):
    with pytest.raises(AlgebraError):
        make()


_KIND_THEOREMS = {"spin4k": ("3.1", "3.2"), "spinc4k": ("4.1", "4.2"), "spinc4k2": ("4.6", "4.8")}


def _verdicts_at(kind, k, l):
    """verify JSON in both bases for the kind's two identities, and P1/P2/P3."""
    reports = [json.dumps(verify_theorem(tid, k=k, l=l).to_json_obj(basis))
               for tid in _KIND_THEOREMS[kind] for basis in ("standard", "normalized")]
    return reports, [build_P(make_setting(kind, k, l), which) for which in ("P1", "P2", "P3")]


@pytest.mark.parametrize("kind", list(_KIND_THEOREMS))
def test_sharing_the_tangent_half_cannot_change_a_verdict(kind, monkeypatch):
    """l=3 built cold equals l=3 built after l=1 and l=2 filled the memo.

    Settings that differ only in l share one tangent half, whose exps run once: two for
    spin4k, whose t3 exp is the t2 exp's sign flip, and one for spin^c.
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
    assert len(tangent_exps) == (2 if kind == "spin4k" else 1)
    assert len(calls) - len(tangent_exps) == 3 * 3     # P1/P2/P3's auxiliary exp at each l


@pytest.mark.parametrize("theorem", ["3.1", "4.1", "4.2", "4.6", "4.8"])
def test_a_cold_verify_builds_only_the_genera_and_bundles_it_reads(theorem, monkeypatch):
    """Genera and bundles are built on first read.

    No spin^c verify reads ``ch(Delta(M))``, and the constant-term verifies of 4.1 and 4.6 read no
    bundle, so none of those is in the tangent half's or the setting's ``vars()`` after them.
    """
    monkeypatch.setattr(anomaly, "_env_cache", {})
    monkeypatch.setattr(anomaly, "_tangent_cache", {})
    report = verify_theorem(theorem, k=2, l=2)
    assert report.status == "PASS"
    env = get_env(report.setting)
    built = vars(env.half).keys() | vars(env).keys()
    assert ("ch_delta_m" in built) == (theorem == "3.1")
    bundles = {"tangent", "line", "aux"} & built
    assert bundles == ({"aux"} if theorem == "3.1" else set() if theorem in ("4.1", "4.6") else
                       {"tangent", "line", "aux"})
    assert {"ahat", "genus", "ch_delta_v", "constant_term_lhs"} <= built


@pytest.mark.parametrize("kind", ["spin4k", "spinc4k", "spinc4k2"])
def test_relation_on_the_roots_is_the_relation_on_every_output(kind):
    """The genera, bundles and lambda-ring series built on the setting's families are the
    relation applied termwise to the same builds on the plain families.

    The verdict path never applies the relation to an output; here it does, as the oracle.
    """
    def phi(p):
        return apply_constraint(p, kind)

    def view(pieces):
        return TermSeries.of(PuiseuxSeries.from_pieces(pieces))

    def related(pieces):
        """The plain build with the relation applied to each coefficient."""
        plain = PuiseuxSeries.from_pieces(pieces)
        return TermSeries({k: phi(p).terms for k, p in plain.terms.items()}, plain.order_bound,
                          env.table, env.setting.weight)

    for k, l in ((1, 1), (2, 2)):
        env = get_env(make_setting(kind, k, l))
        W, table = env.setting.weight, env.table
        tm, v = RootFamily(FAMILY_TM, W), RootFamily(FAMILY_V, l)
        assert env.half.tm == RootFamily(FAMILY_TM, W, kind) and env.v == RootFamily(FAMILY_V, l, kind)
        assert env.half.ahat == phi(classical_genus("ahat", tm, table))
        assert env.half.ch_delta_m == phi(classical_genus("spinor_ch", tm, table))
        assert env.ch_delta_v == phi(classical_genus("spinor_ch", v, table))
        tangent, aux = complexified_bundle(tm, table), complexified_bundle(v, table)
        assert env.half.tangent == phi(tangent) and env.aux == phi(aux)
        # the relation touches the tangent classes (spin^c) or the auxiliary ones (spin)
        assert (env.aux != aux) if kind == "spin4k" else (env.half.tangent != tangent)
        if kind == "spin4k":
            name, line = "theta2", None
        else:
            name, line = ("theta_c" if kind == "spinc4k" else "theta_c_star"), env.half.line
            assert line == phi(line)
        assert view(theta_object(name, env.half.tangent, line, 2)) == related(theta_object(name, tangent, line, 2))
        assert (view(lambda_string(reduced(env.aux), True, -1, 2))
                == related(lambda_string(reduced(aux), True, -1, 2)))


@pytest.mark.parametrize("k", range(1, 9))
def test_t3_exp_is_the_t2_exp_sign_flipped(k):
    """tau -> tau+1 fixes ``a`` and swaps t2 and t3, so over the tangent roots exp(a+t3) is exp(a+t2)
    with its half-integer positions negated: the spin4k core reads exp(a+t3) off exp(a+t2)."""
    half = get_env(make_setting("spin4k", k, 1)).half
    a = half.log("a")
    e2, e3 = (half.exp([(a + half.log(t), half.tm_sums)]) for t in ("t2", "t3"))
    assert len(e2) == len(e3) == k + 1
    for f2, f3 in zip(e2, e3):
        assert f2.bound == f3.bound
        for u in range(0, f2.bound + 1, HALF_UNIT):
            c2 = f2.coefficient(u)
            assert f3.coefficient(u) == (-c2 if u % Q_UNIT else c2)
    assert any(f.coefficient(HALF_UNIT) for f in e2)     # the flip is not vacuous


@pytest.mark.parametrize("kind", ["spin4k", "spinc4k", "spinc4k2"])
def test_stable_range_in_l(kind):
    """From l = W//2 on, one more unit of l doubles P1 and leaves P2, P3 and the h_r as they are.

    The argument is in the ``anomaly`` docstring: V's power sums through weight W are the same
    polynomials at every such l, and ``ch(Delta(V))`` carries the factor ``2^l``.
    """
    for k in range(1, 5):
        W = make_setting(kind, k, 1).weight
        lo, hi = (get_env(make_setting(kind, k, l)) for l in (W // 2, W // 2 + 1))
        assert hi.packed("P2") == lo.packed("P2") and hi.packed("P3") == lo.packed("P3")
        p1_lo, p1_hi = lo.packed("P1"), hi.packed("P1")
        assert (p1_hi.step, p1_hi.bound) == (p1_lo.step, p1_lo.bound)
        assert ({m: [Fraction(n, p1_hi.den) for n in col] for m, col in p1_hi.cols.items()}
                == {m: [Fraction(2 * n, p1_lo.den) for n in col] for m, col in p1_lo.cols.items()})
        assert hi.decomposition.h == lo.decomposition.h


@pytest.mark.parametrize("k", range(1, 7))
@pytest.mark.parametrize("kind", ["spin4k", "spinc4k", "spinc4k2"])
def test_public_and_packed_decompositions_agree(kind, k):
    """The ``build_P`` view of P2, packed again by hand, decomposes to exactly the verdict
    path's decomposition; the same holds for the transfer residual of P1."""
    for l in (1, 2, 3):
        s = make_setting(kind, k, l)
        env = get_env(s)
        public, verdict = decompose(packed(TermSeries.of(build_P(s, "P2"))), k), env.decomposition
        assert public.h == verdict.h
        assert public.solve_coeffs == verdict.solve_coeffs
        assert all(type(c) is int for row in verdict.solve_coeffs for c in row)
        assert public.residual == verdict.residual and verdict.residual_zero
        edge = transfer_residual(packed(TermSeries.of(build_P(s, "P1"))), verdict.h, l, k)
        assert edge == transfer_residual(env.packed("P1"), verdict.h, l, k)
        assert not edge


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


def test_theorem_rows_at_one_setting_share_the_transfer_residual(monkeypatch):
    """3.1 then 3.2 at one setting transfer once: both reports read the same residual."""
    calls = []
    real = anomaly.transfer_residual

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(anomaly, "_env_cache", {})
    monkeypatch.setattr(anomaly, "_tangent_cache", {})
    monkeypatch.setattr(anomaly, "transfer_residual", counting)
    first, second = verify_theorem("3.1", k=2, l=2), verify_theorem("3.2", k=2, l=2)
    assert first.status == second.status == "PASS" and len(calls) == 1
    assert first.checks["transfer_residual"].value is second.checks["transfer_residual"].value


def test_a_negative_order_cross_check_raises():
    """Below q^0 the two routes have no coefficient to compare, so the read raises rather than reading zero."""
    s = make_setting("spin4k", 2, 1)
    for order in (-1, -3):
        with pytest.raises(AlgebraError, match="below q"):
            cross_check_bundle_expansion(s, "P1", order)
