"""Census of the report checks: every gating check can fail.

A small grid emits every check key the suite's reports carry.  Each planted
fault (a monkeypatched stage of the verifier, with the setting caches
emptied, as ``test_planted_twist_sign_shows_in_the_residual_and_fails_the_row``
does) must turn some gating key nonzero, and between them the faults reach
every gating key.  A gating key that no fault reaches holds by construction:
it makes every report longer and guards nothing, so it is either retired or
replaced by a check that can fail, and ``HOLD_BY_CONSTRUCTION`` stays empty.
"""

from functools import cached_property

from anomcancel import anomaly, kvirt, modforms, suite, theta
from anomcancel.algebra import ONE, QColumns, mul_sum
from anomcancel.qseries import HALF_UNIT, Q_UNIT, PuiseuxSeries
from anomcancel.suite import SuiteCase, run_case

# the non-gating keys: recorded readings of the printed forms, never part of a verdict
INFORMATIONAL = {"printed_identity_independent_v", "unreduced_line_variant"}
# gating keys that no planted fault turns nonzero
HOLD_BY_CONSTRUCTION: set[str] = set()
# faults each of which must show in a crosscheck key: two planted in the lambda-ring route, and one
# in the divisor-power table every theta log reads, which the lambda-ring route must catch
ROUTE_FAULTS = {"string logs with m^w for m^(w-1)", "P1's twist without ch(Delta(V))", "O_1 at q^1 plus one"}
# faults that must show in the key named, on every row named
NAMED_FAULTS = {"the solve's inverse one off below the diagonal":
                ("decomposition_residual", ("3.1 k=2 l=1", "4.1 k=2 l=1", "4.6 k=2 l=1")),
                "theta'(0) doubled": ("jacobi_identity", ("theta-layer",))}

GRID = [SuiteCase("theta-layer", "theta", (suite.THETA_LAYER_ORDER,))] + [
    SuiteCase(f"{tid} k={k} l=1", "theorem", (tid, k, 1, None))
    for tid, k in (("3.1", 2), ("3.2", 2), ("3.3", 2), ("3.4", 3),
                   ("4.1", 1), ("4.2", 1), ("4.6", 1), ("4.8", 1),
                   # spin^c rows at k=2, where the solve's minor is 2x2 and a fault in its inverse can show
                   ("4.1", 2), ("4.6", 2))
] + [SuiteCase("crosscheck spin4k k=1 l=1", "crosscheck", ("spin4k", 1, 1, None)),
     # P1 vanishes at spin4k k=1, so a fault in P1's twist shows only on another row
     SuiteCase("crosscheck spinc4k k=1 l=1", "crosscheck", ("spinc4k", 1, 1, None)),
     SuiteCase("structural spin4k k=1 l=1", "structural", ("spin4k", 1, 1, None))]


def _plant_term(which: str, units: int):
    """``_Env.packed`` with an extra constant term at lattice position ``units`` of P-series ``which``."""
    real = anomaly._Env.packed

    def packed(self, name):
        if name == which and name not in self._p:
            out = real(self, name)
            extra = QColumns(out.den, units or 1, {0: [0, 1] if units else [1]})
            self._p[name] = mul_sum([(out, ONE, 1, [(0, 1)]), (extra, ONE, 1, [(0, 1)])])
        return real(self, name)
    return anomaly._Env, "packed", packed


def _plus_one(owner, attr):
    """``attr``, a method or a form built on first read, plus one."""
    real = vars(owner)[attr]
    if isinstance(real, cached_property):
        return owner, attr, property(lambda self: real.func(self) + 1)
    return owner, attr, lambda self: real(self) + 1


def _doubled_top(attr: str):
    """``_TangentHalf`` whose form ``attr`` has its top-weight component doubled."""
    real = anomaly._TangentHalf.__init__

    def init(self, s):
        real(self, s)
        form = getattr(self, attr)
        setattr(self, attr, form + form.component(self.weight))
    return anomaly._TangentHalf, "__init__", init


def _bare_p1_twist():
    """``_Env.twist`` whose P1 twist leaves out the polynomial ``ch(Delta(V))``."""
    real = anomaly._Env.twist

    def twist(self, which, order):
        pieces, poly = real(self, which, order)
        return pieces, (self.gp_zero.one_like() if which == "P1" else poly)
    return anomaly._Env, "twist", twist


def _off_inverse():
    """``modforms.unit_lower_inverse`` with 1 added below the diagonal, so still unit lower-triangular."""
    real = modforms.unit_lower_inverse

    def inverse(m):
        inv = real(m)
        if len(inv) > 1:        # a 1x1 minor (k < 2) has no entry below the diagonal
            inv[-1][0] += 1
        return inv
    return modforms, "unit_lower_inverse", inverse


def _bumped_table():
    """``theta._divisor_powers`` with one added to ``O_1`` at ``q^1`` on the integer lattice."""
    real = theta._divisor_powers

    def powers(half, order, n_cols):
        even, odd = real(half, order, n_cols)
        if half or order < 1 or not n_cols:
            return even, odd
        return even, [[row[0], row[1] + 1, *row[2:]] if j == 0 else row for j, row in enumerate(odd)]
    return theta, "_divisor_powers", powers


def _doubled(series):
    """A ``Fraction`` series with every coefficient doubled, rebuilt from its terms."""
    return PuiseuxSeries({u: 2 * c for u, c in series.terms.items()}, series.order_bound, series.zero)


def _doubled_column(c):
    """A packed theta null (:func:`theta._null`) with every coefficient doubled."""
    return c._replace(cols={0: [2 * n for n in c.cols[0]]})


def _faults():
    lambda_power, null, delta_eps = anomaly.lambda_power, theta._null, suite.delta_eps
    adams_column = kvirt._adams_column
    faults = {f"{which} + term at lattice {units}": _plant_term(which, units)
              for which in ("P1", "P2") for units in (0, HALF_UNIT, Q_UNIT, 2 * Q_UNIT)}
    faults.update({
        "constant_term_lhs + 1": _plus_one(anomaly._Env, "constant_term_lhs"),
        "q1_lhs + 1": _plus_one(anomaly._Env, "q1_lhs"),
        "lambda^2(E) + E": (anomaly, "lambda_power", lambda E, n: lambda_power(E, n) + E),
        "tangent genus with its top weight doubled": _doubled_top("genus"),
        # the tangent-twist reading does not see the genus: with the first class zero only
        # its constant and top-weight terms enter, and they cancel
        "ch(Delta(M)) with its top weight doubled": _doubled_top("ch_delta_m"),
        "theta'(0) doubled": (theta, "_null", lambda kind, order, bound: _doubled_column(null(kind, order, bound))
                              if kind == "theta_prime" else null(kind, order, bound)),
        "generators doubled": (suite, "delta_eps", lambda name, order: _doubled(delta_eps(name, order))),
        "string logs with m^w for m^(w-1)": (kvirt, "_adams_column", lambda first, sign, exterior, power, bound:
                                             adams_column(first, sign, exterior, power + 1, bound)),
        "P1's twist without ch(Delta(V))": _bare_p1_twist(),
        "the solve's inverse one off below the diagonal": _off_inverse(),
        "O_1 at q^1 plus one": _bumped_table(),
    })
    return faults


def _census() -> tuple[dict[str, bool], dict[str, set[str]]]:
    """Each key the grid reports, with its gating flag, and per row the gating keys reported nonzero."""
    gating, nonzero = {}, {}
    for case in GRID:
        for key, entry in run_case(case)["report"]["checks"].items():
            gating[key] = entry["gating"]
            if entry["gating"] and not entry["zero"]:
                nonzero.setdefault(case.case_id, set()).add(key)
    return gating, nonzero


def test_the_grid_emits_every_key_of_the_suite():
    emitted = {key for r in suite.run_suite()["cases"] for key in r["report"].get("checks", {})}
    assert emitted == set(_census()[0])


def test_every_gating_check_can_fail(monkeypatch):
    gating, nonzero = _census()
    assert not nonzero
    assert {key for key, gates in gating.items() if not gates} == INFORMATIONAL
    reached = set()
    for name, (owner, attr, planted) in _faults().items():
        with monkeypatch.context() as m:
            m.setattr(owner, attr, planted)
            m.setattr(anomaly, "_env_cache", {})
            m.setattr(anomaly, "_tangent_cache", {})
            m.setattr(theta, "_log_cache", {})
            m.setattr(theta, "_table_cache", {})
            _, by_row = _census()
        hit = set().union(*by_row.values())
        assert hit, f"the planted fault {name!r} shows in no check"
        if name in ROUTE_FAULTS:
            assert any("@q^" in key for key in hit), (name, hit)
        if name in NAMED_FAULTS:
            key, rows = NAMED_FAULTS[name]
            assert all(key in by_row.get(row, ()) for row in rows), (name, by_row)
        reached |= hit
    assert HOLD_BY_CONSTRUCTION == set() and ROUTE_FAULTS | set(NAMED_FAULTS) <= set(_faults())
    assert {key for key, gates in gating.items() if gates} - reached == HOLD_BY_CONSTRUCTION
