"""The two independent computation routes and their agreement.

Every P-series has a second life as a q-series of virtual bundles built from
exterior/symmetric power strings.  The lambda-ring route knows nothing about
theta quotients, so coefficient-by-coefficient agreement of the two paths is
a genuine cross-check of signs, root counts and reduction conventions.
"""

from fractions import Fraction

from anomcancel import cross_check_bundle_expansion, make_setting
from anomcancel.anomaly import get_env
from anomcancel.genus import FAMILY_TM, LINE, RootFamily
from anomcancel.kvirt import complexified_bundle, theta_object
from anomcancel.qseries import PuiseuxSeries


def show_coefficient_bundles():
    # the bundles on the plain ring, before the setting's relation eliminates nM1
    env = get_env(make_setting("spinc4k", 1, 1))
    W = env.setting.weight
    tangent = complexified_bundle(RootFamily(FAMILY_TM, W), env.table)
    line = complexified_bundle(LINE, env.table)
    print("# coefficient bundles of the line-twisted tensor string (dim 4k)")
    series = PuiseuxSeries.from_pieces(theta_object("theta_c", tangent, line, 2))
    for units in (0, 4, 8):
        ch = series.coefficient(units)
        print(f"  q^({Fraction(units, 8)}): rank {int(ch.constant_term()):>2}, ch = {ch.to_text()}")
    print()
    star = PuiseuxSeries.from_pieces(theta_object("theta_c_star", tangent, line, 2))
    print("# and of the single-string variant (dim 4k+2, reduced line convention)")
    for units in (0, 4, 8):
        ch = star.coefficient(units)
        print(f"  q^({Fraction(units, 8)}): rank {int(ch.constant_term()):>2}, ch = {ch.to_text()}")
    print()


def show_cross_checks():
    print("# theta path minus bundle path, top-weight forms (must all be zero)")
    for kind, k, l in (("spin4k", 2, 2), ("spinc4k", 1, 2), ("spinc4k2", 1, 1)):
        setting = make_setting(kind, k, l)
        for which in ("P1", "P2"):
            residual = cross_check_bundle_expansion(setting, which, 1)
            print(f"  {kind} k={k} l={l} {which}: q^0, q^(1/2), q^1 -> "
                  f"{'MISMATCH' if residual else 'all zero'}")


if __name__ == "__main__":
    show_coefficient_bundles()
    show_cross_checks()
