"""Exact symbolic verifier for modular-form cancellation identities.

The package reconstructs the theta-function/characteristic-class machinery
behind a family of anomaly cancellation formulas on spin and spin^c
manifolds and checks every identity as an exact equality of polynomials in
normalized Pontryagin-type generators, with exact ``fractions.Fraction``
coefficients throughout.
"""

from .algebra import Generator, GeneratorTable, GradedPolynomial
from .anomaly import (Setting, VerificationReport, build_P,
                      cross_check_bundle_expansion, divisibility_check,
                      make_setting, structural_checks, verify_theorem)
from .genus import (RootFamily, additive_over_roots, apply_constraint,
                    build_generator_table, classical_genus, eval_at_var,
                    prod_over_roots)
from .kvirt import VirtualBundle, bundle_coefficient, theta_object
from .modforms import basis_element, decompose, delta_eps, transfer_residual
from .qseries import PuiseuxSeries, TruncationError
from .suite import run_suite, suite_cases
from .theta import RootFactor, jacobi_residual, theta_factor, theta_log, theta_null

__version__ = "0.1.0"
