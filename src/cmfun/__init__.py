"""Numerical library around Nielsen's beta function: generalized Stieltjes
representing measures, Laplace-transform identities for periodic
constructions, the beta-power convolution semigroup, Barnes remainder
kernels, iterated-sum representations, infinitely divisible densities, and
grid-based complete-monotonicity / Pick-function checkers."""

from .errors import (CapTooSmallError, CmfunError, ConvergenceError,
                     DomainError, HypothesisViolationError,
                     InversionDisagreementError)
from .specfun import (beta_a_lambda, digamma, gamma_ratio_log, log_gamma,
                      nielsen_beta, prym_P, sin_cos_integrals, trigamma)
from .stieltjes import (CmKernel, PiecewisePolynomial, RepresentingMeasure,
                        convolve_box, measure_alternating,
                        measure_cesaro, measure_gamma_ratio,
                        measure_gamma_reciprocal_ratio,
                        measure_genus1_log_ratio, measure_integer_atoms,
                        stieltjes_eval, stieltjes_via_kernel)
from .laplace import (PeriodicStep, SampledDensity, beta_power,
                      hamburger_check, laplace_invert, laplace_quad,
                      semigroup_check, semigroup_density, sigma_continuous,
                      sigma_discrete, tau_continuous, tau_discrete)
from .monotonicity import (CheckGrid, CheckReport, cm_check,
                           find_lcm_counterexample, lcm_check,
                           lemma_pos_check, pick_check)
from .barnes import p_kernel, r_2_2n, stirling_remainder
from .cesaro import (hypotheses_check, iterate_sums, kappa_eval,
                     lemma_s_check, preset_sequence, series_eval_three_ways)
from .densities import (DensitySpec, density_cdf, density_eval,
                        density_quantile, density_sample)

__version__ = "0.1.0"
