"""curvkit: curvature of finite reversible Markov chains.

Builds chains, evaluates the mean-modulated Gamma calculus, solves for
optimal curvature constants (vertexwise, global, and over densities),
enumerates optimal sets, runs the exact heat semigroup, and verifies the
associated gradient, diameter, isoperimetric and spectral-gap inequalities.
"""

from .chain import (ChainStats, MarkovChain, build_chain, chain_from_edgelist,
                    chain_from_json, chain_to_json, complete, cycle,
                    distance_matrix, generate, hypercube, pair_orbits, path,
                    random_regular, srw_from_graph)
from .curvature import (CurvatureResult, EntropicEstimate, bakry_emery_global,
                        bakry_emery_vertex, curvature_grad_rho,
                        curvature_of_measure, curvature_profile,
                        entropic_curvature_estimate, lichnerowicz_check)
from .errors import (ConvergenceWarning, CurvkitError, DomainError,
                     EpsTooLarge, InvalidParameters, NegativeInput,
                     NegativeTime, NotIrreducible, NotReversible,
                     NotStochastic, NumericalFailure, PreconditionHeuristic,
                     ShapeMismatch, TooLarge)
from .gamma import (FormPair, a_form, assemble_forms, b_form,
                    check_geometric_green, dirac, divergence, equilibrium,
                    func_inner, gamma, gamma2, gamma2_rho, gamma_rho,
                    gradient_field, laplacian, laplacian_matrix,
                    rho_laplacian, validate_density, vf_inner, vf_inner_rho)
from .geometry import (CheegerResult, InequalityReport, cheeger, check_buser,
                       check_cheeger_l1, check_diameter_bound_ent,
                       check_diameter_bound_finite_n, check_expander_bounds,
                       check_lambda_tau, check_tau_lower_bound, d_gamma,
                       diam_combinatorial, diam_gamma)
from .heat import (HeatSystem, avg_mixing_time, check_heat_kernel_bound,
                   check_linf_gradient_bound, heat_apply, heat_kernel,
                   heat_operator, l1_distance_from_equilibrium, lambda1,
                   sharpness_probe, spectral_decompose,
                   verify_gradient_estimate, verify_reverse_poincare)
from .means import (ARITHMETIC, BUILTIN_MEANS, GEOMETRIC, LOGARITHMIC, Mean,
                    check_mean_axioms, custom_mean, d1_mean, eval_mean,
                    get_mean)
from .optimal import (OptimalComplex, OptimalityCertificate,
                      check_equilibrium_optimality, check_union_proposition,
                      is_optimal_set, optimal_complex)

__version__ = "0.1.0"
