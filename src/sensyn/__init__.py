"""Global sensitivity analysis toolkit.

Variance-based Sobol' indices, derivative-based measures, and the
eigenstructure scores of the gradient and finite-slope sensitivity matrices,
with reproducible counter-based sampling and numerical verification of the
inequalities relating the measures.
"""

from .bounds import (BoundCheck, check_dgsm_bounds, check_gas_bound_general,
                     check_gas_bound_uniform, check_quadratic_identity)
from .dgsm import dgsm, dgsm_from_gradients, gradient_matrix
from .errors import (DegenerateSpectrumError, EigenNotConvergedError,
                     InputDomainError, ModelOutputError, SensynError,
                     ZeroVarianceError)
from .linalg import (SpectralDecomposition, normalized_cumsum, select_m,
                     sym_eig)
from .models import (AnalyticAnova, Model, analytic_anova, builtin_names,
                     indicator_upper_sobol, make_builtin, make_example1,
                     make_example2, make_example4, make_linear,
                     make_quadratic_normal, sample_inputs)
from .randkit import (Normal, RngStream, Uniform, cheeger_constant,
                      cheeger_constant_grid, inverse_cdf, normal_cdf,
                      normal_inv_cdf, sample)
from .report import (ConvergenceTable, SensitivityReport, SubspaceSummary,
                     build_report, convergence_study, normalize, rank)
from .subspace import (DEFAULT_SLOPE_WINDOW, SubspaceResult, c_as_from_gradients,
                       estimate_c_as, estimate_c_gas, scores, subspace_analysis)
from .variance import (SobolEstimate, estimate_sobol, estimate_variance,
                       lower_sobol, upper_sobol)

__version__ = "0.1.0"
