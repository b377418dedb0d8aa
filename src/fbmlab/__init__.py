"""fbmlab: fractional Brownian motion synthesis, local times, and the limit
theory of their additive functionals."""

from .constants import (Beta3Mode, Regime, beta1, beta2, beta3, c_h, ell,
                        regime_of)
from .errors import CostGuardError
from .experiments import (ExperimentConfig, ExperimentReport,
                          clt_experiment, compensated_functional_Z,
                          derivative_experiment, deserialize_report,
                          scaled_additive_functional, serialize_report)
from .fbm import (FbmPath, conditional_increment_variance,
                  conditional_mean_path, covariance, mu, sample_paths,
                  sample_values, volterra_kernel)
from .gaussian import (GaussianVectorSpec, conditional_variance,
                       fbm_vector_spec, flip_variance_check, lnd_ratio,
                       psd_sqrt)
from .limits import (LimitMatrix, QuadConfig, a_h, a_one_third,
                     covariance_matrix)
from .localtime import (LocalTimeCurve, expected_local_time,
                        expected_mollified_local_time, fourier_local_time,
                        heat_kernel, heat_kernel_prime, mollified_local_time,
                        occupation_density_check, occupation_integral)
from .testfuncs import (TestFunction, from_spec, fourier, gaussian_bump,
                        gaussian_derivative, hat, in_xi, indicator, moments,
                        poly_bump, weighted_norm)

__version__ = "0.1.0"
