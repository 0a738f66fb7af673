"""Desk-scale numerics for product-kernel fractional integrals, Muckenhoupt
weight diagnostics, and weighted Hardy-space atoms."""

from .errors import (ConfigError, DegenerateProfile, HypothesisFailed,
                     MisclassifiedSample, NotIntegrable, OutOfGrid,
                     QuadratureDiverged, RieszkitError, Singular, SingularPoint)
from .geometry import (Ball, BallFamily, MatrixFamily, RegionLabel, classify,
                       classify_batch, default_ball_family, dyadic_ball_family,
                       expanded_balls,
                       identity_family, operator_norm, scalar_family)
from .quadrature import QuadratureScheme, default_scheme
from .weights import (CriticalIndices, LogExampleWeight, PowerWeight,
                      ProductPowerWeight, RegularGrid, TabulatedWeight,
                      WeightClassReport, check_matrix_compatibility,
                      critical_indices, doubling_check, estimate_A1_constant,
                      estimate_Ap_constant, estimate_Apq_constant,
                      estimate_RH_constant, eval_weight, matrix_doubling_check,
                      power_mean, weight_power, weighted_measure)
from .operators import (CallableProfile, ExponentProfile, GridProfile,
                        IndicatorProfile, MaximalPolicy, PolynomialProfile,
                        SampledFunction, apply_T, apply_T_batch,
                        domination_check, equal_split, fractional_maximal,
                        fractional_maximal_witness, hl_maximal,
                        hl_maximal_witness, indicator, kernel_eval,
                        mphi_maximal_lower, riesz_potential, weighted_norm)
from .atoms import (AdmissibleRange, Atom, AtomParams, AtomSampler,
                    AtomValidation, admissible_params, atom_from_record,
                    construct_atom, read_atom_manifest, sample_atom_campaign,
                    validate_atom, write_atom_manifest)
from .verify import (CampaignSpec, VerificationReport, check_containment_step,
                     check_critical_index_chains, check_maximal_inequalities,
                     check_pointwise_atom_bound, check_quasi_norm_assembly,
                     check_rh_ball_inequality, run_theorem_campaign)

__version__ = "0.1.0"
