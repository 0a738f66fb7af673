"""Desk-scale numerics for product-kernel fractional integrals, Muckenhoupt
weight diagnostics, and weighted Hardy-space atoms."""

import importlib

__version__ = "0.1.0"

# the public names by defining module.  A module is imported when one of its
# names is first read, so a process loads only the modules it uses: each CLI
# process compiles the source it imports afresh when no bytecode is written.
_EXPORTS = {
    "errors": ("ConfigError", "DegenerateProfile", "HypothesisFailed",
               "MisclassifiedSample", "NotIntegrable", "OutOfGrid", "QuadratureDiverged",
               "RieszkitError", "SingularPoint"),
    "geometry": ("Ball", "BallFamily", "MatrixFamily", "RegionLabel", "classify",
                 "classify_batch", "default_ball_family", "dyadic_ball_family",
                 "expanded_balls", "identity_family", "operator_norm", "scalar_family"),
    "quadrature": ("QuadratureScheme", "default_scheme"),
    "weights": ("CriticalIndices", "LogExampleWeight", "PowerWeight", "ProductPowerWeight",
                "RegularGrid", "TabulatedWeight", "WeightClassReport",
                "check_matrix_compatibility", "critical_indices", "estimate_A1_constant",
                "estimate_Ap_constant", "estimate_Apq_constant", "estimate_RH_constant",
                "eval_weight", "power_mean", "weight_power", "weighted_measure"),
    "operators": ("CallableProfile", "ExponentProfile", "GridProfile", "IndicatorProfile",
                  "MaximalPolicy", "PolynomialProfile", "SampledFunction", "apply_T",
                  "apply_T_batch", "equal_split", "fractional_maximal",
                  "fractional_maximal_witness", "hl_maximal", "hl_maximal_witness",
                  "indicator", "riesz_potential"),
    "atoms": ("Atom", "AtomParams", "AtomSampler", "AtomValidation", "CampaignSpec",
              "atom_class", "atom_from_record", "construct_atom", "read_atom_manifest",
              "sample_atom_campaign", "validate_atom", "write_atom_manifest"),
    "verify": ("VerificationReport", "check_critical_index_chains",
               "check_maximal_inequalities", "check_pointwise_atom_bound",
               "check_rh_ball_inequality", "run_theorem_campaign"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
