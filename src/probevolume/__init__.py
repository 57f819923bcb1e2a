"""Probe traffic volume estimation from anonymous footprint point data.

Estimates the number of probes crossing a virtual cordon from speed-tagged
point records alone (no pseudonyms, no trajectories), provides the exact
theoretical distribution of the estimate, optimizes cordon length for
precision, and ships Monte Carlo and calibration harnesses to validate all
of it.
"""

__version__ = "0.1.0"

from .calibration import CalibrationModel, fit_through_origin
from .cordon_optimizer import OptimumReport, objective_curve, optimize_cordon
from .distribution_engine import (
    PrecisionReport,
    VolumePdf,
    cv,
    interval_estimate,
    m_fold_pdf,
    pdf_moments,
    precision_report,
    single_probe_pdf,
    variance,
    vmr,
)
from .estimator import (
    VolumeEstimate, bernoulli_var_term, estimate_probe_volume, extra_record_prob, min_records
)
from .footprint_data import (
    CordonSample,
    CordonSpec,
    Footprints,
    crop_to_cordon,
    read_footprints_csv,
    write_footprints_csv,
)
from .probe_simulator import (
    ExperimentReport,
    ScenarioConfig,
    SimSummary,
    SiteConfig,
    run_regression_experiment,
    run_scenario,
)
from .speed_model import (
    SpeedComponent,
    SpeedDistribution,
    integrate_weighted,
    load_distribution,
)

__all__ = [
    "CalibrationModel",
    "CordonSample",
    "CordonSpec",
    "ExperimentReport",
    "Footprints",
    "OptimumReport",
    "PrecisionReport",
    "ScenarioConfig",
    "SimSummary",
    "SiteConfig",
    "SpeedComponent",
    "SpeedDistribution",
    "VolumeEstimate",
    "VolumePdf",
    "bernoulli_var_term",
    "crop_to_cordon",
    "cv",
    "estimate_probe_volume",
    "extra_record_prob",
    "fit_through_origin",
    "integrate_weighted",
    "interval_estimate",
    "load_distribution",
    "m_fold_pdf",
    "min_records",
    "objective_curve",
    "optimize_cordon",
    "pdf_moments",
    "precision_report",
    "read_footprints_csv",
    "run_regression_experiment",
    "run_scenario",
    "single_probe_pdf",
    "variance",
    "vmr",
    "write_footprints_csv",
]
