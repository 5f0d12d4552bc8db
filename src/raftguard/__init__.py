"""Coverage and authentication analysis for consensus IoT networks.

Closed-form coverage probabilities for a leader/follower network under
annular jamming, pathloss-fingerprint authentication error rates, and
seeded Monte Carlo engines that cross-validate every closed form.
"""

from raftguard.auth import (
    AuthProfile,
    ErrorProbabilities,
    error_probabilities,
    lq_db_to_sigma,
    p_fa_closed_form,
    p_md_closed_form,
    p_md_expected,
    p_mc_closed_form,
    roc_curve,
    sample_fingerprints,
    sigma_to_lq_db,
    threshold_for_pfa,
)
from raftguard.channel import NetworkParams, pathloss_db
from raftguard.coverage import (
    CoverageMethod,
    CoverageResult,
    coverage_dl,
    coverage_joint,
    coverage_ul,
    laplace_interference,
)
from raftguard.geometry import AnnulusRegion, DiskRegion
from raftguard.montecarlo import (
    ConsensusOutcome,
    TrialConfig,
    estimate_coverage,
    simulate_auth,
    simulate_consensus,
)
from raftguard.specfun import q_function, q_inverse

__version__ = "0.1.0"

__all__ = [
    "AnnulusRegion",
    "AuthProfile",
    "ConsensusOutcome",
    "CoverageMethod",
    "CoverageResult",
    "DiskRegion",
    "ErrorProbabilities",
    "NetworkParams",
    "TrialConfig",
    "coverage_dl",
    "coverage_joint",
    "coverage_ul",
    "error_probabilities",
    "estimate_coverage",
    "laplace_interference",
    "lq_db_to_sigma",
    "p_fa_closed_form",
    "p_md_closed_form",
    "p_md_expected",
    "p_mc_closed_form",
    "pathloss_db",
    "q_function",
    "q_inverse",
    "roc_curve",
    "sample_fingerprints",
    "sigma_to_lq_db",
    "simulate_auth",
    "simulate_consensus",
    "threshold_for_pfa",
    "__version__",
]
