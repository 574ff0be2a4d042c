"""Approval-based committee elections by sequential load distribution.

The headline method awards each seat to the candidate whose seat
distribution minimizes the resulting load variance across voters, with an
exact active-set correction when the closed-form distribution would go
negative.  The classical max-load sequential method, Sainte-Laguë and
D'Hondt are included for comparison, along with randomized campaigns that
cross-check the correction against two independent exact oracles.
"""

from .analysis import (
    CampaignCaps,
    TwoPartyFamily,
    check_closed_list_equivalence,
    compare_solvers_over_election,
    monotonicity_probe,
    oracle_agreement_campaign,
    replay_record,
    solver_instance_record,
    sweep_seat_share,
    two_party_family,
)
from .engine import (
    ElectionConfigError,
    VerificationError,
    apportion_sequence,
    run_election,
    variance,
    verify_election,
)
from .model import (
    Backend,
    LoadVector,
    Method,
    Mode,
    Profile,
    ProfileParseError,
    UnknownCandidateError,
    VoterType,
    merge_duplicate_types,
    parse_profile,
    parse_rational,
    rational_str,
    render_profile,
)
from .step import (
    Subproblem,
    corrected_solution,
    subset_oracle,
    unconstrained_level,
    unconstrained_solution,
    waterfill_solution,
)

__version__ = "0.1.0"

__all__ = [
    "Backend",
    "CampaignCaps",
    "ElectionConfigError",
    "LoadVector",
    "Method",
    "Mode",
    "Profile",
    "ProfileParseError",
    "Subproblem",
    "TwoPartyFamily",
    "UnknownCandidateError",
    "VerificationError",
    "VoterType",
    "apportion_sequence",
    "check_closed_list_equivalence",
    "compare_solvers_over_election",
    "corrected_solution",
    "merge_duplicate_types",
    "monotonicity_probe",
    "oracle_agreement_campaign",
    "parse_profile",
    "parse_rational",
    "rational_str",
    "render_profile",
    "replay_record",
    "run_election",
    "solver_instance_record",
    "subset_oracle",
    "sweep_seat_share",
    "two_party_family",
    "unconstrained_level",
    "unconstrained_solution",
    "variance",
    "verify_election",
]
