"""Reversed-time reliability functionals and mechanical inequality checks."""

from .errors import (
    DivergentMoment,
    DomainError,
    NoMass,
    NonFiniteWeight,
    ParameterError,
    QuadratureError,
    RevrelError,
    SupportError,
    TooFewPoints,
    UnboundedSupport,
)
from .quadrature import (
    DEFAULT_TOL,
    ExpectationSpec,
    QuadResult,
    QuadStatus,
    Tolerances,
    cdf_cumulative_integral,
    expectation,
    integrate_finite,
    integrate_lower_unbounded,
    integrate_upper_unbounded,
)
from .distributions import (
    DistributionModel,
    FamilySpec,
    SupportInterval,
    cdf_at,
    format_family,
    make_distribution,
    model_from_text,
    parse_family,
    quantile_at,
)
from .functionals import (
    cdf_from_rhr,
    eit,
    functional_profile,
    numeric_eit,
    numeric_rhr,
    rai,
    rai_integral_form,
    raw_moment,
    rhr,
    rhr_eit_identity_residual,
)
from .characterizations import (
    CheckReport,
    CheckSpec,
    SupportRequirement,
    TheoremId,
    Verdict,
    claimed_equality_pair,
    default_models,
    equality_family,
    expected_equality_pair,
    make_check,
    report_records,
    reports_to_csv,
    reports_to_json,
    run_check,
    run_matrix,
    theorem_catalog,
)
from .empirics import (
    GapStatistic,
    RankedCandidate,
    RankingReport,
    SampleSet,
    empirical_eit,
    gap_statistics,
    identify,
    mc_expectation,
    read_samples,
    sample_inverse_cdf,
)

__version__ = "0.1.0"
