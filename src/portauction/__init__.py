"""Two-round core-selecting portfolio auctions.

Package modeling and weights, VCG / Nearest-VCG / dynamic two-round
payment rules, the sealed two-round mechanism, closed-form equilibrium
bids, and a Monte Carlo harness for property verification.
"""

__version__ = "0.1.0"

from .equilibrium import (
    EquilibriumSolution,
    HazardPoint,
    ValueDistribution,
    equilibrium_bid,
    equilibrium_shading,
    hazard_point,
    optimality_residual,
    solve_symmetric_equilibrium,
)
from .mechanism import (
    AuctionTranscript,
    BidLedger,
    FeeOutcome,
    InfoUpdate,
    QualificationResult,
    publish_update,
    run_auction,
    run_round1,
    run_round2,
    settle_row,
)
from .model import (
    BrokerProfile,
    ConfigurationError,
    ModelWarning,
    PortfolioSpec,
    WeightVector,
    derive_weights,
)
from .pricing import (
    AllocationError,
    CoreReport,
    Pricing,
    dnvcg_fees,
    marginal_fee,
    nvcg_fees,
    price,
    validate_core_point,
    vcg_fees,
    weighted_total,
)
from .scenario import (
    ScenarioConfig,
    ScenarioParseError,
    ScenarioValidationError,
    builtin_scenario,
    load_scenario,
)
from .sim import (
    BrokerStrategy,
    DominanceReport,
    SimMetrics,
    Strategy,
    StrategyProfile,
    compare_strategies,
    simulate,
)
from .units import to_bps
