"""Mixed-strategy equilibria of an integrated volunteering model of news
validation: regular agents decide whether to volunteer to validate items
under a shared-reward scheme, while fake-news agents decide whether to
push fabricated items against that validation capacity.
"""

from .equilibrium import (
    DEGENERATE,
    STABLE,
    UNSTABLE,
    Equilibrium,
    RegimeReport,
    find_equilibria,
    sample_curve,
    stable_equilibrium,
)
from .fake import (
    FakeGameParams,
    TailMode,
    expected_fake_payoffs,
    expected_net_payoff_fake,
)
from .numerics import require_probability
from .oracle import (
    SimResult,
    enumerate_fake_exact,
    enumerate_truth_exact,
    simulate_fake,
    simulate_truth,
)
from .truth import (
    PayoffPair,
    TruthGameParams,
    avg_payoff_defector,
    avg_payoff_volunteer,
    net_payoff_regular,
    payoff_pair_regular,
)

__version__ = "0.1.0"

__all__ = [
    "DEGENERATE",
    "Equilibrium",
    "FakeGameParams",
    "PayoffPair",
    "RegimeReport",
    "STABLE",
    "SimResult",
    "TailMode",
    "TruthGameParams",
    "UNSTABLE",
    "avg_payoff_defector",
    "avg_payoff_volunteer",
    "enumerate_fake_exact",
    "enumerate_truth_exact",
    "expected_fake_payoffs",
    "expected_net_payoff_fake",
    "find_equilibria",
    "net_payoff_regular",
    "payoff_pair_regular",
    "require_probability",
    "sample_curve",
    "simulate_fake",
    "simulate_truth",
    "stable_equilibrium",
    "__version__",
]
