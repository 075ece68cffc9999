"""Minimum-variance portfolio analytics over configurable date windows."""

import os

# One BLAS thread unless the caller set a count: at a few hundred assets more
# threads spin and stall. Read once, when numpy loads; children inherit them.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .market_data import (
    MarketDataError,
    PricePanel,
    PriceSeries,
    WindowSpec,
    align_panel,
    parse_price_csv,
    simple_returns,
    slice_window,
)
from .stats import (
    CovarianceModel,
    NotPositiveDefiniteError,
    StatsError,
    annualized_return,
    annualized_volatility,
    asset_sharpe,
    asset_treynor,
    beta,
    capm_expected_return,
    covariance_matrix,
    invert_matrix,
    sample_covariance,
)
from .frontier import (
    DegenerateFrontierError,
    FrontierConstants,
    FrontierError,
    PortfolioSolution,
    TangencySolution,
    TangencyUndefinedError,
    Viability,
    frontier_constants,
    frontier_risk,
    gmv_portfolio,
    tangency,
    viability_check,
)
from .report import (
    FrontierCurve,
    ReplayInput,
    Summary,
    WindowReport,
    analyze_window,
    curve_csv,
    emit_frontier_curve,
    render_svg,
    render_summary,
    render_tables,
    replay_paper,
    summarize,
)

__version__ = "0.1.0"
