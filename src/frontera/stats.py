"""Per-asset annualized statistics, CAPM expected returns and the
annualized covariance matrix with its certified inverse.

Conventions: daily simple returns in, decimal fractions out. Annualization
uses a configurable trading-day count (default 252): geometric compounding
for returns, sqrt scaling for volatility, linear scaling for covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRADING_DAYS = 252
SYM_TOL = 1e-10  # largest |A - A'| entry accepted, relative to the largest |A| entry


class StatsError(ValueError):
    pass


class NotPositiveDefiniteError(StatsError):
    """Matrix inversion failed its positive-definiteness certificate."""

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


@dataclass(frozen=True)
class AssetStats:
    asset_id: str
    ann_return: float
    ann_vol: float
    beta: float
    capm: float
    sharpe: float
    treynor: float


@dataclass(frozen=True)
class CovarianceModel:
    """Annualized covariance matrix with its Gauss-Jordan inverse from
    ``invert_matrix``: every elimination pivot passed the positivity check,
    which certifies the matrix positive definite."""

    labels: tuple[str, ...]
    matrix: np.ndarray
    inverse: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)


def annualized_return(returns: np.ndarray, trading_days: int = TRADING_DAYS) -> np.ndarray:
    """Annualized geometric return of each row: (prod(1+r))^(trading_days/n) - 1."""
    n = returns.shape[1]
    if n == 0:
        raise StatsError("no returns")
    if np.any(returns <= -1.0):
        raise StatsError("return <= -100% makes the geometric mean undefined")
    growth = np.prod(1.0 + returns, axis=1)
    # scalar pow: np.power's vector loop can differ from libm pow in the last bit
    return np.array([g ** (trading_days / n) for g in growth.tolist()]) - 1.0


def annualized_volatility(returns: np.ndarray, trading_days: int = TRADING_DAYS) -> np.ndarray:
    """Sample standard deviation of each row (divisor n-1) times sqrt(trading_days)."""
    if returns.shape[1] < 2:
        raise StatsError("need at least 2 returns for volatility")
    return np.std(returns, axis=1, ddof=1) * float(np.sqrt(trading_days))


def beta(returns: np.ndarray, market: np.ndarray) -> np.ndarray:
    """Sample covariance of each row with the market / sample variance of the market."""
    if returns.shape[1] < 2:
        raise StatsError("need at least 2 aligned returns for beta")
    xc = returns - returns.mean(axis=1, keepdims=True)
    mc = market - market.mean()
    var_m = float(mc @ mc)
    if var_m == 0.0:
        raise StatsError("market variance is zero")
    return (xc @ mc) / var_m


def capm_expected_return(beta_: float | np.ndarray, rf: float, market_return: float):
    """CAPM: rf + beta * (market_return - rf)."""
    return rf + beta_ * (market_return - rf)


def asset_sharpe(ann_return: float | np.ndarray, rf: float, ann_vol: float | np.ndarray):
    if np.any(ann_vol <= 0):
        raise StatsError("Sharpe undefined for zero volatility")
    return (ann_return - rf) / ann_vol


def asset_treynor(ann_return: float | np.ndarray, rf: float, beta_: float | np.ndarray):
    if np.any(beta_ == 0):
        raise StatsError("Treynor undefined for zero beta")
    return (ann_return - rf) / beta_


def sample_covariance(returns: np.ndarray, trading_days: int = TRADING_DAYS) -> np.ndarray:
    """Annualized sample covariance matrix of the rows of an aligned returns array.

    Each entry is the daily sample covariance (divisor n-1) times
    trading_days. ``Rc @ Rc.T`` is computed as a symmetric rank-k update,
    so the matrix is exactly symmetric.
    """
    n_series, n_obs = returns.shape
    if n_series < 2:
        raise StatsError("need at least 2 return series")
    if n_obs < 2:
        raise StatsError("need at least 2 observations")
    rc = returns - returns.mean(axis=1, keepdims=True)
    return (rc @ rc.T) / (n_obs - 1) * trading_days


def covariance_matrix(
    returns: np.ndarray, labels: tuple[str, ...], trading_days: int = TRADING_DAYS
) -> CovarianceModel:
    """Sample covariance matrix of the labelled rows plus its inverse; inversion certifies PD."""
    a = sample_covariance(returns, trading_days)
    return CovarianceModel(tuple(labels), a, invert_matrix(a))


def invert_matrix(matrix: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix by Gauss-Jordan elimination.

    No row pivoting: for an SPD matrix the diagonal pivots are all positive,
    and each pivot is checked against 1e-12 times the largest diagonal entry.
    A failing pivot means the k-th leading minor is not positive, i.e. the
    matrix is not positive definite, and is reported as such.

    The elimination runs in place in one n×n array: once pivot k is done,
    column k holds column k of the inverse. Each pivot clears its column
    from all other rows in one rank-1 array update. Every stored value
    comes from the same floating-point operations as a row-by-row loop over
    the augmented [A | I] array, so the result is the same to the bit,
    signed zeros included.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StatsError(f"matrix is not square: shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise StatsError("matrix has non-finite entries")
    scale = float(np.max(np.abs(a))) or 1.0
    if float(np.max(np.abs(a - a.T))) > SYM_TOL * scale:
        raise StatsError("matrix is not symmetric")
    n = a.shape[0]
    max_diag = float(np.max(np.abs(np.diag(a)))) or 1.0
    threshold = 1e-12 * max_diag
    inv = a  # np.array above made a private copy
    tmp = np.empty_like(inv)
    with np.errstate(over="ignore", invalid="ignore"):  # the result is checked below
        for k in range(n):
            pivot = inv[k, k]
            if not (pivot > threshold):
                raise NotPositiveDefiniteError(
                    f"pivot {pivot:.3e} at index {k} fails the positive-definiteness check "
                    f"(leading minor {k + 1} not positive)",
                    pivot_index=k,
                )
            # In [A | I], column k of the right half is e_k until now: row k
            # divided by the pivot holds 1.0 / pivot there, and every other row
            # gets +0 - factor * (1.0 / pivot). That is 0.0 - x, not -x, which
            # would turn +0 into -0. Row k takes no update of its own.
            row = inv[k] / pivot
            row[k] = 1.0 / pivot
            np.multiply(inv[:, k, None], row, out=tmp)
            np.subtract(inv, tmp, out=inv)
            np.subtract(0.0, tmp[:, k], out=inv[:, k])
            inv[k] = row
    if not np.all(np.isfinite(inv)):
        raise StatsError("elimination overflows the floating-point range")
    # elimination leaves tiny asymmetry; the exact inverse is symmetric
    return (inv + inv.T) / 2.0
