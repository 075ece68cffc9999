"""Per-asset annualized statistics, CAPM expected returns and the
annualized covariance matrix with its certified inverse.

Conventions: daily simple returns in, decimal fractions out. Annualization
uses a configurable trading-day count (default 252): geometric compounding
for returns, sqrt scaling for volatility, linear scaling for covariances.
"""

import numpy as np

TRADING_DAYS = 252
SYM_TOL = 1e-10  # largest |A - A'| entry accepted, relative to the largest |A| entry
INVERSE_LEAF = 32  # largest triangular block that _lower_inverse inverts by a solve


class StatsError(ValueError):
    pass


class NotPositiveDefiniteError(StatsError):
    """Matrix inversion failed its positive-definiteness certificate."""

    def __init__(self, message: str, pivot_index: int | None = None):
        super().__init__(message)
        self.pivot_index = pivot_index


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
    return _excess_ratio(ann_return, rf, ann_vol, "Sharpe")


def asset_treynor(ann_return: float | np.ndarray, rf: float, beta_: float | np.ndarray):
    if np.any(beta_ == 0):
        raise StatsError("Treynor undefined for zero beta")
    return _excess_ratio(ann_return, rf, beta_, "Treynor")


def _excess_ratio(ann_return, rf, denominator, name: str):
    """(ann_return - rf) / denominator; a result that is not finite, such as
    the overflow a subnormal denominator gives, raises StatsError."""
    with np.errstate(over="ignore"):
        ratio = (ann_return - rf) / denominator
    if not np.all(np.isfinite(ratio)):
        raise StatsError(f"{name} ratio is not finite: it overflows the floating-point range")
    return ratio


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


def invert_matrix(matrix: np.ndarray) -> np.ndarray:
    """Invert a symmetric positive definite matrix through its Cholesky factor.

    The pivots diag(L)² of A = L L' are those of elimination without row
    exchanges. Each must exceed 1e-12 times the largest diagonal entry, or the
    k-th leading minor is not positive and the matrix is reported as not
    positive definite. A leading block's factor is the leading block of L, so
    bisection on the block size finds k. The inverse is Li' Li, Li = L^-1
    from ``_lower_inverse``, computed as a symmetric rank-k update, so it is
    exactly symmetric.
    """
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StatsError(f"matrix is not square: shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise StatsError("matrix has non-finite entries")
    scale = float(np.max(np.abs(a))) or 1.0
    if float(np.max(np.abs(a - a.T))) > SYM_TOL * scale:
        raise StatsError("matrix is not symmetric")
    threshold = 1e-12 * (float(np.max(np.abs(np.diag(a)))) or 1.0)
    def certified(m: int) -> np.ndarray | None:
        """Cholesky factor of the leading m×m block, or None if a pivot fails."""
        try:
            low = np.linalg.cholesky(a[:m, :m])
        except np.linalg.LinAlgError:
            return None
        return low if np.all(np.diag(low) ** 2 > threshold) else None

    with np.errstate(over="ignore", invalid="ignore"):  # results are checked below
        low = certified(len(a))
        if low is None:
            k, bad = 0, len(a)  # the leading k×k block passes, the bad×bad one fails
            while bad - k > 1:
                mid = (k + bad) // 2
                k, bad = (mid, bad) if certified(mid) is not None else (k, mid)
            pivot = a[k, k] - np.sum(np.linalg.solve(certified(k), a[:k, k]) ** 2)
            raise NotPositiveDefiniteError(
                f"pivot {pivot:.3e} at index {k} fails the positive-definiteness check "
                f"(leading minor {k + 1} not positive)",
                pivot_index=k,
            )
        low_inv = _lower_inverse(low)
        inv = low_inv.T @ low_inv
    if not np.all(np.isfinite(inv)):
        raise StatsError("inverse overflows the floating-point range")
    return inv


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 block recursion.

    With L = [[L11, 0], [L21, L22]] split at h = n // 2, the inverse is
    X = [[X11, 0], [X21, X22]] with X11 = L11^-1, X22 = L22^-1 and
    X21 = -X22 L21 X11; the upper block stays exactly zero. The products
    do not skip the triangles' zero halves, so this costs about 2n^3/3
    flops (n^3/3 is the least for a triangular inverse), nearly all in
    matrix products, against about 2.7 n^3 for an LU solve of L X = I.
    A block of at most INVERSE_LEAF rows goes to that solve, so a factor
    that small gets the solve's inverse bit for bit.
    """
    n = len(low)
    if n <= INVERSE_LEAF:
        return np.linalg.solve(low, np.eye(n))
    h = n // 2
    x = np.zeros_like(low)
    x[:h, :h] = x11 = _lower_inverse(low[:h, :h])
    x[h:, h:] = x22 = _lower_inverse(low[h:, h:])
    x[h:, :h] = -x22 @ (low[h:, :h] @ x11)
    return x
