"""Closed-form mean-variance frontier (Merton).

With annualized covariance A, expected returns E(R) and e = E(R) - mu 1:

    h = 1' A^-1      alpha = sum(h)    mu = b / alpha
    g = E(R)' A^-1   b = sum(g)        gamma = E(R) . g
    delta = alpha e' A^-1 e                 (= alpha gamma - b^2)
    risk(t)^2 = 1/alpha + alpha (t - mu)^2 / delta
                                            (= (alpha t^2 - 2 b t + gamma) / delta)

The bracketed forms lose about log10(alpha gamma / delta) digits to
cancellation; the centred ones do not, and risk(t)^2 is a sum of positive
terms. The global minimum-variance portfolio omega = h / alpha has return mu
and variance 1 / alpha. The line through (0, rf) touches the frontier at
r_t = (gamma - b rf) / (b - alpha rf). Weights may be negative (short
sales), and all values are decimal fractions.
"""

from typing import NamedTuple

import numpy as np


class FrontierError(ValueError):
    pass


class DegenerateFrontierError(FrontierError):
    """All expected returns equal: delta = 0 and the frontier collapses."""


class TangencyUndefinedError(FrontierError):
    """b - alpha * rf = 0, or so near 0 that the tangency overflows: it lies at infinity."""


class FrontierConstants(NamedTuple):
    h: np.ndarray
    g: np.ndarray
    alpha: float
    b: float
    gamma: float
    delta: float


class TangencySolution(NamedTuple):
    r_t: float
    sigma_rt: float
    slope: float


class PortfolioSolution(NamedTuple):
    weights: np.ndarray
    port_return: float
    variance: float
    risk: float
    sharpe: float


class Viability(NamedTuple):
    viable: bool
    reason: str | None = None


def frontier_constants(inverse: np.ndarray, expected_returns: np.ndarray) -> FrontierConstants:
    """Auxiliary vectors h, g and scalars alpha, b, gamma, delta from A^-1 (invert_matrix)."""
    n = len(inverse)
    er = np.asarray(expected_returns, dtype=float)
    if er.shape != (n,):
        raise FrontierError(f"expected-returns length {er.shape} does not match {n} assets")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        h = np.ones(n) @ inverse
        g = er @ inverse
        alpha = float(h.sum())
        b = float(g.sum())
        gamma = float(er @ g)
        e = er - b / alpha if alpha > 0 else er  # alpha <= 0 is refused below
        delta = alpha * float(e @ inverse @ e)
    if not np.isfinite(np.concatenate([h, g, [alpha, b, gamma, delta]])).all():
        raise FrontierError("frontier constants overflow the floating-point range")
    if alpha <= 0:
        raise FrontierError(f"alpha = {alpha} is not positive; covariance inverse is not PD")
    return FrontierConstants(h=h, g=g, alpha=alpha, b=b, gamma=gamma, delta=delta)


def gmv_portfolio(fc: FrontierConstants, rf: float) -> PortfolioSolution:
    """Global minimum-variance portfolio: omega = h/alpha, variance = 1/alpha."""
    mu = fc.b / fc.alpha
    variance = 1.0 / fc.alpha
    risk = float(np.sqrt(variance))
    return PortfolioSolution(
        weights=fc.h / fc.alpha,
        port_return=mu,
        variance=variance,
        risk=risk,
        sharpe=(mu - rf) / risk,
    )


def tangency(fc: FrontierConstants, rf: float) -> TangencySolution:
    """Tangency point of the line from (0, rf) to the frontier, and CML slope."""
    denom = fc.b - fc.alpha * rf
    if abs(denom) < 1e-12 * max(1.0, fc.alpha):
        raise TangencyUndefinedError("b - alpha*rf = 0: tangency at infinity")
    r_t = (fc.gamma - fc.b * rf) / denom
    with np.errstate(over="ignore", invalid="ignore"):  # out of float range: refused below
        sigma_rt = frontier_risk(fc, r_t)  # refuses a degenerate frontier
        slope = (r_t - rf) / sigma_rt
    if not np.isfinite([r_t, sigma_rt, slope]).all():
        raise TangencyUndefinedError("tangency at infinity: r_t, its risk or the slope overflows")
    return TangencySolution(r_t=r_t, sigma_rt=sigma_rt, slope=slope)


def frontier_risk(fc: FrontierConstants, target: float | np.ndarray) -> float | np.ndarray:
    """Risk of the frontier portfolio with the given target return.

    ``target`` may be a number (a float is returned) or an array (an array
    of risks is returned, one per target).
    """
    if fc.delta <= 1e-12 * max(1.0, fc.alpha * abs(fc.gamma)):
        raise DegenerateFrontierError(
            f"delta = {fc.delta:.3e}: all expected returns equal, frontier is degenerate"
        )
    d = np.asarray(target, dtype=float) - fc.b / fc.alpha
    risk = np.sqrt(1.0 / fc.alpha + fc.alpha * d * d / fc.delta)
    return float(risk) if risk.ndim == 0 else risk


def viability_check(expected_returns: np.ndarray) -> Viability:
    """Non-viable iff every expected return is negative (no portfolio is built)."""
    er = np.asarray(expected_returns, dtype=float)
    if er.size == 0:
        raise FrontierError("empty expected-returns vector")
    if np.all(er < 0):
        return Viability(False, "all expected returns are negative")
    return Viability(True)
