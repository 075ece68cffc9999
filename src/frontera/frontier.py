"""Closed-form mean-variance frontier (Merton).

With annualized covariance matrix A and expected-return vector E(R):

    h = 1' A^-1          g = E(R)' A^-1
    alpha = sum(h)       b = sum(g)
    gamma = E(R) . g     delta = alpha * gamma - b^2

The frontier in (risk, return) space is risk(t) = sqrt((alpha t^2 - 2 b t
+ gamma) / delta); the global minimum-variance portfolio is omega = h /
alpha with return b / alpha and variance 1 / alpha. The tangency point of
the line through (0, rf) is r_t = (gamma - b rf) / (b - alpha rf).

Short sales are allowed: weights may be negative. All quantities are
decimal fractions.
"""

from typing import NamedTuple

import numpy as np


class FrontierError(ValueError):
    pass


class DegenerateFrontierError(FrontierError):
    """All expected returns equal: delta = 0 and the frontier collapses."""


class TangencyUndefinedError(FrontierError):
    """b - alpha * rf = 0: the CML is parallel to the frontier asymptote."""


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
    sharpe: float | None


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
        delta = alpha * gamma - b * b
    if not np.isfinite(np.concatenate([h, g, [alpha, b, gamma, delta]])).all():
        raise FrontierError("frontier constants overflow the floating-point range")
    if alpha <= 0:
        raise FrontierError(f"alpha = {alpha} is not positive; covariance inverse is not PD")
    return FrontierConstants(h=h, g=g, alpha=alpha, b=b, gamma=gamma, delta=delta)


def _check_delta(fc: FrontierConstants):
    if fc.delta <= 1e-12 * max(1.0, fc.alpha * abs(fc.gamma)):
        raise DegenerateFrontierError(
            f"delta = {fc.delta:.3e}: all expected returns equal, frontier is degenerate"
        )


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
    _check_delta(fc)
    denom = fc.b - fc.alpha * rf
    if abs(denom) < 1e-12 * max(1.0, fc.alpha):
        raise TangencyUndefinedError("b - alpha*rf = 0: tangency at infinity")
    r_t = (fc.gamma - fc.b * rf) / denom
    sigma_rt = frontier_risk(fc, r_t)
    return TangencySolution(r_t=r_t, sigma_rt=sigma_rt, slope=(r_t - rf) / sigma_rt)


def frontier_risk(fc: FrontierConstants, target: float | np.ndarray) -> float | np.ndarray:
    """Risk of the frontier portfolio with the given target return.

    ``target`` may be a number (a float is returned) or an array (an array
    of risks is returned, one per target).
    """
    _check_delta(fc)
    t = np.asarray(target, dtype=float)
    radicand = (fc.alpha * t * t - 2.0 * fc.b * t + fc.gamma) / fc.delta
    if np.any(radicand < 0):
        raise FrontierError(f"negative radicand {np.min(radicand):.3e} in frontier risk")
    risk = np.sqrt(radicand)
    return float(risk) if risk.ndim == 0 else risk


def viability_check(expected_returns: np.ndarray) -> Viability:
    """Non-viable iff every expected return is negative (no portfolio is built)."""
    er = np.asarray(expected_returns, dtype=float)
    if er.size == 0:
        raise FrontierError("empty expected-returns vector")
    if np.all(er < 0):
        return Viability(False, "all expected returns are negative")
    return Viability(True)
