import numpy as np
import pytest

from frontera.frontier import frontier_constants, frontier_risk, gmv_portfolio, tangency
from frontera.market_data import PricePanel, simple_returns
from frontera.stats import (
    INVERSE_LEAF,
    NotPositiveDefiniteError,
    StatsError,
    annualized_return,
    annualized_volatility,
    asset_sharpe,
    asset_treynor,
    beta,
    capm_expected_return,
    invert_matrix,
    sample_covariance,
)

from conftest import load_fixture


def ret(*rows):
    """A returns array with one row per given series."""
    return np.array(rows, dtype=float).reshape(len(rows), -1)


class TestAnnualizedReturn:
    def test_zero_returns(self):
        assert annualized_return(ret(np.zeros(100)))[0] == 0.0

    def test_one_year_of_small_gains(self):
        # direct evaluation of the compounding formula
        expected = 1.001**252 - 1
        assert annualized_return(ret(np.full(252, 0.001)))[0] == pytest.approx(expected, rel=1e-12)

    def test_two_year_growth(self):
        daily = 1.21 ** (1 / 504) - 1
        assert annualized_return(ret(np.full(504, daily)))[0] == pytest.approx(0.10, rel=1e-9)

    def test_total_loss_rejected(self):
        with pytest.raises(StatsError, match="geometric"):
            annualized_return(ret([0.01, -1.0, 0.02]))

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            annualized_return(ret([]))

    @pytest.mark.parametrize(
        "returns", [[1e300, 1e300, 0.0], [1e100, 1e100]], ids=["growth", "power"]
    )
    def test_overflow_rejected(self, returns):
        # every return is finite, but one row's growth or its annual power overflows
        rows = ret([0.01] * len(returns), returns)
        with pytest.raises(StatsError, match="^annualized return is not finite: it overflows"):
            annualized_return(rows)


class TestAnnualizedVolatility:
    def test_constant_returns(self):
        assert annualized_volatility(ret(np.full(50, 0.002)))[0] == 0.0

    def test_alternating_returns(self):
        r = np.tile([0.01, -0.01], 126)
        sd = np.sqrt(252 * 0.01**2 / 251)  # hand sample sd, mean is 0
        assert annualized_volatility(ret(r))[0] == pytest.approx(sd * np.sqrt(252), rel=1e-12)

    def test_daily_sd_scale(self):
        # a ~1.86% daily sd lands near 29.6% annual, the order of the bank stock
        rng = np.random.default_rng(3)
        r = rng.normal(0, 0.0186, 20000)
        vol = annualized_volatility(ret(r))[0]
        assert 0.28 < vol < 0.31

    def test_too_few(self):
        with pytest.raises(StatsError):
            annualized_volatility(ret([0.01]))

    def test_overflow_rejected(self):
        # finite returns whose squared deviations overflow
        rows = ret([0.01, 0.02, 0.0], [1e300, -1e300, 0.0])
        with pytest.raises(StatsError, match="^annualized volatility is not finite: it overflows"):
            annualized_volatility(rows)


class TestBeta:
    def test_market_vs_itself(self):
        m = np.random.default_rng(0).normal(0, 0.01, 100)
        assert beta(ret(m), m)[0] == pytest.approx(1.0, abs=1e-14)

    def test_double_market(self):
        rng = np.random.default_rng(1)
        m = rng.normal(0, 0.01, 100)
        assert beta(ret(2 * m), m)[0] == pytest.approx(2.0, rel=1e-12)

    def test_orthogonal_asset(self):
        rng = np.random.default_rng(2)
        m = rng.normal(0, 0.01, 200)
        y = rng.normal(0, 0.01, 200)
        mc = m - m.mean()
        resid = y - (y @ mc) / (mc @ mc) * mc  # orthogonal to market in-sample
        assert abs(beta(ret(resid), m)[0]) < 1e-12

    def test_one_return_column(self):
        with pytest.raises(StatsError, match="^need at least 2 aligned returns for beta$"):
            beta(ret([0.01]), np.array([0.02]))

    def test_zero_market_variance(self):
        with pytest.raises(StatsError, match="market variance"):
            beta(ret([0.01, 0.02]), np.array([0.005, 0.005]))

    def test_scale_property(self):
        rng = np.random.default_rng(4)
        m = rng.normal(0, 0.01, 150)
        a = 0.7 * m + rng.normal(0, 0.005, 150)
        b1, b3 = beta(ret(a, 3 * a), m)
        assert b3 == pytest.approx(3 * b1, rel=1e-12)


class TestCapm:
    def test_paper_fixture(self):
        assert capm_expected_return(0.4385, 0.0687, -0.0188) == pytest.approx(0.0303, abs=5e-5)

    def test_market_portfolio(self):
        assert capm_expected_return(1.0, 0.05, 0.12) == 0.12

    def test_risk_free(self):
        assert capm_expected_return(0.0, 0.05, 0.12) == 0.05


class TestSharpeTreynor:
    def test_sharpe_paper_fixture(self):
        assert asset_sharpe(0.0081, 0.0687, 0.2956) == pytest.approx(-0.2050, abs=5e-4)

    def test_sharpe_zero_excess(self):
        assert asset_sharpe(0.05, 0.05, 0.2) == 0.0

    def test_sharpe_hand(self):
        assert asset_sharpe(0.0572, 0.0687, 0.10) == pytest.approx(-0.115, rel=1e-12)

    def test_sharpe_zero_vol(self):
        with pytest.raises(StatsError):
            asset_sharpe(0.05, 0.02, 0.0)

    def test_treynor_market(self):
        assert asset_treynor(-0.0188, 0.0687, 1.0) == pytest.approx(-0.0875, abs=1e-12)

    def test_treynor_paper_fixture(self):
        assert asset_treynor(0.0081, 0.0687, 0.4385) == pytest.approx(-0.1382, abs=5e-4)

    def test_treynor_zero_beta(self):
        with pytest.raises(StatsError):
            asset_treynor(0.05, 0.02, 0.0)


class TestCovarianceMatrix:
    def test_overflow_rejected(self):
        # a volatility just inside the float range whose square is not
        rows = ret([1e154 - 1.0] + [4e-16 - 1.0] * 10, [0.01, -0.01] * 5 + [0.0])
        assert np.isfinite(annualized_volatility(rows)).all()
        with pytest.raises(StatsError, match="^annualized covariance is not finite: it overflows"):
            sample_covariance(rows)

    def test_one_series(self):
        with pytest.raises(StatsError, match="^need at least 2 return series$"):
            sample_covariance(ret([0.01, -0.02, 0.03]))

    def test_one_observation(self):
        with pytest.raises(StatsError, match="^need at least 2 observations$"):
            sample_covariance(ret([0.01], [-0.02]))

    def test_identical_series(self):
        # singular matrix: only the matrix part is defined, inversion must fail
        rng = np.random.default_rng(5)
        r = rng.normal(0, 0.012, 300)
        matrix = sample_covariance(ret(r, r))
        s2 = np.var(r, ddof=1) * 252
        assert np.allclose(matrix, s2, rtol=1e-12)
        with pytest.raises(NotPositiveDefiniteError):
            invert_matrix(matrix)

    def test_orthogonal_series(self):
        rng = np.random.default_rng(6)
        m = rng.normal(0, 0.01, 200)
        y = rng.normal(0, 0.01, 200)
        mc = m - m.mean()
        resid = y - (y @ mc) / (mc @ mc) * mc
        assert abs(sample_covariance(ret(m, resid))[0, 1]) < 1e-12

    def test_exact_symmetry(self):
        rng = np.random.default_rng(7)
        cov = sample_covariance(rng.normal(0, 0.01, (3, 100)))
        assert np.array_equal(cov, cov.T)

    def test_diagonal_matches_volatility(self):
        rng = np.random.default_rng(8)
        r = rng.normal(0, 0.02, (4, 250))
        cov = sample_covariance(r)
        vol = annualized_volatility(r)
        for i in range(4):
            assert cov[i, i] == pytest.approx(vol[i] ** 2, rel=1e-10)

    def test_inverse_certificate(self):
        rng = np.random.default_rng(9)
        cov = sample_covariance(rng.normal(0, 0.015, (4, 400)))
        assert np.max(np.abs(cov @ invert_matrix(cov) - np.eye(4))) < 1e-9

    def test_scale_property(self):
        rng = np.random.default_rng(10)
        a = rng.normal(0, 0.01, 120)
        b = rng.normal(0, 0.01, 120)
        cov1 = sample_covariance(ret(a, b))
        cov3 = sample_covariance(ret(3 * a, b))
        assert cov3[0, 0] == pytest.approx(9 * cov1[0, 0], rel=1e-12)
        assert cov3[0, 1] == pytest.approx(3 * cov1[0, 1], rel=1e-12)
        assert cov3[1, 1] == pytest.approx(cov1[1, 1], rel=1e-12)


class TestInvertMatrix:
    def test_identity(self):
        assert np.allclose(invert_matrix(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        inv = invert_matrix(np.diag([4.0, 9.0]))
        assert np.allclose(inv, np.diag([0.25, 1 / 9]), rtol=1e-14)

    def test_paper_covariance_inverse(self):
        # published inverse is rounded to whole percent; compare at +-15pp
        cov = load_fixture("2015_2023")
        table4 = np.array(
            [
                [29.55, -3.92, -1.20, -17.18],
                [-3.92, 8.47, -1.55, -0.22],
                [-1.20, -1.55, 10.52, -2.69],
                [-17.18, -0.22, -2.69, 20.62],
            ]
        )
        inv = invert_matrix(np.asarray(cov.cov_matrix))
        assert np.max(np.abs(inv - table4)) < 0.15

    def test_product_is_identity(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(4, 4))
        a = m @ m.T + 0.5 * np.eye(4)
        inv = invert_matrix(a)
        assert np.max(np.abs(a @ inv - np.eye(4))) < 1e-9
        assert np.max(np.abs(inv - inv.T)) < 1e-9

    def test_not_symmetric(self):
        with pytest.raises(StatsError, match="symmetric"):
            invert_matrix(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            invert_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot_index == 1

    def test_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            invert_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_not_square(self):
        with pytest.raises(StatsError, match="square"):
            invert_matrix(np.ones((2, 3)))

    def test_positive_pivot_below_threshold(self):
        # the second pivot is 1e-14 > 0 but below 1e-12 times the largest diagonal
        with pytest.raises(NotPositiveDefiniteError) as exc:
            invert_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]]))
        assert exc.value.pivot_index == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry(self, bad):
        a = np.eye(3)
        a[2, 2] = bad
        with pytest.raises(StatsError, match="non-finite") as exc:
            invert_matrix(a)
        assert not isinstance(exc.value, NotPositiveDefiniteError)

    @pytest.mark.filterwarnings("error")
    def test_inverse_overflow(self):
        with pytest.raises(StatsError, match="overflow"):
            invert_matrix(np.array([[1e-310]]))


def row_loop_inverse(a: np.ndarray) -> np.ndarray:
    """Gauss-Jordan elimination one row at a time over the augmented [A | I]
    array: the reference that invert_matrix must agree with."""
    n = a.shape[0]
    aug = np.hstack([a, np.eye(n)])
    for k in range(n):
        aug[k] /= aug[k, k]
        for i in range(n):
            if i != k:
                aug[i] -= aug[i, k] * aug[k]
    inv = aug[:, n:]
    return (inv + inv.T) / 2.0


def row_loop_failing_pivot(a: np.ndarray) -> tuple[int, float] | None:
    """Index and value of the first Gauss-Jordan pivot at or below 1e-12
    times the largest diagonal entry, eliminating one row at a time; None
    when every pivot passes."""
    a = a.copy()
    threshold = 1e-12 * np.max(np.abs(np.diag(a)))
    for k in range(len(a)):
        if not a[k, k] > threshold:
            return k, float(a[k, k])
        a[k] /= a[k, k]
        for i in range(len(a)):
            if i != k:
                a[i] -= a[i, k] * a[k]
    return None


def factor_covariance(rng: np.random.Generator, n: int) -> np.ndarray:
    """Annualized covariance of n assets driven by three factors plus noise."""
    loadings = rng.uniform(0.3, 1.6, (n, 3)) * [1.0, 0.5, 0.3]
    a = loadings @ np.diag([0.04, 0.01, 0.005]) @ loadings.T + np.diag(rng.uniform(0.01, 0.09, n))
    return (a + a.T) / 2.0


def structured_spd(kind: str) -> np.ndarray:
    """SPD matrices with exact zeros, which the inverse must keep where the
    elimination keeps them."""
    rng = np.random.default_rng(4000)
    if kind == "diagonal":
        return np.diag(rng.uniform(0.01, 0.09, 5))
    if kind == "block_diagonal":
        a = np.zeros((7, 7))
        a[:3, :3] = factor_covariance(rng, 3)
        a[3:, 3:] = factor_covariance(rng, 4)
        return a
    if kind == "block_diagonal_130":
        # the blocked inverse splits 130 rows at 65, then 32 and 97, then 48
        # and 113; the blocks meet at 50, inside a split block
        a = np.zeros((130, 130))
        a[:50, :50] = factor_covariance(rng, 50)
        a[50:, 50:] = factor_covariance(rng, 80)
        return a
    # tridiagonal, every entry off the three diagonals -0.0
    a = np.full((6, 6), -0.0)
    np.fill_diagonal(a, 4.0)
    i = np.arange(5)
    a[i, i + 1] = a[i + 1, i] = -1.0
    return a


def failing_covariance(k: int) -> np.ndarray:
    """A 300-asset covariance whose k-th pivot fails: negative at 0 and 299,
    zero up to rounding at 150, where asset 150 copies asset 149."""
    a = factor_covariance(np.random.default_rng(5000 + k), 300)
    if k == 150:
        a[150], a[:, 150] = a[149], a[:, 149]
    else:  # subtract twice the Schur complement, which the pivot equals
        a[k, k] -= 2.0 * (a[k, k] - a[k, :k] @ np.linalg.solve(a[:k, :k], a[:k, k]))
    return a


def assert_agrees(x: np.ndarray, ref: np.ndarray):
    """Cholesky and Gauss-Jordan round differently: agreement within 1e-13 of
    the largest entry (about 10 times the gap measured at N=300), exact
    symmetry and the same exact zeros."""
    assert x.shape == ref.shape
    assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(x, x.T)
    assert np.array_equal(x == 0.0, ref == 0.0)


class TestInverseAgainstReference:
    # up to INVERSE_LEAF rows the factor is inverted by one solve; above it by
    # blocks, split at n // 2, odd sizes giving unequal halves
    @pytest.mark.parametrize(
        "n", [2, 20, INVERSE_LEAF + 1, INVERSE_LEAF + 2, 67, 97, 300, 301]
    )
    def test_agrees_with_row_loop(self, n):
        a = factor_covariance(np.random.default_rng(2000 + n), n)
        assert_agrees(invert_matrix(a), row_loop_inverse(a))

    @pytest.mark.parametrize(
        "kind", ["diagonal", "block_diagonal", "negative_zeros", "block_diagonal_130"]
    )
    def test_agrees_on_exact_zeros(self, kind):
        a = structured_spd(kind)
        assert_agrees(invert_matrix(a), row_loop_inverse(a))

    @pytest.mark.parametrize("k", [0, 150, 299])
    def test_pivot_index_matches_row_loop(self, k):
        a = failing_covariance(k)
        index, pivot = row_loop_failing_pivot(a)
        assert index == k
        with pytest.raises(NotPositiveDefiniteError, match=rf"^pivot \S+ at index {k} ") as exc:
            invert_matrix(a)
        assert exc.value.pivot_index == k
        named = float(str(exc.value).split()[1])
        threshold = 1e-12 * np.max(np.abs(np.diag(a)))
        assert named <= threshold
        assert named == pytest.approx(pivot, rel=1e-3, abs=threshold)

    @pytest.mark.parametrize("n", [2, 4, 50, 200, 500])
    def test_accuracy_scales_with_n(self, n):
        # a componentwise residual bound of the form |A X - I| <= c n u |A||X|,
        # with c u = float64 epsilon; the weight sum is n additions.
        eps = np.finfo(float).eps
        a = factor_covariance(np.random.default_rng(3000 + n), n)
        inv = invert_matrix(a)
        residual = np.abs(a @ inv - np.eye(n))
        assert np.all(residual <= n * eps * (np.abs(a) @ np.abs(inv)))
        h = inv.sum(axis=0)
        alpha = h.sum()
        assert abs(1.0 - np.sum(h / alpha)) <= n * eps * np.sum(np.abs(h)) / alpha


def randsvd(rng: np.random.Generator, n: int, kappa: float) -> np.ndarray:
    """A = Q D Q' with Q from the QR factors of a Gaussian matrix and D spaced
    geometrically from 1 to 1/kappa, so that the 2-norm condition number of A
    is kappa up to rounding: the randsvd construction of Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 28."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.geomspace(1.0, 1.0 / kappa, n)) @ q.T
    return (a + a.T) / 2.0


def refined_solve(a: np.ndarray, b: np.ndarray, steps: int = 4) -> np.ndarray:
    """A^-1 b by iterative refinement (Higham ch. 12): x <- x + solve(A, r)
    with the residual r = b - A x formed in np.longdouble. It uses neither an
    inverse nor a Cholesky factor. Against exact rational residuals at
    N = 64, its relative error was about 1/1000 of the float64 errors that
    TestConditioning bounds."""
    wide = a.astype(np.longdouble)
    x = np.linalg.solve(a, np.asarray(b, dtype=float)).astype(np.longdouble)
    for _ in range(steps):
        x += np.linalg.solve(a, (b - wide @ x).astype(float))
    return x


# Calibrated once: over 20 seeds of each (N, kappa) below and the SkylakeX,
# Haswell and Sandybridge OpenBLAS kernels, the largest forward error of alpha
# or of the GMV weights was 0.003 N u kappa.
FORWARD_ERROR_C = 0.01
# Over the same runs the blocked inverse's error in A^-1 1 was at most 1.31
# times that of the solve path, and at least 0.75 times.
SOLVE_PATH_FACTOR = 2.0


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 here",
)
@pytest.mark.parametrize("kappa", [1e2, 1e6, 1e10])
@pytest.mark.parametrize("n", [64, 300])
class TestConditioning:
    """Forward errors on covariances of prescribed condition number, against
    a reference h = A^-1 1 from ``refined_solve``. The bound
    c N u kappa follows the backward stability of the Cholesky inverse
    (Higham ch. 10 and section 14.2)."""

    @staticmethod
    def covariance(n: int, kappa: float) -> np.ndarray:
        return randsvd(np.random.default_rng(6000 + n), n, kappa)

    @staticmethod
    def case(n: int, kappa: float) -> tuple[np.ndarray, np.ndarray]:
        a = TestConditioning.covariance(n, kappa)
        return a, refined_solve(a, np.ones(n))

    def test_gmv_forward_error(self, n, kappa):
        a, h_ref = self.case(n, kappa)
        fc = frontier_constants(invert_matrix(a), np.random.default_rng(n).uniform(0.0, 0.1, n))
        weights = gmv_portfolio(fc, 0.0).weights
        alpha_ref = h_ref.sum()
        weights_ref = h_ref / alpha_ref
        bound = FORWARD_ERROR_C * n * (np.finfo(float).eps / 2) * kappa
        assert abs(fc.alpha - alpha_ref) <= bound * abs(alpha_ref)
        assert np.max(np.abs(weights - weights_ref)) <= bound * np.max(np.abs(weights_ref))

    def test_blocked_inverse_near_solve_path(self, n, kappa):
        a, h_ref = self.case(n, kappa)
        low_inv = np.linalg.solve(np.linalg.cholesky(a), np.eye(n))

        def error(inverse: np.ndarray) -> float:
            return float(np.max(np.abs(np.ones(n) @ inverse - h_ref)) / np.max(np.abs(h_ref)))

        assert error(invert_matrix(a)) <= SOLVE_PATH_FACTOR * error(low_inv.T @ low_inv)


def frontier_reference(a: np.ndarray, h_ref: np.ndarray, er: np.ndarray):
    """alpha, mu = b / alpha and delta in np.longdouble from refined solves.

    delta is formed as alpha e' A^-1 e with e = E - mu 1. The expanded
    alpha gamma - b^2 cancels in long double too: at alpha gamma / delta =
    1.6e9 it left the reference itself off by 2e-8."""
    alpha = h_ref.sum()
    mu = refined_solve(a, er).sum() / alpha
    e = er - mu
    return alpha, mu, alpha * (e @ refined_solve(a, e))


def centred_errors(a, h_ref, er, kappa, c):
    """(error, bound) of delta and of the frontier risks at 60 targets.

    Both bounds are c N u kappa, as in TestConditioning, plus a term for
    the error eps of mu = b / alpha, which is at most c N u times
    (|E| + |mu|)' |A^-1| 1 / alpha, the rounding of the products and sums
    that form b and alpha, plus kappa max|w| ||e||_1, the GMV weights' error times the
    spread e = E - mu 1. mu minimises (E - x 1)' A^-1 (E - x 1) = delta /
    alpha over x, so eps moves delta by alpha^2 eps^2 only. It moves the
    risk sqrt(1 / alpha + alpha d^2 / delta), d = t - mu, by alpha |d| eps
    / (delta risk^2) relative, to first order."""
    n = len(a)
    inverse = invert_matrix(a)
    fc = frontier_constants(inverse, er)
    alpha, mu, delta = frontier_reference(a, h_ref, er)
    assert 1 + (alpha * mu) ** 2 / delta >= 1e4  # alpha gamma / delta
    unit = c * n * np.finfo(float).eps / 2
    w = h_ref / alpha
    sums = (np.abs(er) + abs(mu)) @ np.abs(inverse) @ np.ones(n) / alpha
    eps = unit * (sums + kappa * np.max(np.abs(w)) * np.sum(np.abs(er - mu)))
    # the default curve span, and nine points around mu; the variance
    # doubles at d = +-half_width
    half_width = np.sqrt(delta) / alpha
    d = np.concatenate([
        np.linspace(0.0, 1.5 * er.max(), 51) - mu, half_width * np.arange(-4, 5)
    ])
    variance = 1 / alpha + alpha * d * d / delta
    risk_bound = (unit * kappa + alpha * np.abs(d) * eps / (delta * variance)) * np.sqrt(variance)
    risk_error = np.abs(frontier_risk(fc, (mu + d).astype(float)) - np.sqrt(variance))
    return (
        (abs(fc.delta - delta), (unit * kappa + alpha**2 * eps**2 / delta) * delta),
        (risk_error, risk_bound),
    )


# FORWARD_ERROR_C holds here too: over 21 seeds of each (N, kappa, spread)
# below and the three kernels, the largest error of delta or of a frontier
# risk was 0.0031 times its bound at c = 1. With delta formed as alpha gamma
# - b^2 it was up to 5e5 times.
@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="np.longdouble is no wider than float64 here",
)
@pytest.mark.parametrize("spread", [1e-4, 1e-6])
@pytest.mark.parametrize("kappa", [1e2, 1e4])
@pytest.mark.parametrize("n", [64, 300])
def test_centred_frontier_forward_error(n, kappa, spread):
    """delta and the frontier risks for expected returns 0.03 + spread z,
    z standard normal, where alpha gamma / delta >= 1e4: the expanded
    alpha gamma - b^2 loses four or more digits there."""
    a, h_ref = TestConditioning.case(n, kappa)
    er = 0.03 + spread * np.random.default_rng(n).standard_normal(n)
    (delta_error, delta_bound), (risk_error, risk_bound) = centred_errors(
        a, h_ref, er, kappa, FORWARD_ERROR_C
    )
    assert delta_error <= delta_bound
    assert np.all(risk_error <= risk_bound)


def rounding_bounds(inverse: np.ndarray, er: np.ndarray, rf: float):
    """First-order bounds on the rounding errors of mu, r_t, sigma_t and the
    slope as frontier.py forms them from a given inverse.

    An N-term product x' M y errs by at most about N u |x|' |M| |y|
    (Higham (3.5)); the bounds follow those errors through every later step
    and leave out the rounding of single operations, about N times smaller.
    The inverse's own error is not in them: the runs compared share it."""
    n, u = len(er), np.finfo(float).eps / 2
    m, one, size = np.abs(inverse), np.ones(n), np.abs(er)
    fc = frontier_constants(inverse, er)
    tan = tangency(fc, rf)
    mu = fc.b / fc.alpha
    d_alpha = n * u * (one @ m @ one)
    d_b = 2 * n * u * (size @ m @ one)
    d_gamma = 2 * n * u * (size @ m @ size)
    d_mu = (d_b + abs(mu) * d_alpha) / fc.alpha
    d_rt = (d_gamma + abs(rf) * d_b + abs(tan.r_t) * (d_b + abs(rf) * d_alpha)) / abs(
        fc.b - fc.alpha * rf
    )
    spread = np.abs(er - mu)
    d_delta = fc.delta * d_alpha / fc.alpha + fc.alpha * (
        2 * n * u * (spread @ m @ spread) + 2 * d_mu * (one @ m @ spread)
    )
    # sigma_t^2 = 1 / alpha + alpha d^2 / delta with d = r_t - mu
    far = tan.sigma_rt**2 - 1 / fc.alpha
    d_variance = d_alpha / fc.alpha**2 + far * (
        d_alpha / fc.alpha + d_delta / fc.delta + 2 * (d_rt + d_mu) / abs(tan.r_t - mu)
    )
    d_sigma = d_variance / (2 * tan.sigma_rt)
    d_slope = abs(tan.slope) * (d_rt / abs(tan.r_t - rf) + d_sigma / tan.sigma_rt)
    return np.array([d_mu, d_rt, d_sigma, d_slope])


@pytest.mark.parametrize("kappa", [1e2, 1e6, 1e10])
@pytest.mark.parametrize("n", [64, 300])
class TestMetamorphic:
    """Relations between runs on changed inputs, checked without a reference
    on TestConditioning's covariances. The expected returns lie on a 2^-40
    grid and the shift C and rf are powers of two, so that E + C and rf + C
    are exact."""

    C, RF = 2.0**-5, 2.0**-7

    @staticmethod
    def inputs(n: int, kappa: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        a = TestConditioning.covariance(n, kappa)
        er = np.ldexp(np.round(np.ldexp(np.random.default_rng(n).uniform(0.0, 0.1, n), 40)), -40)
        return a, invert_matrix(a), er

    def test_permuting_assets_permutes_gmv_weights(self, n, kappa):
        """Each run is within test_gmv_forward_error's bound of the exact
        weights, so the two are within twice that of each other."""
        a, inverse, er = self.inputs(n, kappa)
        p = np.random.default_rng(n).permutation(n)
        weights = gmv_portfolio(frontier_constants(inverse, er), self.RF).weights
        permuted = frontier_constants(invert_matrix(a[np.ix_(p, p)]), er[p])
        bound = 2 * FORWARD_ERROR_C * n * (np.finfo(float).eps / 2) * kappa
        error = np.max(np.abs(gmv_portfolio(permuted, self.RF).weights - weights[p]))
        assert error <= bound * np.max(np.abs(weights))

    def test_shifting_returns_shifts_gmv_return(self, n, kappa):
        """The weights h / alpha do not read E, so they are bit-equal; the
        return moves by C within the rounding of both runs."""
        _, inverse, er = self.inputs(n, kappa)
        gmv = gmv_portfolio(frontier_constants(inverse, er), self.RF)
        shifted = gmv_portfolio(frontier_constants(inverse, er + self.C), self.RF)
        assert np.array_equal(shifted.weights, gmv.weights)
        d_mu = sum(rounding_bounds(inverse, x, self.RF)[0] for x in (er, er + self.C))
        assert abs(shifted.port_return - gmv.port_return - self.C) <= d_mu

    def test_shifting_returns_and_rf_shifts_tangency(self, n, kappa):
        """r_t moves by C; sigma_t and the slope stay, within the rounding of
        both runs."""
        _, inverse, er = self.inputs(n, kappa)
        tan = tangency(frontier_constants(inverse, er), self.RF)
        shifted = tangency(frontier_constants(inverse, er + self.C), self.RF + self.C)
        _, d_rt, d_sigma, d_slope = rounding_bounds(inverse, er, self.RF) + rounding_bounds(
            inverse, er + self.C, self.RF + self.C
        )
        assert abs(shifted.r_t - tan.r_t - self.C) <= d_rt
        assert abs(shifted.sigma_rt - tan.sigma_rt) <= d_sigma
        assert abs(shifted.slope - tan.slope) <= d_slope

    @pytest.mark.parametrize("s", [4.0, 0.25])
    def test_scaling_covariance_scales_alpha(self, n, kappa, s):
        """A power of 4 scales every rounding of the Cholesky inverse
        exactly, its square roots included, so the tolerance is zero."""
        a, inverse, er = self.inputs(n, kappa)
        scaled = frontier_constants(invert_matrix(s * a), er)
        assert scaled.alpha == frontier_constants(inverse, er).alpha / s


class TestLoopReference:
    """The row-wise statistics against the one-series-at-a-time loops they replaced.

    prod, mean, std and centring reduce a row of the returns array in the
    same order as a lone series, so return and volatility must be bit-equal.
    Beta and covariance moved from one dot product per pair to matrix
    products, which sum in another order: they must agree within a relative
    1e-12 of the largest entry, about 4500 float64 epsilons.
    """

    @pytest.mark.parametrize("n", [2, 20, 200])
    def test_matches_per_series_loop(self, n):
        rng = np.random.default_rng(1000 + n)
        t, td = 2520, 252
        market = rng.normal(0.0003, 0.01, t)
        daily = rng.uniform(0.2, 1.5, (n, 1)) * market + rng.normal(0, 0.01, (n, t))
        closes = 100 * np.cumprod(1 + np.vstack([daily, market]), axis=1)
        dates = np.datetime64("2010-01-01") + np.arange(t)
        panel = PricePanel(tuple(f"A{i}" for i in range(n)), "M", dates, closes)
        r = simple_returns(panel)
        assets, m = r[:-1], r[-1]

        ref_return = [float(np.prod(1.0 + x)) ** (td / (t - 1)) - 1.0 for x in r]
        ref_vol = [float(np.std(x, ddof=1)) * float(np.sqrt(td)) for x in r]
        mc = m - m.mean()
        ref_beta = np.array([float((x - x.mean()) @ mc) / float(mc @ mc) for x in assets])
        centered = [x - x.mean() for x in assets]
        ref_cov = np.empty((n, n))
        for i in range(n):
            for j in range(i, n):
                ref_cov[i, j] = ref_cov[j, i] = float(centered[i] @ centered[j]) / (t - 2) * td

        assert annualized_return(r, td).tolist() == ref_return
        assert annualized_volatility(r, td).tolist() == ref_vol
        b = beta(assets, m)
        assert np.max(np.abs(b - ref_beta)) <= 1e-12 * np.max(np.abs(ref_beta))
        cov = sample_covariance(assets, td)
        assert np.max(np.abs(cov - ref_cov)) <= 1e-12 * np.max(np.abs(ref_cov))
        assert np.array_equal(cov, cov.T)
