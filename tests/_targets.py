"""Stand-in targets for sampler tests, shared by several test modules."""
import numpy as np


class QuadraticTarget:
    """Smooth bowl: a Gaussian log-likelihood centered at `center` under a
    wide Gaussian prior."""

    def __init__(self, center, lik_scale=1.0):
        self.center = np.asarray(center, dtype=np.float64)
        self.lik_scale = float(lik_scale)

    def log_likelihood(self, theta):
        d = theta - self.center
        return float(-0.5 * d @ d / self.lik_scale**2)

    def log_prior(self, theta):
        return float(-0.5 * theta @ theta / 100.0)

    def log_likelihood_gradient(self, theta):
        return -(theta - self.center) / self.lik_scale**2

    def log_prior_gradient(self, theta):
        return -theta / 100.0


class GaussianToyTarget:
    """1-D conjugate setup: y_i ~ N(theta, noise_sd^2), theta ~ N(0, prior_var).

    Constants are dropped; Metropolis only ever sees differences.
    """

    def __init__(self, y, noise_sd, prior_var):
        self.y = np.asarray(y, dtype=np.float64)
        self.noise_sd = float(noise_sd)
        self.prior_var = float(prior_var)

    def log_likelihood(self, theta):
        r = self.y - theta[0]
        return float(-0.5 * r @ r / self.noise_sd**2)

    def log_prior(self, theta):
        return float(-0.5 * theta[0] ** 2 / self.prior_var)

    def log_likelihood_gradient(self, theta):
        return np.array([np.sum(self.y - theta[0]) / self.noise_sd**2])

    def log_prior_gradient(self, theta):
        return np.array([-theta[0] / self.prior_var])

    def posterior_mean_sd(self):
        n = self.y.size
        precision = n / self.noise_sd**2 + 1.0 / self.prior_var
        mean = (self.y.sum() / self.noise_sd**2) / precision
        return mean, np.sqrt(1.0 / precision)


class CountingTarget(QuadraticTarget):
    """Keeps the bytes of every theta its likelihood is called at, in
    call order."""

    def __init__(self, center):
        super().__init__(center)
        self.thetas = []

    def log_likelihood(self, theta):
        self.thetas.append(np.asarray(theta, dtype=np.float64).tobytes())
        return super().log_likelihood(theta)


class FailingTarget(QuadraticTarget):
    """Raises after a fixed number of likelihood calls."""

    def __init__(self, center, fail_after):
        super().__init__(center)
        self.fail_after = int(fail_after)
        self.calls = 0

    def log_likelihood(self, theta):
        self.calls += 1
        if self.calls > self.fail_after:
            raise RuntimeError("likelihood backend gave up")
        return super().log_likelihood(theta)


class TruncatedNormalTarget:
    """1-D standard normal likelihood truncated to |theta| < bound: -inf
    outside, under a flat prior."""

    def __init__(self, bound):
        self.bound = float(bound)

    def log_likelihood(self, theta):
        t = float(theta[0])
        return -0.5 * t * t if abs(t) < self.bound else -np.inf

    def log_prior(self, theta):
        return 0.0
