"""Verification samplers with known or independently checkable truth.

VAR(1) processes carry an analytic asymptotic covariance, so every
estimator in the package can be checked against ground truth. The
random-walk Metropolis sampler targets a Bayesian logistic posterior
for the bundled dataset. All samplers are deterministic given a seed,
and chain sources hand out prefix-stable extensions: rows(n), a
read-only view of the buffer, and take(n), the same rows as a
ChainMatrix, do not depend on how the calls were sliced.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Protocol, Union

import numpy as np

from .chain import ChainMatrix, load_chain
from .errors import DomainError, InsufficientData, NotStationary, require_positive

# Posterior mean for the bundled logistic dataset, used by the
# replication studies as the proxy truth.
LOGIT_REFERENCE_MEAN = np.array([0.5706, 0.7516, 1.0559, 0.4517, 0.6545])
LOGIT_REFERENCE_MEAN.setflags(write=False)

# Draws are generated in fixed-size blocks so that the random stream
# never depends on how take() calls are sliced.
_BLOCK = 4096


def ar1_cov(rho: float, p: int, scale: float = 1.0) -> np.ndarray:
    """AR(1) covariance matrix: entry (i, j) = scale · rho^|i-j|."""
    if not (-1.0 < rho < 1.0):
        raise DomainError(f"autocorrelation must lie in (-1,1), got {rho}")
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    require_positive("scale", scale)
    idx = np.arange(p)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


def spectral_radius(matrix: np.ndarray) -> float:
    """Largest eigenvalue modulus of a square matrix (0 for a 0-by-0 one)."""
    a = np.asarray(matrix, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("spectral radius requires a square matrix")
    if not np.isfinite(a).all():
        raise DomainError("spectral radius requires finite entries")
    if a.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(a)).max())


def var1_true_cov(phi: np.ndarray, omega: np.ndarray) -> tuple:
    """Stationary covariance V and asymptotic covariance Σ of a VAR(1).

    V solves V = Φ V Φᵀ + Ω through the vec identity (a p²-by-p²
    linear solve); Σ = (I - Φ)⁻¹ V + V (I - Φ)⁻ᵀ - V.
    """
    phi = np.asarray(phi, dtype=np.float64)
    omega = np.asarray(omega, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise DomainError("phi must be square")
    if omega.shape != phi.shape:
        raise DomainError("omega must match phi's shape")
    if not np.isfinite(omega).all():
        raise DomainError("omega must be finite")
    p = phi.shape[0]
    if np.abs(omega - omega.T).max() > 1e-10 * max(1.0, np.abs(omega).max()):
        raise DomainError("omega must be symmetric")
    rho = spectral_radius(phi)
    if rho >= 1.0 - 1e-10:
        raise NotStationary(f"spectral radius {rho:.12f} is not below 1")
    eye2 = np.eye(p * p)
    v = np.linalg.solve(eye2 - np.kron(phi, phi), omega.reshape(-1)).reshape(p, p)
    v = (v + v.T) * 0.5
    x = np.linalg.solve(np.eye(p) - phi, v)
    sigma = x + x.T - v
    sigma = (sigma + sigma.T) * 0.5
    return v, sigma


@dataclass(frozen=True)
class Var1Model:
    """VAR(1) process Y_t = Φ Y_{t-1} + ε_t, ε_t ~ N(0, Ω).

    The stationary covariance V and the asymptotic covariance Σ of the
    mean are derived at construction and serve as analytic oracles.
    """

    phi: np.ndarray
    omega: np.ndarray
    v: np.ndarray = field(init=False)
    sigma_true: np.ndarray = field(init=False)

    def __post_init__(self):
        phi = np.ascontiguousarray(self.phi, dtype=np.float64)
        omega = np.ascontiguousarray(self.omega, dtype=np.float64)
        v, sigma = var1_true_cov(phi, omega)
        try:
            np.linalg.cholesky(omega)
        except np.linalg.LinAlgError:
            raise DomainError("omega must be positive definite") from None
        for name, arr in (("phi", phi), ("omega", omega), ("v", v), ("sigma_true", sigma)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def p(self) -> int:
        return self.phi.shape[0]


@dataclass(frozen=True)
class LogisticModel:
    """Bayesian logistic regression with a N(0, tau2 I) prior on β.

    Attributes
    ----------
    x : ndarray
        K-by-r design matrix (intercept column included when wanted).
    y : ndarray
        Length-K binary responses.
    tau2 : float
        Prior variance, finite and positive.
    proposal_sd : float
        Random walk proposal scale; 0.35 approximates the optimal
        acceptance probability for this posterior.
    """

    x: np.ndarray
    y: np.ndarray
    tau2: float = 1.0
    proposal_sd: float = 0.35

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=np.float64)
        y = np.ascontiguousarray(self.y, dtype=np.float64)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise DomainError("design matrix rows must match response length")
        if not np.isfinite(x).all():
            raise DomainError("design matrix must be finite")
        if not np.isin(y, (0.0, 1.0)).all():
            raise DomainError("responses must be 0 or 1")
        require_positive("tau2", self.tau2)
        require_positive("proposal_sd", self.proposal_sd)
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def r(self) -> int:
        return self.x.shape[1]


def load_logit_data(tau2: float = 1.0, proposal_sd: float = 0.35) -> LogisticModel:
    """The bundled 100-observation logistic dataset.

    The CSV carries a binary response and four predictors; an intercept
    column of ones is prepended, so the model has r = 5 coefficients.
    """
    raw = resources.files("mcstop").joinpath("data/logit.csv").read_bytes()
    chain = load_chain(raw, format="csv")
    y = chain.data[:, 0]
    preds = chain.data[:, 1:]
    design = np.hstack([np.ones((preds.shape[0], 1)), preds])
    return LogisticModel(x=design, y=y, tau2=tau2, proposal_sd=proposal_sd)


def log_posterior_logistic(beta: np.ndarray, model: LogisticModel) -> float:
    """Unnormalized log posterior of the logistic model at beta.

    The Bernoulli log likelihood is written through log(1 + e^η) with
    logaddexp stabilization, so large |x·β| cannot overflow.
    """
    b = np.asarray(beta, dtype=np.float64).reshape(-1)
    if b.size != model.r:
        raise DomainError(f"beta length {b.size} != r={model.r}")
    if not np.isfinite(b).all():
        raise DomainError("beta must be finite")
    eta = model.x @ b
    loglik = float(model.y @ eta - np.logaddexp(0.0, eta).sum())
    return loglik - float(b @ b) / (2.0 * model.tau2)


class ChainSource(Protocol):
    """A prefix-stable stream of draws: take(n) yields the first n rows."""

    @property
    def p(self) -> int: ...

    def take(self, n: int) -> ChainMatrix: ...


class _BlockSource:
    """Shared buffering: subclasses generate rows one block at a time.

    A subclass supplies _generate_block, or overrides _extend to
    generate exactly the rows a request asks for. Rows go into one
    capacity-doubling buffer, and rows(n) returns a read-only view of
    its first n rows. Rows below the count are never written again, so
    earlier views stay valid as the buffer grows.
    """

    def __init__(self, p: int):
        self._p = p
        self._buf = np.empty((0, p))
        self._count = 0

    @property
    def p(self) -> int:
        return self._p

    def _generate_block(self) -> np.ndarray:
        raise NotImplementedError

    def _extend(self, n: int) -> None:
        """Generate rows until the buffer holds at least n of them."""
        while self._count < n:
            self._append(self._generate_block())

    def _meta(self, n: int) -> dict:
        return {}

    def _reserve(self, end: int) -> None:
        if end > self._buf.shape[0]:
            grown = np.empty((max(end, 2 * self._buf.shape[0]), self._p))
            grown[: self._count] = self._buf[: self._count]
            self._buf = grown

    def _append(self, rows: np.ndarray) -> None:
        end = self._count + rows.shape[0]
        self._reserve(end)
        self._buf[self._count : end] = rows
        self._count = end

    def rows(self, n: int) -> np.ndarray:
        """A read-only (n, p) view of the first n rows."""
        if n < 1:
            raise DomainError(f"n must be >= 1, got {n}")
        self._extend(n)
        view = self._buf[:n]
        view.setflags(write=False)
        return view

    def take(self, n: int) -> ChainMatrix:
        return ChainMatrix(self.rows(n), meta=self._meta(n))


class IidGaussianSource(_BlockSource):
    """Independent N(0, I_p) rows; the ESS ≈ n sanity baseline."""

    def __init__(self, p: int, seed: int):
        if p < 1:
            raise DomainError(f"p must be >= 1, got {p}")
        super().__init__(p)
        self._rng = np.random.default_rng(seed)

    def _generate_block(self) -> np.ndarray:
        return self._rng.standard_normal((_BLOCK, self._p))


class Var1Source(_BlockSource):
    """VAR(1) rows with a stationary N(0, V) start."""

    def __init__(self, model: Var1Model, seed: int):
        super().__init__(model.p)
        self._model = model
        self._rng = np.random.default_rng(seed)
        self._chol_v = np.linalg.cholesky(model.v)
        self._chol_omega = np.linalg.cholesky(model.omega)
        d = np.diag(model.phi)
        self._diag_phi = d if np.array_equal(np.diag(d), model.phi) else None
        y0 = self._chol_v @ self._rng.standard_normal(model.p)
        self._append(y0[None, :])
        self._last = y0

    def _generate_block(self) -> np.ndarray:
        eps = self._rng.standard_normal((_BLOCK, self._p)) @ self._chol_omega.T
        if self._diag_phi is not None:
            # scipy.signal costs about a second to import, so only the
            # diagonal-Φ recursion that needs lfilter pays for it.
            from scipy.signal import lfilter

            out = np.empty_like(eps)
            for j in range(self._p):
                phi_j = self._diag_phi[j]
                col, _ = lfilter(
                    [1.0], [1.0, -phi_j], eps[:, j], zi=[phi_j * self._last[j]]
                )
                out[:, j] = col
        else:
            out = np.empty_like(eps)
            prev = self._last
            for t in range(_BLOCK):
                prev = self._model.phi @ prev + eps[t]
                out[t] = prev
        self._last = out[-1].copy()
        return out


class RwmLogisticSource(_BlockSource):
    """Random-walk Metropolis chain for the logistic posterior.

    Proposal noise and acceptance uniforms are drawn a block at a time,
    in the same order whatever the take() sizes, but Metropolis steps
    run only up to the last row a take asks for; the next take resumes
    from the cursor inside the current block.

    The log posterior is concave, so its tangent plane at the current
    state bounds every proposal's log Metropolis ratio from above. A
    step whose uniform already fails that bound is a rejection, and its
    likelihood is never evaluated; every other step runs the exact
    arithmetic, which alone decides. The chain is the same, bit for
    bit, as one that evaluates every proposal.
    """

    def __init__(
        self,
        model: LogisticModel,
        seed: int,
        init: Union[str, np.ndarray] = "prior_draw",
    ):
        super().__init__(model.r)
        self._model = model
        self._rng = np.random.default_rng(seed)
        if isinstance(init, str):
            if init != "prior_draw":
                raise DomainError(f"unknown init {init!r}")
            beta0 = math.sqrt(model.tau2) * self._rng.standard_normal(model.r)
        else:
            beta0 = np.asarray(init, dtype=np.float64).reshape(-1)
            if beta0.size != model.r:
                raise DomainError(f"init length {beta0.size} != r={model.r}")
        self._cur = beta0
        self._cur_lp = log_posterior_logistic(beta0, model)
        self._cur_sq = float(beta0.dot(beta0))
        # flags[k] records whether step k (which made row k + 1) accepted.
        self._flags = np.empty(0, dtype=bool)
        self._steps: list = []
        self._log_u: list = []
        self._half_sq: list = []
        self._pos = _BLOCK
        self._append(beta0[None, :])
        # The tangent bound's constants: h = Xᵀy − [Xᵀ | I/τ²]·[σ; β] is
        # the gradient at β, and the column sums and maxima of |X| bound
        # every |η_i| (see _margin).
        x, n, r = model.x, model.x.shape[0], model.r
        self._xty = x.T.dot(model.y)
        self._xta = np.hstack((x.T, np.eye(r) / model.tau2))
        self._w = np.empty(n + r)
        absx = np.abs(x)
        self._colabs = absx.sum(axis=0)
        self._colabs_norm = float(np.linalg.norm(self._colabs))
        self._colmax_norm = float(np.linalg.norm(absx.max(axis=0)))
        self._n_obs, self._unit = n, 8.0 * (n + r + 8) * 2.0**-53
        # Set with each block: colabs·S, |S| and the margin δ.
        self._cs = self._s_norm = 0.0
        self._delta = math.inf
        eta = x.dot(beta0)
        self._grad = self._gradient(beta0, eta, np.logaddexp(0.0, eta))

    def _draw_block(self) -> None:
        z = self._rng.standard_normal((_BLOCK, self._p))
        u = self._rng.random(_BLOCK)
        with np.errstate(divide="ignore"):
            self._log_u = np.log(u).tolist()
        steps = self._model.proposal_sd * z
        self._steps = list(steps)
        self._half_sq = (
            np.einsum("ij,ij->i", steps, steps) / (2.0 * self._model.tau2)
        ).tolist()
        smax = np.abs(steps).max(axis=0)
        self._cs = float(self._colabs.dot(smax))
        self._s_norm = float(np.linalg.norm(smax))
        self._pos = 0

    def _gradient(self, cur, eta, terms) -> np.ndarray:
        """h = Xᵀ(y − σ(η)) − β/τ² at cur, from its η and log(1 + e^η)."""
        n = eta.shape[0]
        w, sig = self._w, self._w[:n]
        np.subtract(eta, terms, out=sig)
        np.exp(sig, out=sig)
        w[n:] = cur
        return self._xty - self._xta.dot(w)

    def _margin(self, cur_sq: float) -> float:
        """δ: a step with log u ≥ B + δ is provably a rejection.

        B = h·s − |s|²/2τ² bounds the step's exact log ratio L(β + s) −
        L(β) from above: the log likelihood is concave and the prior
        term is exactly quadratic. δ bounds the rounding on both sides
        of that inequality. Write u = 2⁻⁵³, a_k = |β_k|, S_k = the
        block's largest |s_k| and P = a + S, so |prop_k| ≤ P_k(1 + u).
        By Cauchy–Schwarz, with colabs and colmax the column sums and
        maxima of |X|, m = |colabs|·|β| + colabs·S ≥ colabs·P, which
        bounds Σ_i |η_i| and Σ_i Σ_k |x_ik| |prop_k| up to that factor,
        m∞ = |colmax|·|β| ≥ max_i Σ_k |x_ik| a_k and |P| ≤ |β| + |S|.
        Let N = n + r + 8. A dot product or sum of k terms is off by at
        most γ_k = ku/(1 − ku) times the sum of the terms' magnitudes,
        in any order, and NumPy's exp and logaddexp are taken to be
        within a relative 2u and 4u. With every (1 + O(Nu)) factor
        ≤ 1.01:

        - the computed log posterior at β or at the proposal is within
          1.03·N·u·(2m + n·log 2 + |P|²/2τ²) of the true one (η's
          rounding passes through the 1-Lipschitz softplus, and
          Σ softplus(η_i) ≤ n·log 2 + Σ |η_i|); their difference adds
          u·(|lp_prop| + |lp_cur|);
        - coordinate k of the computed h is within Σ_i |x_ik|·(|σ̂_i −
          σ_i| + 2Nu) + 1.01·N·u·a_k/τ² + u·|h_k| of the true gradient,
          where |σ̂_i − σ_i| ≤ 1.01·(r + 8)·u·(1 + m∞) at any |η|: the
          computed and exact log σ = η − log(1 + e^η) are both ≤ 0,
          where exp is 1-Lipschitz;
        - prop − β differs from s by at most u·P_k in coordinate k;
        - forming B and B + δ rounds by at most 1.02·(r + 3)·u·(m +
          2|P|²/τ²) + u·δ, since |h_k| ≤ 1.01·(colabs_k + a_k/τ²).

        Summed, the rounding is below N·u·((8.9 + 1.03·m∞)·m + 1.7·n +
        5.4·|P|²/τ²) + u·δ, and the δ returned is at least 2.5 times
        each term, which also covers the rounding of |β|, the norms and
        δ itself, each within a relative O(ru). It scales with the magnitudes summed, not with the log
        posterior, whose terms cancel on near-separable data while
        their rounding does not.
        """
        a = math.sqrt(cur_sq)
        m = self._colabs_norm * a + self._cs
        p_norm = a + self._s_norm
        return self._unit * (
            (3.0 + self._colmax_norm * a) * m
            + self._n_obs
            + 2.0 * p_norm * p_norm / self._model.tau2
        )

    def _extend(self, n: int) -> None:
        row = self._count
        self._reserve(n)
        if n - 1 > self._flags.shape[0]:
            grown = np.empty(max(n - 1, 2 * self._flags.shape[0]), dtype=bool)
            grown[: row - 1] = self._flags[: row - 1]
            self._flags = grown
        buf, flags = self._buf, self._flags
        x, y = self._model.x, self._model.y
        two_tau2 = 2.0 * self._model.tau2
        logaddexp, add_reduce = np.logaddexp, np.add.reduce
        zeros = np.zeros(x.shape[0])
        eta = np.empty(x.shape[0])
        terms = np.empty(x.shape[0])
        cur, cur_lp, cur_sq = self._cur, self._cur_lp, self._cur_sq
        h, delta = self._grad, self._delta
        # Rows [held, row) all equal cur and are not yet written: a run of
        # rejections costs one slice assignment when it ends, not a row
        # copy per step.
        held = row
        while row < n:
            if self._pos == _BLOCK:
                self._draw_block()
                delta = self._margin(cur_sq)
            pos = self._pos
            stop = min(_BLOCK, pos + n - row)
            steps, log_u, half_sq = self._steps, self._log_u, self._half_sq
            first = row
            # step t makes row t + off
            off = first - pos
            accepted = []
            for t in range(pos, stop):
                # Rejected by the tangent bound (see _margin): skip the
                # likelihood. A NaN bound fails this test and falls through.
                if log_u[t] >= float(h.dot(steps[t])) - half_sq[t] + delta:
                    continue
                # log_posterior_logistic's arithmetic in the same order,
                # without its argument checks; .dot and add.reduce give
                # the bits of @ and .sum() for less call overhead. Its
                # isfinite check cannot fire: a proposal is a finite state
                # (the initial one is checked in __init__) plus a finite
                # step, and the −‖β‖²/2τ² prior term keeps every accepted
                # state near the posterior, far from overflow.
                prop = cur + steps[t]
                x.dot(prop, out=eta)
                prop_sq = float(prop.dot(prop))
                prop_lp = (
                    float(y.dot(eta))
                    - float(add_reduce(logaddexp(zeros, eta, out=terms)))
                ) - prop_sq / two_tau2
                if log_u[t] < prop_lp - cur_lp:
                    buf[held : t + off] = cur
                    cur, cur_lp, cur_sq = prop, prop_lp, prop_sq
                    held = t + off
                    accepted.append(t + off - 1)
                    h = self._gradient(cur, eta, terms)
                    delta = self._margin(cur_sq)
            row = stop + off
            flags[first - 1 : row - 1] = False
            flags[accepted] = True
            self._pos = stop
        buf[held:row] = cur
        self._cur, self._cur_lp, self._cur_sq = cur, cur_lp, cur_sq
        self._grad, self._delta = h, delta
        self._count = row

    def _meta(self, n: int) -> dict:
        steps = n - 1
        if steps < 1:
            return {"acceptance_rate": 0.0}
        return {"acceptance_rate": float(self._flags[:steps].mean())}


class FileChainSource(_BlockSource):
    """Wrap an already materialized chain as a (finite) source.

    The stored rows are the buffer, so rows(n) and take(n) return
    read-only views of them, not copies.
    """

    def __init__(self, chain: ChainMatrix):
        super().__init__(chain.p)
        self._buf = chain.data
        self._count = chain.n
        self._chain_meta = chain.meta

    def _extend(self, n: int) -> None:
        if n > self._count:
            raise InsufficientData(
                f"stored chain has {self._count} rows, {n} requested"
            )

    def _meta(self, n: int) -> dict:
        return dict(self._chain_meta)


def simulate_var1(model: Var1Model, n: int, seed: int) -> ChainMatrix:
    """n rows of the VAR(1) process, stationary start, seed-deterministic."""
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return Var1Source(model, seed).take(n)


def rwm_logistic(
    model: LogisticModel,
    n: int,
    seed: int,
    init: Union[str, np.ndarray] = "prior_draw",
) -> ChainMatrix:
    """n states of the random-walk Metropolis chain, first row = init.

    The returned chain's meta carries the realized acceptance rate.
    """
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    return RwmLogisticSource(model, seed, init=init).take(n)
