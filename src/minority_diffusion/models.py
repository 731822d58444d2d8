"""Score / noise-predictor models.

A model is the one carrier of its noise schedule and of the dimension of
its data: every function that takes a model reads them as model.sched and
model.dim, so neither can disagree with it.

Every model implements only linearize(x, t) -> (eps, vjp), which evaluates
eps once and returns its input pullback as a closure (in the style of
jax.vjp), so a forward pass and the backward pass through it share their
intermediate results. eps(x, t) is its first part, input_vjp(x, t, cotangent)
the pullback applied, and the score is always derived from eps through the
same code path (score = -eps / sqrt(1 - abar_t)) so the two stay consistent
exactly.

Two implementations:
  * GmmScoreModel  - exact score of a perturbed Gaussian mixture, with the
    input Jacobian taken from the analytic Hessian of the log-density;
  * MlpEpsModel    - small fully-connected noise predictor with a sinusoidal
    timestep embedding, trained by denoising score matching. Reverse-mode
    gradients (both parameter and input) are accumulated by hand; the
    network is just affine layers with tanh, so no autodiff engine is needed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import gmm
from .errors import ConfigError, TrainingDivergenceError
from .gmm import GmmSpec
from .schedule import NoiseSchedule, perturb


def eps_to_score(eps: np.ndarray, alpha_bar) -> np.ndarray:
    """score = -eps / sqrt(1 - alpha_bar), alpha_bar a scalar or one per row."""
    c = np.sqrt(1.0 - np.asarray(alpha_bar))
    if np.ndim(c):
        c = c[..., None]
    return -eps / c


class ScoreModel:
    """Behavioral interface binding a noise predictor to a schedule and a data dimension."""

    def __init__(self, sched: NoiseSchedule, dim: int):
        self.sched = sched
        self.dim = dim

    def eps(self, x: np.ndarray, t) -> np.ndarray:
        return self.linearize(x, t)[0]

    def linearize(self, x: np.ndarray, t):
        """(eps(x, t), vjp): eps evaluated once, and its input pullback
        vjp(cotangent) = J_eps(x, t)^T @ cotangent sharing that evaluation."""
        raise NotImplementedError

    def input_vjp(self, x: np.ndarray, t, cotangent: np.ndarray) -> np.ndarray:
        """J_eps(x, t)^T @ cotangent, the pullback of the input Jacobian of eps."""
        return self.linearize(x, t)[1](cotangent)

    def score(self, x: np.ndarray, t) -> np.ndarray:
        return eps_to_score(self.eps(x, t), self.sched.alpha_bar(t))


class GmmScoreModel(ScoreModel):
    """Exact score model for an isotropic Gaussian mixture."""

    def __init__(self, spec: GmmSpec, sched: NoiseSchedule):
        super().__init__(sched, spec.dim)
        self.spec = spec

    def linearize(self, x, t):
        # d eps / dx = -sqrt(1 - abar) * H; H symmetric, so the pullback is a plain product.
        c = np.sqrt(1.0 - self.sched.alpha_bar(t))
        s, hvp = gmm.score_and_hvp(x, self.spec, t, self.sched)
        return -c * s, lambda cot: -c * hvp(cot)


class CallCountingModel(ScoreModel):
    """Wrapper counting forward (linearize, and so eps, score and input_vjp)
    and backward (calls of the pullback linearize returns) invocations, so an
    input_vjp counts one forward and one backward."""

    def __init__(self, inner: ScoreModel):
        super().__init__(inner.sched, inner.dim)
        self.inner = inner
        self.forward_calls = 0
        self.backward_calls = 0

    def linearize(self, x, t):
        self.forward_calls += 1
        eps, vjp = self.inner.linearize(x, t)

        def counted_vjp(cot):
            self.backward_calls += 1
            return vjp(cot)

        return eps, counted_vjp


def sinusoidal_embedding(t, emb_dim: int) -> np.ndarray:
    """Transformer-style sin/cos features of an (integer) timestep."""
    t = np.atleast_1d(np.asarray(t, float))
    half = emb_dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[:, None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # train_dsm's Adam, at Kingma & Ba's defaults


@dataclass
class TrainOptions:
    steps: int = 3000
    batch_size: int = 128
    lr: float = 1e-3

    def __post_init__(self):
        # each message names the train flag that sets the option
        if self.steps < 1:
            raise ConfigError(f"--steps must be >= 1, got {self.steps}")
        if self.batch_size < 1:
            raise ConfigError(f"--batch-size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"--lr must be > 0 and finite, got {self.lr}")


def _mlp_layer_sizes(dim: int, hidden, emb_dim: int) -> list[int]:
    return [dim + emb_dim, *hidden, dim]


class MlpEpsModel(ScoreModel):
    """Noise predictor: MLP on concat(x, time-embedding), tanh activations."""

    def __init__(
        self,
        sched: NoiseSchedule,
        dim: int,
        hidden: tuple[int, ...] = (128, 128),
        emb_dim: int = 16,
        seed: int = 0,
    ):
        super().__init__(sched, dim)
        self.hidden = tuple(hidden)
        self.emb_dim = emb_dim
        self.seed = seed
        self.step_count = 0
        rng = np.random.default_rng(seed)
        # every weight and bias is a view into params, in checkpoint order
        self.params = np.zeros(self.param_count(dim, hidden, emb_dim))
        self.weights, self.biases = self._layer_views(self.params)
        for w in self.weights:
            w[...] = rng.standard_normal(w.shape) * np.sqrt(2.0 / sum(w.shape))
        # free float64 buffers for hidden-layer arrays, keyed by shape; glibc
        # gives freed arrays of this size back to the OS, so fresh ones would
        # page-fault in again on every call of a cold process. _forward's
        # caller owns the activations it returns and gives them back: linearize
        # when its pullback is released, train_dsm after each backward pass.
        self._pool: dict[tuple[int, ...], list[np.ndarray]] = {}

    def _take(self, shape) -> np.ndarray:
        free = self._pool.get(shape)
        return free.pop() if free else np.empty(shape)

    def _give(self, *arrays) -> None:
        for a in arrays:
            self._pool.setdefault(a.shape, []).append(a)

    @staticmethod
    def param_count(dim: int, hidden, emb_dim: int) -> int:
        """Number of parameters (weights and biases) of a network of this shape."""
        sizes = _mlp_layer_sizes(dim, hidden, emb_dim)
        return sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))

    def _layer_views(self, flat: np.ndarray):
        """(weights, biases): per-layer views of a vector laid out like
        params, which is W1, b1, W2, b2, ... with each W (fan_in, fan_out)."""
        weights, biases, pos = [], [], 0
        sizes = _mlp_layer_sizes(self.dim, self.hidden, self.emb_dim)
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            end = pos + fan_in * fan_out
            weights.append(flat[pos:end].reshape(fan_in, fan_out))
            biases.append(flat[end : end + fan_out])
            pos = end + fan_out
        return weights, biases

    def _forward(self, x2d: np.ndarray, t):
        emb = sinusoidal_embedding(t, self.emb_dim)
        if emb.shape[0] == 1 and x2d.shape[0] > 1:
            emb = np.broadcast_to(emb, (x2d.shape[0], self.emb_dim))
        h = np.concatenate([x2d, emb], axis=1)
        acts = [h]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            hidden = i < n_layers - 1  # hidden layers go to pooled buffers
            h = np.matmul(h, w, out=self._take((h.shape[0], w.shape[1])) if hidden else None)
            h += b
            if hidden:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def _backward(self, acts, g, grad=None):
        """Backprop a cotangent g on the output through the forward pass that
        recorded acts; returns the cotangent on the input. grad, if given, is
        a vector shaped like params; each layer's weight and bias gradients
        are written into their views of it. Every hidden-layer array here
        (the 1 - a^2 factor and each cotangent) is taken from the model's
        buffer pool and given back as soon as the next layer has used it; the
        caller's g and the returned input cotangent are never pooled."""
        last = len(self.weights) - 1
        grad_w, grad_b = self._layer_views(grad) if grad is not None else (None, None)
        for i in range(last, -1, -1):
            if i < last:
                # g is a pooled product here, so it is scaled in place
                d = np.square(acts[i + 1], out=self._take(g.shape))
                np.subtract(1.0, d, out=d)
                g *= d
                self._give(d)
            if grad is not None:
                np.matmul(acts[i].T, g, out=grad_w[i])
                np.sum(g, axis=0, out=grad_b[i])
            w = self.weights[i]
            g_in = np.matmul(g, w.T, out=self._take((g.shape[0], w.shape[0])) if i else None)
            if i < last:
                self._give(g)
            g = g_in
        return g

    def linearize(self, x, t):
        """eps and its input pullback, which reuses the forward activations.
        The pullback stays valid for as long as it is held; its hidden
        activations go back to the buffer pool when it is released."""
        x = np.asarray(x, float)
        t = np.asarray(t)
        shape = x.shape
        out, acts = self._forward(x.reshape(-1, shape[-1]), t.reshape(-1) if t.ndim else t)

        def vjp(cotangent):
            g = np.asarray(cotangent, float).reshape(-1, shape[-1])
            return self._backward(acts, g)[:, : self.dim].reshape(shape)

        weakref.finalize(vjp, self._give, *acts[1:-1])
        return out.reshape(shape), vjp


def train_dsm(
    model: MlpEpsModel,
    data: np.ndarray,
    sched: NoiseSchedule,
    opts: TrainOptions,
    rng: np.random.Generator,
) -> list[float]:
    """Fit the noise predictor by denoising score matching with Adam.

    Minimizes the per-batch mean of ||eps - eps_theta(perturb(x0, t, eps),
    t)||^2 with t drawn uniformly from 1..T. Returns the per-step loss
    history. `sched` must be the model's own schedule (same fingerprint),
    which its checkpoint records, else ConfigError. A non-finite loss, or
    non-finite parameters after the last step, raise TrainingDivergenceError.
    """
    if sched.fingerprint() != model.sched.fingerprint():
        raise ConfigError("train_dsm got a noise schedule other than the model's own")
    data = np.atleast_2d(np.asarray(data, float))
    if data.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    grad = np.empty_like(model.params)
    m = np.zeros_like(model.params)
    v = np.zeros_like(model.params)
    history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(opts.steps):
            idx = rng.integers(0, data.shape[0], size=opts.batch_size)
            x0 = data[idx]
            t = rng.integers(1, sched.T + 1, size=opts.batch_size)
            noise = rng.standard_normal(x0.shape)
            xt = perturb(x0, t, noise, sched)
            pred, acts = model._forward(xt, t)
            resid = pred - noise
            loss = float(np.sum(resid * resid) / opts.batch_size)
            if not np.isfinite(loss):
                raise TrainingDivergenceError(step)
            history.append(loss)
            model._backward(acts, 2.0 * resid / opts.batch_size, grad)
            model._give(*acts[1:-1])
            model.step_count += 1
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            mhat = m / (1.0 - ADAM_BETA1 ** (step + 1))  # bias correction tracks this call's Adam state
            vhat = v / (1.0 - ADAM_BETA2 ** (step + 1))
            model.params -= opts.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    if not np.isfinite(model.params).all():  # the loss check never sees the last update
        raise TrainingDivergenceError(step, f"non-finite parameters after training step {step}")
    return history
