"""Score / noise-predictor models.

Every model implements eps(x, t) and linearize(x, t) -> (eps, vjp), which
evaluates eps once and returns its input pullback as a closure (in the style
of jax.vjp), so a forward pass and the backward pass through it share their
intermediate results; input_vjp(x, t, cotangent) is that pullback applied.
The score is always derived from eps through the same code path
(score = -eps / sqrt(1 - abar_t)) so the two stay consistent exactly.

Two implementations:
  * GmmScoreModel  - exact score of a perturbed Gaussian mixture, with the
    input Jacobian taken from the analytic Hessian of the log-density;
  * MlpEpsModel    - small fully-connected noise predictor with a sinusoidal
    timestep embedding, trained by denoising score matching. Reverse-mode
    gradients (both parameter and input) are accumulated by hand; the
    network is just affine layers with tanh, so no autodiff engine is needed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gmm
from .errors import TrainingDivergenceError
from .gmm import GmmSpec
from .schedule import NoiseSchedule


def eps_to_score(eps: np.ndarray, alpha_bar) -> np.ndarray:
    """score = -eps / sqrt(1 - alpha_bar), alpha_bar a scalar or one per row."""
    c = np.sqrt(1.0 - np.asarray(alpha_bar))
    if np.ndim(c):
        c = c[..., None]
    return -eps / c


class ScoreModel:
    """Behavioral interface binding a noise predictor to a schedule."""

    def __init__(self, sched: NoiseSchedule):
        self.sched = sched

    def eps(self, x: np.ndarray, t) -> np.ndarray:
        raise NotImplementedError

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
        super().__init__(sched)
        self.spec = spec

    def eps(self, x, t):
        c = np.sqrt(1.0 - self.sched.alpha_bar(t))
        return -c * gmm.score(x, self.spec, t, self.sched)

    def linearize(self, x, t):
        # d eps / dx = -sqrt(1 - abar) * H; H symmetric, so the pullback is a plain product.
        c = np.sqrt(1.0 - self.sched.alpha_bar(t))
        s, hvp = gmm.score_and_hvp(x, self.spec, t, self.sched)
        return -c * s, lambda cot: -c * hvp(cot)


class CallCountingModel(ScoreModel):
    """Wrapper counting forward (eps, linearize) and backward (input_vjp, the
    pullback returned by linearize) invocations."""

    def __init__(self, inner: ScoreModel):
        super().__init__(inner.sched)
        self.inner = inner
        self.forward_calls = 0
        self.backward_calls = 0

    def eps(self, x, t):
        self.forward_calls += 1
        return self.inner.eps(x, t)

    def input_vjp(self, x, t, cotangent):
        self.backward_calls += 1
        return self.inner.input_vjp(x, t, cotangent)

    def linearize(self, x, t):
        self.forward_calls += 1
        eps, vjp = self.inner.linearize(x, t)

        def counted_vjp(cot):
            self.backward_calls += 1
            return vjp(cot)

        return eps, counted_vjp

    def reset(self):
        self.forward_calls = 0
        self.backward_calls = 0


def sinusoidal_embedding(t, emb_dim: int) -> np.ndarray:
    """Transformer-style sin/cos features of an (integer) timestep."""
    t = np.atleast_1d(np.asarray(t, float))
    half = emb_dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    ang = t[:, None] * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)], axis=1)


@dataclass
class TrainOptions:
    steps: int = 3000
    batch_size: int = 128
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8


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
        super().__init__(sched)
        self.dim = dim
        self.hidden = tuple(hidden)
        self.emb_dim = emb_dim
        self.seed = seed
        self.step_count = 0
        self.loss_history: list[float] = []
        rng = np.random.default_rng(seed)
        sizes = _mlp_layer_sizes(dim, hidden, emb_dim)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            self.weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
            self.biases.append(np.zeros(fan_out))

    @property
    def layer_sizes(self) -> list[int]:
        return _mlp_layer_sizes(self.dim, self.hidden, self.emb_dim)

    @staticmethod
    def param_count(dim: int, hidden, emb_dim: int) -> int:
        """Number of parameters (weights and biases) of a network of this shape."""
        sizes = _mlp_layer_sizes(dim, hidden, emb_dim)
        return sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))

    def parameters(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    def _forward(self, x2d: np.ndarray, t):
        emb = sinusoidal_embedding(t, self.emb_dim)
        if emb.shape[0] == 1 and x2d.shape[0] > 1:
            emb = np.broadcast_to(emb, (x2d.shape[0], self.emb_dim))
        h = np.concatenate([x2d, emb], axis=1)
        acts = [h]
        n_layers = len(self.weights)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            # in place on the fresh product: fewer large temporaries, same values
            h = h @ w
            h += b
            if i < n_layers - 1:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def _forward_nd(self, x, t):
        """_forward on x of any leading shape: (eps, activations, x.shape)."""
        x = np.asarray(x, float)
        t = np.asarray(t)
        out, acts = self._forward(x.reshape(-1, x.shape[-1]), t.reshape(-1) if t.ndim else t)
        return out.reshape(x.shape), acts, x.shape

    def eps(self, x, t):
        return self._forward_nd(x, t)[0]

    def _backward(self, acts, cot_out):
        """Backprop a cotangent on the output; returns (input grad, param grads)."""
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.weights)
        g = cot_out
        for i in range(len(self.weights) - 1, -1, -1):
            if i < len(self.weights) - 1:
                g = g * (1.0 - acts[i + 1] ** 2)
            grads_w[i] = acts[i].T @ g
            grads_b[i] = g.sum(axis=0)
            g = g @ self.weights[i].T
        return g, grads_w, grads_b

    def linearize(self, x, t):
        """eps and its input pullback; the pullback reuses the forward
        activations and back-propagates to the input only, the same steps
        as _backward without the parameter gradients."""
        out, acts, shape = self._forward_nd(x, t)

        def vjp(cotangent):
            g = np.asarray(cotangent, float).reshape(-1, shape[-1])
            for i in range(len(self.weights) - 1, -1, -1):
                if i < len(self.weights) - 1:
                    # g is a fresh product here, so it is scaled in place
                    d = np.square(acts[i + 1])
                    np.subtract(1.0, d, out=d)
                    g *= d
                g = g @ self.weights[i].T
            return g[:, : self.dim].reshape(shape)

        return out, vjp


def train_dsm(
    model: MlpEpsModel,
    data: np.ndarray,
    sched: NoiseSchedule,
    opts: TrainOptions,
    rng: np.random.Generator,
) -> list[float]:
    """Fit the noise predictor by denoising score matching with Adam.

    Minimizes the per-batch mean of ||eps - eps_theta(sqrt(abar_t) x0 +
    sqrt(1-abar_t) eps, t)||^2 with t drawn uniformly from 1..T. Returns the
    per-step loss history (also appended onto the model).
    """
    data = np.atleast_2d(np.asarray(data, float))
    if data.shape[0] == 0:
        raise ValueError("training data must be non-empty")
    params = model.parameters()
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    history = []
    for step in range(opts.steps):
        idx = rng.integers(0, data.shape[0], size=opts.batch_size)
        x0 = data[idx]
        t = rng.integers(1, sched.T + 1, size=opts.batch_size)
        ab = sched.alpha_bar(t)[:, None]
        noise = rng.standard_normal(x0.shape)
        xt = np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * noise
        pred, acts = model._forward(xt, t)
        resid = pred - noise
        loss = float(np.sum(resid * resid) / opts.batch_size)
        if not np.isfinite(loss):
            raise TrainingDivergenceError(step)
        history.append(loss)
        _, gw, gb = model._backward(acts, 2.0 * resid / opts.batch_size)
        grads = []
        for a, b in zip(gw, gb):
            grads.extend([a, b])
        model.step_count += 1
        k = step + 1  # bias correction tracks this call's Adam state
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= opts.beta1
            mi += (1.0 - opts.beta1) * g
            vi *= opts.beta2
            vi += (1.0 - opts.beta2) * g * g
            mhat = mi / (1.0 - opts.beta1**k)
            vhat = vi / (1.0 - opts.beta2**k)
            p -= opts.lr * mhat / (np.sqrt(vhat) + opts.adam_eps)
    model.loss_history.extend(history)
    return history
