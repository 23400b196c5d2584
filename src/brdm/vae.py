"""A small variational autoencoder over scalar actions, trained by hand.

The encoder maps an action to a diagonal Gaussian over the latent space
(linear mean head, rectified variance head with a small floor so the KL
stays finite); the decoder maps a latent back to an action mean squashed
into (0, 1) with a fixed output variance. Both nets have one ReLU
hidden layer. Training ascends the single-noise-sample bound

    elbo = -(a - decode(z))^2 / (2 sigma^2) - KL(N(mu, var) || N(0, I)),
    z = mu + sqrt(var) * xi,  xi ~ N(0, I),

with plain gradient ascent; the step size is an argument of
:func:`train_step`, not a property of the prior. The constant Gaussian
log-normalizer is dropped from the reconstruction term. Gradients are exact
for this objective (reparameterization path included), which keeps them
checkable against finite differences. The terms of an :class:`ElboReport`
are computed only when they are read.

A trained prior generates actions by decoding latents drawn from N(0, I).

A prior's ten parameter arrays are views into one flat vector, and its
gradients are views into one flat buffer, so a training step is one vector
update. The priors of a decision system share one parameter bank: their
vectors are the rows of one (P, K) array, and a ``VaePrior`` built on the
whole bank is a stack of the P priors that decodes a latent batch for each
of them in one pass. Training writes the bank in place: one writer at a
time; read-only sampling is safe between training steps.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Floor for the rectified variance head; a hard zero would make the KL blow up.
VAR_FLOOR = 1e-6

# the passes' constants as 0-d arrays, which numpy takes on its fast path;
# a Python float is converted to an array on every call
_ZERO, _HALF, _ONE, _TWO, _FLOOR = (np.array(v) for v in (0.0, 0.5, 1.0, 2.0, VAR_FLOOR))


@dataclass(frozen=True)
class VaeArch:
    """Layer sizes and the fixed decoder variance; the action is one float."""

    hidden_dim: int = 16
    latent_dim: int = 2
    decoder_variance: float = 0.01

    def __post_init__(self):
        if min(self.hidden_dim, self.latent_dim) < 1:
            raise ValueError("all dimensions must be >= 1")
        if not 0.0 < self.decoder_variance < math.inf:
            raise ValueError("decoder_variance must be positive and finite")


def _shapes(arch: VaeArch) -> dict[str, tuple[int, ...]]:
    """Shape of each parameter array, in the order they lie in the flat vector."""
    h, lat = arch.hidden_dim, arch.latent_dim
    return {
        "enc_w1": (h, 1),
        "enc_b1": (h,),
        "enc_wmu": (lat, h),
        "enc_bmu": (lat,),
        "enc_wvar": (lat, h),
        "enc_bvar": (lat,),
        "dec_w1": (h, lat),
        "dec_b1": (h,),
        "dec_wout": (1, h),
        "dec_bout": (1,),
    }


def param_count(arch: VaeArch) -> int:
    """Length K of one prior's flat parameter vector."""
    return sum(math.prod(shape) for shape in _shapes(arch).values())


def _views(arch: VaeArch, flat: np.ndarray) -> dict[str, np.ndarray]:
    """Named views of the last axis of ``flat``; leading axes (a stack) are kept."""
    lead = flat.shape[:-1]
    views, start = {}, 0
    for name, shape in _shapes(arch).items():
        stop = start + math.prod(shape)
        views[name] = flat[..., start:stop].reshape(*lead, *shape)
        start = stop
    return views


@dataclass(eq=False)
class VaePrior:
    """Encoder/decoder weights acting as a sampleable prior over actions.

    ``params`` holds named C-contiguous views into ``flat``, and ``grads``
    the same views into ``grad``, which :func:`elbo_gradients` fills. With a
    ``flat`` of shape (P, K) every view gains a leading axis of length P:
    the object is then a stack of P priors, used for decoding only.
    ``operands`` holds the views the passes take, bound once: weights as
    (in, out), biases as rows; ``work`` holds a training step's buffers.
    """

    arch: VaeArch
    flat: np.ndarray
    train_steps: int = 0
    params: dict[str, np.ndarray] = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    grads: dict[str, np.ndarray] = field(init=False, repr=False)
    operands: dict[str, np.ndarray] = field(init=False, repr=False)
    work: _Workspace | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape[-1:] != (param_count(self.arch),):
            raise ValueError(f"flat parameters must end in an axis of {param_count(self.arch)}")
        self.params = p = _views(self.arch, self.flat)
        self.grad = np.empty_like(self.flat)
        self.grads = _views(self.arch, self.grad)
        self.operands = {
            name: view.swapaxes(-1, -2) if "_w" in name else view[..., None, :]
            for name, view in p.items()
        }


class _Workspace:
    """A prior's training-step buffers for batches of ``n``, with the transposes the step takes."""

    def __init__(self, arch: VaeArch, n: int):
        h, lat = arch.hidden_dim, arch.latent_dim
        self.shape, self.scale = (n, 1), np.array(1.0 / n)
        self.sigma2 = np.array(arch.decoder_variance)
        (self.he_pre, self.he, self.hd_pre, self.hd, self.relu_mask,
         self.d_hd_pre, self.d_he_pre, self.d_he_var) = np.empty((8, n, h))
        (self.var_pre, self.xi, self.sd, self.z, self.var_mask,
         self.d_z, self.d_mu, self.d_var, self.kl_term) = np.empty((9, n, lat))
        self.out_pre, self.out, self.d_out_pre, self.one_minus_out = np.empty((4, n, 1))
        self.step = np.empty(param_count(arch))
        self.d_out_pre_t, self.d_hd_pre_t, self.d_mu_t, self.d_var_t, self.d_he_pre_t = (
            self.d_out_pre.T, self.d_hd_pre.T, self.d_mu.T, self.d_var.T, self.d_he_pre.T)


def _workspace(prior: VaePrior, batch: np.ndarray) -> _Workspace:
    """The prior's buffers for ``batch``, which must be (n, 1) with n >= 1."""
    work = prior.work
    if work is None or batch.shape != work.shape:
        if batch.ndim != 2 or batch.shape[1] != 1 or batch.shape[0] < 1:
            raise ValueError(f"batch must have shape (n, 1) with n >= 1, got {batch.shape}")
        work = prior.work = _Workspace(prior.arch, batch.shape[0])
    return work


@dataclass(eq=False)
class ElboReport:
    """Batch-mean reconstruction term, KL term, and their difference.

    Holds the residual ``batch - decode(z)``, the posterior means and
    variances, and the decoder variance, and computes each term when it is
    first read. No later training step overwrites these arrays, so a report
    read late still describes its step.
    """

    resid: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    sigma2: float

    @functools.cached_property
    def reconstruction(self) -> float:
        n = self.resid.shape[0]
        return float((-(self.resid**2).sum(axis=1) / (2.0 * self.sigma2)).sum()) / n

    @functools.cached_property
    def kl(self) -> float:
        mu, var = self.mu, self.var
        kl_terms = 0.5 * (mu * mu + var - np.log(var) - 1.0).sum(axis=1)
        return max(float(kl_terms.sum()) / self.resid.shape[0], 0.0)

    @property
    def elbo(self) -> float:
        return self.reconstruction - self.kl


def init_vae(
    arch: VaeArch, rng: np.random.Generator, flat: np.ndarray | None = None
) -> VaePrior:
    """Random small weights, zero biases except a unit variance-head bias.

    Starting the variance head near 1 keeps it off the ReLU floor, where the
    KL gradient could not reach it. The weights are written into ``flat``
    (for example one row of a parameter bank) when it is given.
    """
    h, lat = arch.hidden_dim, arch.latent_dim
    prior = zero_vae(arch, flat)
    p = prior.params
    p["enc_w1"][...] = rng.normal(0.0, 1.0, size=(h, 1))
    p["enc_wmu"][...] = rng.normal(0.0, 1.0 / math.sqrt(h), size=(lat, h))
    p["enc_wvar"][...] = rng.normal(0.0, 1.0 / math.sqrt(h), size=(lat, h))
    p["enc_bvar"][...] = 1.0
    p["dec_w1"][...] = rng.normal(0.0, 1.0 / math.sqrt(lat), size=(h, lat))
    p["dec_wout"][...] = rng.normal(0.0, 1.0 / math.sqrt(h), size=(1, h))
    return prior


def zero_vae(arch: VaeArch, flat: np.ndarray | None = None) -> VaePrior:
    """All-zero weights; encodes to (0, floor) and decodes everything to 0.5."""
    if flat is None:
        flat = np.zeros(param_count(arch))
    else:
        flat[...] = 0.0
    return VaePrior(arch=arch, flat=flat)


def _sigmoid(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """Logistic of ``x`` into ``out``. Without buffers each step makes a new array, which
    for a 1-element array costs half as much as numpy's in-place operation."""
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without a branch;
    # neither exponent is positive, so neither exp can overflow
    num = np.exp(np.minimum(x, _ZERO, out=out), out=out)
    den = np.exp(np.negative(np.abs(x, out=scratch), out=scratch), out=scratch)
    return np.divide(num, np.add(_ONE, den, out=scratch), out=out)


def _encode_batch(prior: VaePrior, batch: np.ndarray, he_pre=None, he=None, var_pre=None):
    """Encoder pass over actions (n, 1), into the buffers given; ``mu`` and ``var`` are new.

    The first layer has one input: its broadcast product rounds as a matrix product would.
    """
    w = prior.operands
    he_pre = np.add(np.multiply(batch, w["enc_w1"], out=he_pre), w["enc_b1"], out=he_pre)
    he = np.maximum(he_pre, _ZERO, out=he)
    mu = np.add(he @ w["enc_wmu"], w["enc_bmu"])
    var_pre = np.add(np.matmul(he, w["enc_wvar"], out=var_pre), w["enc_bvar"], out=var_pre)
    var = np.maximum(var_pre, _ZERO)
    return he_pre, he, mu, var_pre, np.add(var, _FLOOR, out=var)


def _decode_batch(prior: VaePrior, z: np.ndarray, hd_pre=None, hd=None, out_pre=None, out=None):
    """Decoder pass over latents (n, latent), into the buffers given; ``out_pre`` ends as scratch.

    A stack of P priors takes (P, n, latent).
    """
    w = prior.operands
    hd_pre = np.add(np.matmul(z, w["dec_w1"], out=hd_pre), w["dec_b1"], out=hd_pre)
    hd = np.maximum(hd_pre, _ZERO, out=hd)
    pre = np.add(np.matmul(hd, w["dec_wout"], out=out_pre), w["dec_bout"], out=out_pre)
    return hd_pre, hd, _sigmoid(pre, out, out_pre)


def encode(prior: VaePrior, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior parameters (mean, diagonal variance) for one action."""
    _, _, mu, _, var = _encode_batch(prior, np.asarray(a, dtype=float)[None, :])
    return mu[0], var[0]


def kl_to_standard_normal(mu: np.ndarray, var: np.ndarray) -> float:
    """Closed-form KL(N(mu, diag var) || N(0, I)) in nats."""
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    if (var <= 0.0).any():
        raise ValueError("variances must be positive")
    kl = 0.5 * float(np.sum(mu * mu + var - np.log(var) - 1.0))
    return max(kl, 0.0)


def elbo_given_noise(
    prior: VaePrior, batch: np.ndarray, xi: np.ndarray
) -> ElboReport:
    """Single-sample bound with the noise draws supplied by the caller."""
    batch = np.asarray(batch, dtype=float)
    _, _, mu, _, var = _encode_batch(prior, batch)
    z = mu + np.sqrt(var) * xi
    _, _, out = _decode_batch(prior, z)
    return ElboReport(batch - out, mu, var, prior.arch.decoder_variance)


def elbo_gradients(
    prior: VaePrior, batch: np.ndarray, xi: np.ndarray
) -> tuple[ElboReport, dict[str, np.ndarray]]:
    """Value and exact ascent gradients of the fixed-noise bound.

    Backpropagates the reconstruction term through the decoder and the
    reparameterized z into the encoder, and adds the closed-form KL
    gradients d/dmu = mu, d/dvar = (1 - 1/var) / 2 on the encoder heads.
    The ReLU masks (pre-activation > 0) multiply as 1.0 or 0.0. The
    gradients are written into ``prior.grad`` and returned as its named
    views ``prior.grads``, which the next call overwrites, and every other
    batch-sized term except the report's into ``prior.work``. A ``batch``
    that is not (n, 1) with n >= 1 raises ValueError before any write.
    """
    p, g = prior.params, prior.grads
    batch = np.asarray(batch, dtype=float)
    w = _workspace(prior, batch)

    he_pre, he, mu, var_pre, var = _encode_batch(prior, batch, w.he_pre, w.he, w.var_pre)
    sd = np.sqrt(var, out=w.sd)
    z = np.add(mu, np.multiply(sd, xi, out=w.z), out=w.z)
    hd_pre, hd, out = _decode_batch(prior, z, w.hd_pre, w.hd, w.out_pre, w.out)
    resid = batch - out

    d_out_pre = np.multiply(np.divide(resid, w.sigma2, out=w.d_out_pre), w.scale, out=w.d_out_pre)
    d_out_pre *= out
    d_out_pre *= np.subtract(_ONE, out, out=w.one_minus_out)
    np.matmul(w.d_out_pre_t, hd, out=g["dec_wout"])
    np.add.reduce(d_out_pre, 0, out=g["dec_bout"])
    # one output unit: the product with dec_wout is a broadcast, as in the encoder's first layer
    d_hd_pre = np.multiply(d_out_pre, p["dec_wout"], out=w.d_hd_pre)
    d_hd_pre *= np.greater(hd_pre, _ZERO, out=w.relu_mask)
    np.matmul(w.d_hd_pre_t, z, out=g["dec_w1"])
    np.add.reduce(d_hd_pre, 0, out=g["dec_b1"])

    d_z = np.matmul(d_hd_pre, p["dec_w1"], out=w.d_z)
    d_mu = np.subtract(d_z, np.multiply(mu, w.scale, out=w.d_mu), out=w.d_mu)
    d_var = np.multiply(d_z, xi, out=w.d_var)
    d_var /= np.multiply(_TWO, sd, out=sd)
    kl_term = np.subtract(_ONE, np.divide(_ONE, var, out=w.kl_term), out=w.kl_term)
    kl_term *= _HALF
    kl_term *= w.scale
    d_var -= kl_term
    d_var *= np.greater(var_pre, _ZERO, out=w.var_mask)

    np.matmul(w.d_mu_t, he, out=g["enc_wmu"])
    np.add.reduce(d_mu, 0, out=g["enc_bmu"])
    np.matmul(w.d_var_t, he, out=g["enc_wvar"])
    np.add.reduce(d_var, 0, out=g["enc_bvar"])

    d_he_pre = np.matmul(d_mu, p["enc_wmu"], out=w.d_he_pre)
    d_he_pre += np.matmul(d_var, p["enc_wvar"], out=w.d_he_var)
    d_he_pre *= np.greater(he_pre, _ZERO, out=w.relu_mask)
    np.matmul(w.d_he_pre_t, batch, out=g["enc_w1"])
    np.add.reduce(d_he_pre, 0, out=g["enc_b1"])
    return ElboReport(resid, mu, var, prior.arch.decoder_variance), g


def train_step(
    prior: VaePrior, batch: np.ndarray, step_size: float, rng: np.random.Generator
) -> ElboReport:
    """One gradient ascent update of size ``step_size`` on a fresh single-noise bound."""
    w = _workspace(prior, np.asarray(batch, dtype=float))
    report, _ = elbo_gradients(prior, batch, rng.standard_normal(out=w.xi))
    if step_size != 0.0:
        prior.flat += np.multiply(step_size, prior.grad, out=w.step)
    prior.train_steps += 1
    return report


def sample_action(prior: VaePrior, rng: np.random.Generator) -> float:
    """Decode one latent drawn from N(0, I); always inside (0, 1)."""
    return float(sample_actions(prior, 1, rng)[0, 0])


def sample_actions(prior: VaePrior, n: int, rng: np.random.Generator) -> np.ndarray:
    """Decode ``n`` latents drawn from N(0, I) per prior.

    Returns shape (n, 1), or (P, n, 1) for a stack of P priors, whose
    latents are one (P, n, latent_dim) draw: the same numbers, and the same
    generator state after, as P draws of (n, latent_dim).
    """
    z = rng.standard_normal((*prior.flat.shape[:-1], n, prior.arch.latent_dim))
    return _decode_batch(prior, z)[2]
