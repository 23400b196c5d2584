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
    """

    arch: VaeArch
    flat: np.ndarray
    train_steps: int = 0
    params: dict[str, np.ndarray] = field(init=False, repr=False)
    grad: np.ndarray = field(init=False, repr=False)
    grads: dict[str, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape[-1:] != (param_count(self.arch),):
            raise ValueError(f"flat parameters must end in an axis of {param_count(self.arch)}")
        self.params = _views(self.arch, self.flat)
        self.grad = np.empty_like(self.flat)
        self.grads = _views(self.arch, self.grad)


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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without a branch;
    # neither exponent is positive, so neither exp can overflow
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def _encode_batch(prior: VaePrior, batch: np.ndarray):
    p = prior.params
    he_pre = batch @ p["enc_w1"].T + p["enc_b1"]
    he = np.maximum(he_pre, 0.0)
    mu = he @ p["enc_wmu"].T + p["enc_bmu"]
    var_pre = he @ p["enc_wvar"].T + p["enc_bvar"]
    var = np.maximum(var_pre, 0.0) + VAR_FLOOR
    return he_pre, he, mu, var_pre, var


def _decode_batch(prior: VaePrior, z: np.ndarray):
    """Decoder pass over latents (n, latent); a stack of P priors takes (P, n, latent)."""
    p = prior.params
    hd_pre = z @ p["dec_w1"].swapaxes(-1, -2) + p["dec_b1"][..., None, :]
    hd = np.maximum(hd_pre, 0.0)
    out = _sigmoid(hd @ p["dec_wout"].swapaxes(-1, -2) + p["dec_bout"][..., None, :])
    return hd_pre, hd, out


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
    views ``prior.grads``, which the next call overwrites.
    """
    p, g = prior.params, prior.grads
    sigma2 = prior.arch.decoder_variance
    batch = np.asarray(batch, dtype=float)

    he_pre, he, mu, var_pre, var = _encode_batch(prior, batch)
    sd = np.sqrt(var)
    z = mu + sd * xi
    hd_pre, hd, out = _decode_batch(prior, z)
    resid = batch - out

    scale = 1.0 / batch.shape[0]
    d_out_pre = (resid / sigma2 * scale) * out * (1.0 - out)
    np.matmul(d_out_pre.T, hd, out=g["dec_wout"])
    d_out_pre.sum(axis=0, out=g["dec_bout"])
    d_hd_pre = (d_out_pre @ p["dec_wout"]) * (hd_pre > 0.0)
    np.matmul(d_hd_pre.T, z, out=g["dec_w1"])
    d_hd_pre.sum(axis=0, out=g["dec_b1"])

    d_z = d_hd_pre @ p["dec_w1"]
    d_mu = d_z - mu * scale
    d_var = d_z * xi / (2.0 * sd) - 0.5 * (1.0 - 1.0 / var) * scale
    d_var_pre = d_var * (var_pre > 0.0)

    np.matmul(d_mu.T, he, out=g["enc_wmu"])
    d_mu.sum(axis=0, out=g["enc_bmu"])
    np.matmul(d_var_pre.T, he, out=g["enc_wvar"])
    d_var_pre.sum(axis=0, out=g["enc_bvar"])

    d_he_pre = (d_mu @ p["enc_wmu"] + d_var_pre @ p["enc_wvar"]) * (he_pre > 0.0)
    np.matmul(d_he_pre.T, batch, out=g["enc_w1"])
    d_he_pre.sum(axis=0, out=g["enc_b1"])
    return ElboReport(resid, mu, var, sigma2), g


def train_step(
    prior: VaePrior, batch: np.ndarray, step_size: float, rng: np.random.Generator
) -> ElboReport:
    """One gradient ascent update of size ``step_size`` on a fresh single-noise bound."""
    xi = rng.standard_normal((len(batch), prior.arch.latent_dim))
    report, _ = elbo_gradients(prior, batch, xi)
    if step_size != 0.0:
        prior.flat += step_size * prior.grad
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
