import math

import numpy as np
import pytest

from brdm.core import make_rng
from brdm.vae import (
    VAR_FLOOR,
    VaeArch,
    VaePrior,
    elbo_given_noise,
    elbo_gradients,
    encode,
    init_vae,
    kl_to_standard_normal,
    param_count,
    sample_action,
    sample_actions,
    train_step,
    zero_vae,
    _decode_batch,
    _encode_batch,
)


# The hidden layers are ReLU only; the marked tests name that in their ids,
# which keeps the ids they had while a sigmoid variant ran beside them.
relu_ids = pytest.mark.parametrize("activation", ["relu"])


def test_encode_zero_weights():
    prior = zero_vae(VaeArch())
    mu, var = encode(prior, np.array([0.5]))
    assert np.array_equal(mu, np.zeros(2))
    assert np.allclose(var, VAR_FLOOR)


def test_encode_frozen_fixture():
    prior = init_vae(VaeArch(), make_rng(5))
    mu, var = encode(prior, np.array([0.5]))
    assert np.allclose(
        mu, [-0.034787166785225226, 0.0011837644337829717], atol=1e-12
    )
    assert np.allclose(var, [1.515016874306154, 0.7118446881344005], atol=1e-12)


def test_encode_finite_on_grid_sweep():
    prior = init_vae(VaeArch(), make_rng(8))
    for a in np.linspace(0.0, 1.0, 101):
        mu, var = encode(prior, np.array([a]))
        assert np.isfinite(mu).all() and np.isfinite(var).all()
        assert (var > 0).all()


def test_decode_zero_weights_gives_center():
    prior = zero_vae(VaeArch())
    rng = make_rng(3)
    for _ in range(20):
        assert np.allclose(sample_action(prior, rng), 0.5)


def test_decode_deterministic_and_frozen_fixture():
    prior = init_vae(VaeArch(), make_rng(5))
    out1 = sample_action(prior, make_rng(9))
    out2 = sample_action(prior, make_rng(9))
    assert type(out1) is float and out1 == out2
    assert out1 == pytest.approx(0.49226589167728824, abs=1e-12)
    assert 0.0 < out1 < 1.0
    # the decoded latent is the generator's first latent_dim standard normals
    z = make_rng(9).standard_normal((1, 2))
    _, _, ref = _reference_decode_batch({k: v.copy() for k, v in prior.params.items()}, z)
    assert out1 == float(ref[0, 0])


def test_kl_closed_form_values():
    assert kl_to_standard_normal(np.zeros(2), np.ones(2)) == 0.0
    assert kl_to_standard_normal(np.array([1.0]), np.array([1.0])) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        kl_to_standard_normal(np.array([0.0]), np.array([0.0]))


def test_kl_nonnegative_over_random_pairs():
    rng = make_rng(10)
    for _ in range(10_000):
        mu = rng.normal(0.0, 2.0, size=3)
        var = rng.uniform(1e-4, 5.0, size=3)
        assert kl_to_standard_normal(mu, var) >= 0.0


def test_kl_matches_monte_carlo():
    rng = make_rng(123)
    mu = np.array([0.4, -1.1])
    var = np.array([0.6, 2.3])
    closed = kl_to_standard_normal(mu, var)
    z = mu + np.sqrt(var) * rng.standard_normal((1_000_000, 2))
    logq = -0.5 * (((z - mu) ** 2) / var + np.log(2 * np.pi * var)).sum(axis=1)
    logp = -0.5 * (z**2 + np.log(2 * np.pi)).sum(axis=1)
    diffs = logq - logp
    se = diffs.std(ddof=1) / math.sqrt(len(diffs))
    assert abs(closed - diffs.mean()) <= 3.0 * se


def test_elbo_perfect_autoencoding_fixture():
    # zero weights with a variance-head bias of exactly 1 - floor: the encoder
    # is N(0, I), the decoder maps everything to 0.5, and inputs at 0.5
    # reconstruct exactly
    prior = zero_vae(VaeArch())
    prior.params["enc_bvar"] += 1.0 - VAR_FLOOR
    batch = np.full((8, 1), 0.5)
    xi = make_rng(0).standard_normal((8, prior.arch.latent_dim))
    report = elbo_given_noise(prior, batch, xi)
    assert report.reconstruction == 0.0
    assert report.kl == 0.0
    assert report.elbo == 0.0


def test_elbo_never_exceeds_reconstruction():
    rng = make_rng(11)
    prior = init_vae(VaeArch(), rng)
    for _ in range(20):
        batch = rng.uniform(0.05, 0.95, size=(6, 1))
        report = elbo_given_noise(prior, batch, rng.standard_normal((6, prior.arch.latent_dim)))
        assert report.elbo <= report.reconstruction
        assert report.kl >= 0.0


def test_elbo_deterministic_given_seed():
    prior = init_vae(VaeArch(), make_rng(12))
    batch = np.array([[0.2], [0.6], [0.9]])
    shape = (batch.shape[0], prior.arch.latent_dim)
    r1 = elbo_given_noise(prior, batch, make_rng(99).standard_normal(shape))
    r2 = elbo_given_noise(prior, batch, make_rng(99).standard_normal(shape))
    assert (r1.reconstruction, r1.kl, r1.elbo) == (r2.reconstruction, r2.kl, r2.elbo)


@relu_ids
def test_gradient_check_against_finite_differences(activation):
    arch = VaeArch()
    rng = make_rng(5)
    prior = init_vae(arch, rng)
    batch = rng.uniform(0.1, 0.9, size=(4, 1))
    xi = rng.standard_normal((4, arch.latent_dim))

    # fixture sanity: pre-activations stay clear of the ReLU kinks so central
    # differences at h=1e-5 are valid
    he_pre, _, mu, var_pre, var = _encode_batch(prior, batch)
    z = mu + np.sqrt(var) * xi
    hd_pre, _, _ = _decode_batch(prior, z)
    margin = min(np.abs(he_pre).min(), np.abs(var_pre).min(), np.abs(hd_pre).min())
    assert margin > 1e-3

    h = 1e-5
    _, grads = elbo_gradients(prior, batch, xi)
    for name, grad in grads.items():
        arr = prior.params[name]
        flat = arr.ravel()
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + h
            up = elbo_given_noise(prior, batch, xi).elbo
            flat[i] = old - h
            down = elbo_given_noise(prior, batch, xi).elbo
            flat[i] = old
            fd[i] = (up - down) / (2.0 * h)
        rel = np.abs(grad.ravel() - fd) / np.maximum(
            np.maximum(np.abs(grad.ravel()), np.abs(fd)), 1e-6
        )
        assert rel.max() < 1e-4, f"{name}: worst rel err {rel.max():.2e}"


# The training step and decoder as they were written before the parameters
# became views into one flat vector, kept (on a dict of separate arrays) as
# the reference for bit-identity.
def _reference_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _reference_encode_batch(p, batch):
    he_pre = batch @ p["enc_w1"].T + p["enc_b1"]
    he = np.maximum(he_pre, 0.0)
    mu = he @ p["enc_wmu"].T + p["enc_bmu"]
    var_pre = he @ p["enc_wvar"].T + p["enc_bvar"]
    var = np.maximum(var_pre, 0.0) + VAR_FLOOR
    return he_pre, he, mu, var_pre, var


def _reference_decode_batch(p, z):
    hd_pre = z @ p["dec_w1"].T + p["dec_b1"]
    hd = np.maximum(hd_pre, 0.0)
    out = _reference_sigmoid(hd @ p["dec_wout"].T + p["dec_bout"])
    return hd_pre, hd, out


def _reference_elbo_gradients(p, arch, batch, xi):
    batch = np.asarray(batch, dtype=float)
    n = batch.shape[0]
    sigma2 = arch.decoder_variance

    he_pre, he, mu, var_pre, var = _reference_encode_batch(p, batch)
    sd = np.sqrt(var)
    z = mu + sd * xi
    hd_pre, hd, out = _reference_decode_batch(p, z)

    recon = float(np.mean(-((batch - out) ** 2).sum(axis=1) / (2.0 * sigma2)))
    kl_terms = 0.5 * (mu * mu + var - np.log(var) - 1.0).sum(axis=1)
    kl = max(float(np.mean(kl_terms)), 0.0)
    report = (recon, kl, recon - kl)

    scale = 1.0 / n
    d_out_pre = ((batch - out) / sigma2 * scale) * out * (1.0 - out)
    g = {
        "dec_wout": d_out_pre.T @ hd,
        "dec_bout": d_out_pre.sum(axis=0),
    }
    d_hd_pre = (d_out_pre @ p["dec_wout"]) * (hd_pre > 0.0).astype(float)
    g["dec_w1"] = d_hd_pre.T @ z
    g["dec_b1"] = d_hd_pre.sum(axis=0)

    d_z = d_hd_pre @ p["dec_w1"]
    d_mu = d_z - mu * scale
    d_var = d_z * xi / (2.0 * sd) - 0.5 * (1.0 - 1.0 / var) * scale
    d_var_pre = d_var * (var_pre > 0.0)

    g["enc_wmu"] = d_mu.T @ he
    g["enc_bmu"] = d_mu.sum(axis=0)
    g["enc_wvar"] = d_var_pre.T @ he
    g["enc_bvar"] = d_var_pre.sum(axis=0)

    d_he_pre = (d_mu @ p["enc_wmu"] + d_var_pre @ p["enc_wvar"]) * (he_pre > 0.0).astype(float)
    g["enc_w1"] = d_he_pre.T @ batch
    g["enc_b1"] = d_he_pre.sum(axis=0)
    return report, g


def _reference_train_step(p, arch, step_size, batch, rng):
    batch = np.asarray(batch, dtype=float)
    xi = rng.standard_normal((batch.shape[0], arch.latent_dim))
    report, grads = _reference_elbo_gradients(p, arch, batch, xi)
    if step_size != 0.0:
        for name, grad in grads.items():
            p[name] += step_size * grad
    return report, grads


@relu_ids
@pytest.mark.parametrize("step_size", [0.0, 0.01])
def test_train_step_matches_reference_implementation(activation, step_size):
    arch = VaeArch()
    prior = init_vae(arch, make_rng(31))
    ref = {name: arr.copy() for name, arr in prior.params.items()}
    data = make_rng(32)
    for i in range(300):
        # actions in the box, with every 50th batch at the box's corners
        batch = data.uniform(0.0, 1.0, size=(int(data.integers(1, 40)), 1))
        if i % 50 == 0:
            batch = np.round(batch)
        a, b = make_rng(1000 + i), make_rng(1000 + i)
        report = train_step(prior, batch, step_size, a)
        ref_report, ref_grads = _reference_train_step(ref, arch, step_size, batch, b)
        assert (report.reconstruction, report.kl, report.elbo) == ref_report
        for name, arr in prior.params.items():
            assert prior.grads[name].tobytes() == ref_grads[name].tobytes(), name
            assert arr.tobytes() == ref[name].tobytes(), name
        assert a.random() == b.random()
    assert prior.train_steps == 300


@relu_ids
def test_deferred_report_read_late_equals_eager_report(activation):
    arch = VaeArch()
    prior = init_vae(arch, make_rng(33))
    data = make_rng(34)
    reports, eager = [], []
    for i in range(60):
        batch = data.uniform(0.0, 1.0, size=(int(data.integers(1, 40)), 1))
        a, b = make_rng(2000 + i), make_rng(2000 + i)
        # the same fixed-noise bound at the weights the step starts from, read at once
        xi = b.standard_normal((batch.shape[0], arch.latent_dim))
        now = elbo_given_noise(prior, batch, xi)
        eager.append((now.reconstruction, now.kl, now.elbo))
        reports.append(train_step(prior, batch, 0.05, a))
    # read only after every later step has rewritten the weights and gradients
    for report, expected in zip(reports, eager):
        assert (report.reconstruction, report.kl, report.elbo) == expected


def _bank(arch, num, rng):
    bank = np.empty((num, param_count(arch)))
    priors = [init_vae(arch, rng, row) for row in bank]
    return VaePrior(arch, bank), priors


@relu_ids
@pytest.mark.parametrize("num", [1, 3])
def test_stacked_sampling_matches_per_prior_decodes(activation, num):
    arch = VaeArch()
    rng = make_rng(40 + num)
    stack, priors = _bank(arch, num, rng)
    for trial in range(200):
        # training writes each prior's row of the bank in place
        x = trial % num
        train_step(priors[x], rng.uniform(0.0, 1.0, size=(8, 1)), 0.05, rng)
        m = 1 + trial % 5
        a, b = make_rng(trial), make_rng(trial)
        stacked = sample_actions(stack, m, a)
        assert stacked.shape == (num, m, 1)
        for p, prior in enumerate(priors):
            z = b.standard_normal((m, arch.latent_dim))
            ref = {name: arr.copy() for name, arr in prior.params.items()}
            _, _, out = _reference_decode_batch(ref, z)
            assert stacked[p].tobytes() == out.tobytes()
        assert a.random() == b.random()


def test_param_views_write_through_to_flat_buffers():
    arch = VaeArch(hidden_dim=5, latent_dim=3)
    stack, priors = _bank(arch, 3, make_rng(50))
    for p, prior in enumerate(priors):
        assert prior.flat.base is stack.flat
        for name, arr in prior.params.items():
            assert arr.flags.c_contiguous
            view = arr.ravel()
            view[-1] = 1000.0 * p + 7.0  # as the finite-difference checks write
            assert stack.params[name][p].ravel()[-1] == 1000.0 * p + 7.0
        assert (prior.flat == np.concatenate([a.ravel() for a in prior.params.values()])).all()


def test_train_step_zero_step_size_is_identity():
    prior = init_vae(VaeArch(), make_rng(13))
    before = {k: v.copy() for k, v in prior.params.items()}
    train_step(prior, np.array([[0.3], [0.7]]), 0.0, make_rng(14))
    for k, v in prior.params.items():
        assert np.array_equal(v, before[k])
    assert prior.train_steps == 1


def test_training_improves_elbo_and_centers_samples():
    rng = make_rng(42)
    prior = init_vae(VaeArch(), rng)
    batch = np.clip(rng.normal(0.25, 0.03, size=(32, 1)), 0.01, 0.99)
    fixed_noise = np.zeros((32, 2))
    before = elbo_given_noise(prior, batch, fixed_noise).elbo
    for _ in range(2000):
        train_step(prior, batch, 0.01, rng)
    after = elbo_given_noise(prior, batch, fixed_noise).elbo
    assert after > before
    samples = sample_actions(prior, 10_000, rng)
    assert abs(samples.mean() - 0.25) < 0.05


def test_sample_action_zero_weights_and_box():
    prior = zero_vae(VaeArch())
    rng = make_rng(15)
    assert np.allclose(sample_action(prior, rng), 0.5)
    trained = init_vae(VaeArch(), rng)
    samples = sample_actions(trained, 10_000, rng)
    assert (samples >= 0.0).all() and (samples <= 1.0).all()


def test_elbo_lower_bounds_quadrature_log_likelihood():
    arch = VaeArch(hidden_dim=16, latent_dim=1, decoder_variance=0.01)
    prior = init_vae(arch, make_rng(5))
    a = np.array([0.4])
    sigma2 = arch.decoder_variance
    const = 0.5 * math.log(2.0 * math.pi * sigma2)

    # log p(a) by 2001-point quadrature over the latent
    zs = np.linspace(-8.0, 8.0, 2001)
    _, _, m = _decode_batch(prior, zs[:, None])
    like = np.exp(-0.5 * (a[0] - m[:, 0]) ** 2 / sigma2) / math.sqrt(
        2.0 * math.pi * sigma2
    )
    normal = np.exp(-0.5 * zs**2) / math.sqrt(2.0 * math.pi)
    log_marginal = math.log(np.trapezoid(like * normal, zs))

    # exact expected reconstruction under q(z|a) by quadrature over the noise
    mu, var = encode(prior, a)
    xi = np.linspace(-8.0, 8.0, 2001)
    zq = mu[0] + math.sqrt(var[0]) * xi
    _, _, mq = _decode_batch(prior, zq[:, None])
    dens = np.exp(-0.5 * xi**2) / math.sqrt(2.0 * math.pi)
    recon = np.trapezoid((-0.5 * (a[0] - mq[:, 0]) ** 2 / sigma2 - const) * dens, xi)
    elbo_exact = recon - kl_to_standard_normal(mu, var)
    assert elbo_exact <= log_marginal + 1e-9

    # single-noise Monte Carlo with 1e5 draws, dropped constant restored
    rng = make_rng(9)
    batch = np.tile(a, (100_000, 1))
    noise = rng.standard_normal((100_000, 1))
    report = elbo_given_noise(prior, batch, noise)
    recon_terms = -((batch[:, 0] - _decode_batch(prior, mu + np.sqrt(var) * noise)[2][:, 0]) ** 2) / (2 * sigma2)
    se = recon_terms.std(ddof=1) / math.sqrt(len(recon_terms))
    assert report.elbo - const <= log_marginal + 3.0 * se + 1e-9


def test_arch_validation():
    with pytest.raises(ValueError):
        VaeArch(decoder_variance=0.0)
    with pytest.raises(ValueError):
        VaeArch(latent_dim=0)
