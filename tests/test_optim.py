"""The one minibatch-Adam epoch loop that trains both the codec and the classifier head."""

import numpy as np
import pytest

from latentexplain import classifier, codec, optim
from latentexplain.classifier import ClassifierConfig, train_classifier
from latentexplain.codec import CodecConfig, CodecTrainConfig, train_autoencoder
from latentexplain.optim import Adam, AdamConfig, minibatch_adam
from tape_reference import pad_for_encode


# The two hand-written epoch loops the trainers ran before they shared ``minibatch_adam``,
# kept as the oracle the shared loop must reproduce bit for bit.

def oracle_train_autoencoder(clips, config, train, seed):
    clips = np.asarray(clips, dtype=np.float32)
    x_all = pad_for_encode(clips, config)
    m = x_all.shape[0]
    rng = np.random.default_rng(seed)
    params = codec.init_codec_params(config, seed)
    opt = Adam(params, AdamConfig(lr=train.lr, beta1=train.beta1, beta2=train.beta2))
    epoch_losses = []
    for _epoch in range(train.epochs):
        perm = rng.permutation(m)
        total = 0.0
        for start in range(0, m, train.batch_size):
            xb = x_all[perm[start : start + train.batch_size]]
            loss, grads = codec._step_grads(xb, params, config)
            opt.step(grads)
            total += loss * len(xb)
        epoch_losses.append(total / m)
    return params, epoch_losses


def oracle_train_classifier(latents, labels, config, seed, substitution_base=None):
    latents = np.asarray(latents, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    augment = substitution_base is not None and config.anchor_class is not None
    m = latents.shape[0]
    cells = latents.shape[1] * latents.shape[2]
    base_flat = substitution_base.reshape(-1) if augment else None
    rng = np.random.default_rng(seed)
    params = classifier.init_classifier_params(config, seed)
    opt = Adam(params, AdamConfig(lr=config.lr))
    epoch_losses = []
    for _epoch in range(config.epochs):
        perm = rng.permutation(m)
        total = 0.0
        for start in range(0, m, config.batch_size):
            idx = perm[start : start + config.batch_size]
            batch = latents[idx]
            if augment:
                batch = batch.copy()
                for j, gi in enumerate(idx):
                    if labels[gi] != config.anchor_class:
                        continue
                    n_sub = int(np.floor(rng.uniform(0, config.substitution_max_ratio)
                                         * cells + 0.5))
                    if n_sub:
                        flat = rng.choice(cells, size=n_sub, replace=False)
                        batch[j].reshape(-1)[flat] = base_flat[flat]
            loss, grads = classifier._step_grads(batch, labels[idx], params)
            opt.step(grads)
            total += loss * len(idx)
        epoch_losses.append(total / m)
    return params, epoch_losses


def run_stub(rows=10, batch_size=4, epochs=3, seed=5, loss=lambda idx: float(len(idx))):
    """``minibatch_adam`` on one scalar parameter with a stub step; returns (metadata, batches)."""
    params = {"p": np.zeros(1, dtype=np.float32)}
    batches = []

    def step(idx):
        batches.append(idx.copy())
        return loss(idx), {"p": np.ones(1, dtype=np.float32)}

    meta = minibatch_adam(params, step, rows, batch_size, epochs, np.random.default_rng(seed),
                          AdamConfig())
    return meta, batches


class TestLoop:
    def test_batches_follow_the_permutation_with_a_short_last_batch(self):
        _, batches = run_stub(rows=10, batch_size=4, epochs=3, seed=5)
        rng = np.random.default_rng(5)
        expected = []
        for _epoch in range(3):
            perm = rng.permutation(10)
            expected += [perm[0:4], perm[4:8], perm[8:10]]
        assert [len(b) for b in batches] == [4, 4, 2] * 3
        assert all(np.array_equal(b, e) for b, e in zip(batches, expected, strict=True))

    def test_epoch_loss_is_the_size_weighted_mean(self):
        meta, _ = run_stub(rows=10, batch_size=4, epochs=2)
        # batch losses 4, 4 and 2 weighted by sizes 4, 4 and 2: (16 + 16 + 4) / 10
        assert meta["epoch_losses"] == [3.6, 3.6]
        meta, batches = run_stub(rows=7, batch_size=3, epochs=2, loss=lambda idx: float(idx[0]))
        firsts = [float(b[0]) * len(b) for b in batches]
        assert meta["epoch_losses"] == [sum(firsts[:3]) / 7, sum(firsts[3:]) / 7]

    def test_metadata(self):
        meta, _ = run_stub(rows=10, batch_size=4, epochs=3)
        assert meta == {"epochs": 3, "final_loss": 3.6, "initial_loss": 3.6,
                        "epoch_losses": [3.6, 3.6, 3.6]}

    def test_one_adam_step_per_batch(self, monkeypatch):
        calls = []
        real = Adam.step

        def counting(self, grads):
            calls.append(self)
            return real(self, grads)

        monkeypatch.setattr(optim.Adam, "step", counting)
        _, batches = run_stub(rows=10, batch_size=4, epochs=3)
        assert len(calls) == len(batches) == 9
        assert len({id(opt) for opt in calls}) == 1  # one optimizer for the whole training

    def test_zero_epochs_raise(self):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            run_stub(epochs=0)


def small_codec():
    return CodecConfig(channels=(4, 6, 8), kernel_sizes=(8, 6, 4), strides=(4, 2, 2),
                       latent_channels=8)


class TestTrainersMatchTheOracle:
    """Both trainers, on small inputs, give the parameters of their old epoch loops bit for bit."""

    def test_codec(self):
        clips = np.random.default_rng(1).uniform(-0.5, 0.5, (11, 1024)).astype(np.float32)
        train = CodecTrainConfig(lr=3e-3, beta1=0.8, beta2=0.99, batch_size=4, epochs=2)
        ckpt = train_autoencoder(clips, small_codec(), train, seed=3)
        params, losses = oracle_train_autoencoder(clips, small_codec(), train, seed=3)
        assert ckpt.params.keys() == params.keys()
        assert all(np.array_equal(ckpt.params[k], params[k]) for k in params)
        assert ckpt.metadata == {"seed": 3, "epochs": 2, "final_loss": losses[-1],
                                 "initial_loss": losses[0], "epoch_losses": losses}

    @pytest.mark.parametrize("substitute", [False, True], ids=["plain", "anchor-substitution"])
    def test_head(self, substitute):
        rng = np.random.default_rng(2)
        latents = rng.standard_normal((13, 12, 8)).astype(np.float32)
        labels = np.arange(13) % 3
        base = rng.standard_normal((12, 8)).astype(np.float32) if substitute else None
        config = ClassifierConfig(num_classes=3, latent_channels=8, hidden=16, lr=2e-3,
                                  batch_size=5, epochs=4, pooling="mean-max", anchor_class=0)
        ckpt = train_classifier(latents, labels, config, seed=4, substitution_base=base)
        params, losses = oracle_train_classifier(latents, labels, config, 4, base)
        assert ckpt.params.keys() == params.keys()
        assert all(np.array_equal(ckpt.params[k], params[k]) for k in params)
        assert ckpt.metadata == {"seed": 4, "epochs": 4, "final_loss": losses[-1],
                                 "initial_loss": losses[0], "epoch_losses": losses}

    def test_substitution_changes_the_head(self):
        """The anchor-substitution case above draws substitutions, so it tests the step's draws."""
        rng = np.random.default_rng(2)
        latents = rng.standard_normal((13, 12, 8)).astype(np.float32)
        base = rng.standard_normal((12, 8)).astype(np.float32)
        labels = np.arange(13) % 3
        config = ClassifierConfig(num_classes=3, latent_channels=8, hidden=16, batch_size=5,
                                  epochs=2, pooling="mean-max", anchor_class=0)
        plain = train_classifier(latents, labels, config, seed=4)
        substituted = train_classifier(latents, labels, config, seed=4, substitution_base=base)
        assert not np.array_equal(plain.params["w0"], substituted.params["w0"])
