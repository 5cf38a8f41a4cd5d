"""The benchmark's own tests: every workload passes its checks at a tiny size, and
each check fails when a fault is planted in a copy of the call it checks."""

import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import prepare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

import latentexplain.attribution as le_attribution  # noqa: E402
import latentexplain.audio as le_audio  # noqa: E402
import latentexplain.checkpoint as le_checkpoint  # noqa: E402
import latentexplain.classifier as le_classifier  # noqa: E402
import latentexplain.cli as le_cli  # noqa: E402
import latentexplain.codec as le_codec  # noqa: E402
import latentexplain.evalharness as le_eval  # noqa: E402
import latentexplain.masking as le_masking  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def built():
    prepare.ensure_built(dict(os.environ, **run.BLAS_ENV))


def run_tiny(workload, tmp_path, units=None, warmup=False, tracer=None):
    """Set up a tiny run in-process, run one round (or `units` units), return the checks.

    An installed tracer records the units and is uninstalled before the checks."""
    wl = workloads.make(workloads.make_inputs(workload, 0, tmp_path, tiny=True))
    if warmup:
        wl.warmup("t")
    if tracer:
        tracer.phase = 1
    for i in range(units or wl.units_per_round):
        assert wl.unit(i)
        if tracer:
            tracer.end_unit()
    if tracer:
        tracer.uninstall()
    return wl.check()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_checks_pass_at_tiny_size(workload, tmp_path):
    assert run_tiny(workload, tmp_path, warmup=workload == "train") == []


# -- explain --------------------------------------------------------------------------

def test_explain_wrong_sample_rate_fails(tmp_path, monkeypatch):
    orig = le_cli.wav_write
    monkeypatch.setattr(le_cli, "wav_write",
                        lambda clip, path: orig(le_audio.AudioClip(clip.samples, 8000), path))
    fails = run_tiny("explain", tmp_path)
    assert any("sample rate 8000" in f for f in fails)


def test_explain_wrong_class_fails(tmp_path, monkeypatch):
    orig = le_cli.predict_batch
    monkeypatch.setattr(le_cli, "predict_batch",
                        lambda z, p: (orig(z, p) + 1) % p["w2"].shape[1])
    assert any("predicted_class matches" in f for f in run_tiny("explain", tmp_path))


def test_explain_incomplete_ig_fails(tmp_path, monkeypatch):
    orig = le_attribution.integrated_gradients_latent

    def scaled(*args, **kwargs):
        att = orig(*args, **kwargs)
        att.scores = att.scores * np.float32(1.02)
        return att

    monkeypatch.setattr(le_attribution, "integrated_gradients_latent", scaled)
    assert any("latent IG" in f for f in run_tiny("explain", tmp_path))


def test_explain_full_keep_dropping_a_cell_fails(tmp_path, monkeypatch):
    orig = le_cli.apply_mask_keep

    def drop_one(z, mask, base):
        kept = mask.kept[1:]
        return orig(z, le_masking.SelectionMask(kept, mask.shape, mask.ratio, mask.mode,
                                                mask.method), base)

    monkeypatch.setattr(le_cli, "apply_mask_keep", drop_one)
    assert any("plain reconstruction" in f for f in run_tiny("explain", tmp_path))


# -- sweeps ---------------------------------------------------------------------------

def _select_top_dropping_one(orig):
    def select_top(att, ratio, mode=le_masking.KEEP_TOP):
        mask = orig(att, ratio, mode)
        mask.kept = mask.kept[:-1]
        return mask
    return select_top


def test_sweep_latent_select_top_dropping_a_cell_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(le_eval, "select_top", _select_top_dropping_one(le_eval.select_top))
    assert any("rebuilt mask" in f for f in run_tiny("sweep-latent", tmp_path))


def test_sweep_waveform_select_top_dropping_a_cell_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(le_masking, "select_top", _select_top_dropping_one(le_masking.select_top))
    assert any("rebuilt mask" in f for f in run_tiny("sweep-waveform", tmp_path))


def test_sweep_wrong_seeds_and_std_fail(tmp_path, monkeypatch):
    orig = le_cli.fidelity_agreement

    def shifted(*args, **kwargs):
        rep = orig(*args, **kwargs)
        rep.seeds = [s + 1 for s in rep.seeds]
        for row in rep.rows:
            row.std = 0.5
        return rep

    monkeypatch.setattr(le_cli, "fidelity_agreement", shifted)
    fails = run_tiny("sweep-latent", tmp_path)
    assert any("seeds" in f for f in fails)
    assert any("nonzero std" in f for f in fails)


def test_sweep_ig_worse_than_random_fails(tmp_path, monkeypatch):
    orig = le_cli.accuracy_drop

    def inflated(clips, labels, models, method, **kwargs):
        rep = orig(clips, labels, models, method, **kwargs)
        if method == "latent-ig":
            for row in rep.rows:
                row.mean = 100.0
        return rep

    monkeypatch.setattr(le_cli, "accuracy_drop", inflated)
    fails = run_tiny("sweep-latent", tmp_path)
    assert any(f.startswith("post-removal-accuracy at") for f in fails)


# -- train ----------------------------------------------------------------------------

def test_train_nondeterministic_parameters_fail(tmp_path, monkeypatch):
    orig = le_codec.train_autoencoder
    rng = np.random.default_rng()

    def noisy(*args, **kwargs):
        ckpt = orig(*args, **kwargs)
        ckpt.params["enc0_b"] = ckpt.params["enc0_b"] + np.float32(rng.uniform(1e-6, 1e-5))
        return ckpt

    monkeypatch.setattr(le_codec, "train_autoencoder", noisy)
    fails = run_tiny("train", tmp_path, warmup=True)
    assert any("codec: parameters differ" in f for f in fails)


def test_train_head_that_does_not_learn_fails(tmp_path, monkeypatch):
    orig = le_classifier.train_classifier

    def untrained(latents, labels, config, seed=0, substitution_base=None):
        ckpt = orig(latents, labels, config, seed=seed, substitution_base=substitution_base)
        ckpt.params = le_classifier.init_classifier_params(config, seed)
        return ckpt

    monkeypatch.setattr(le_classifier, "train_classifier", untrained)
    fails = run_tiny("train", tmp_path, warmup=True)
    assert any("keyword head: loss" in f for f in fails)


# -- tracing and reporting ------------------------------------------------------------

def test_traced_sweep_counts_recomputed_maps(tmp_path):
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert run_tiny("sweep-latent", tmp_path, tracer=tracer) == []
    finally:
        tracer.uninstall()
    assert le_cli.main.__module__ == "latentexplain.cli" and not hasattr(le_cli.main, "__wrapped__")
    layers = tracer.layer_metrics(1)
    # both commands compute the same IG maps; fidelity ranks each map 5 times, drop 6
    assert layers["evalharness.ig_maps_per_clip"] == 2.0
    assert layers["masking.select_top.sorts_per_map"] == 5.5
    assert layers["attribution.integrated_gradients_latent.calls"] == 8
    assert layers["cli.main.calls"] == 2


def test_benchmark_json_names_every_metric():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(s) for s in spans.metric_specs()]
    assert {m["name"] for m in bench["end_to_end"]} == \
        {"setup_s", "clips_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}


def test_tail_has_ten_samples_beyond():
    lat = [float(i) for i in range(100)]
    value, note = run.tail(lat)
    assert sum(x > value for x in lat) == run.TAIL_BEYOND
    assert "p90.00" in note
    assert run.tail(lat[:39])[0] == 19.0
