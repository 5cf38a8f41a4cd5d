"""End-to-end CLI tests on a miniature workspace: exit codes, artifacts, determinism."""

import filecmp
import hashlib
import json
import os
import re
import shutil
import struct
import threading
import tracemalloc
from collections import OrderedDict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, fields, replace
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latentexplain import cli
from latentexplain import codec as le_codec
from latentexplain import evalharness as le_eval
from latentexplain import masking as le_masking
from latentexplain.audio import AudioClip, NonFiniteError, wav_read, wav_write
from latentexplain.checkpoint import (Checkpoint, CheckpointError, file_sha256, read_checkpoint,
                                     write_checkpoint)
from latentexplain.classifier import POOL_GATES, POOLINGS, ClassifierConfig, classifier_param_shapes
from latentexplain.cli import (
    EXIT_BAD_CONFIG,
    EXIT_DATA_ERROR,
    EXIT_MISSING_CHECKPOINT,
    RunConfig,
    build_parser,
    main,
)
from latentexplain.codec import CodecConfig, codec_param_shapes, decode, encode
from latentexplain.data import read_manifest

from conftest import finishes


def write_config(root: Path, **overrides) -> Path:
    cfg = {
        "schema_version": 1,
        "paths": {
            "data_dir": str(root / "data"),
            "checkpoint_dir": str(root / "ckpt"),
            "report_dir": str(root / "reports"),
        },
        "dataset": {
            "task": "keyword",
            "num_classes": 3,
            "clips_per_class": 6,
            "clip_length": 4096,
            "seed": 1,
        },
        "codec": {"epochs": 2, "batch_size": 4},
        "classifier": {"epochs": 8},
        "eval": {"alphas": [0.5, 1.0], "betas": [0.0, 0.5], "runs": 2, "base_seed": 7},
    }
    cfg.update(overrides)
    path = root / "run.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Config + dataset + trained checkpoints produced through the CLI itself."""
    root = tmp_path_factory.mktemp("cliws")
    cfg = write_config(root)
    assert main(["--config", str(cfg), "synth-data"]) == 0
    assert main(["--config", str(cfg), "train-codec"]) == 0
    assert main(["--config", str(cfg), "train-classifier"]) == 0
    return root, cfg


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "codec": {"epohcs": 3}}))
        assert main(["--config", str(path), "synth-data"]) == EXIT_BAD_CONFIG

    def test_unknown_top_level_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "optimizer": {}}))
        assert main(["--config", str(path), "synth-data"]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("version", [2, True, 1.0, "1"])
    def test_wrong_schema_version(self, tmp_path, capsys, version):
        """Only the JSON integer 1, though ``True == 1.0 == 1`` in Python."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": version, "dataset": {
            "num_classes": 2, "clips_per_class": 1, "clip_length": 64}}))
        out = tmp_path / "o"
        assert main(["--config", str(path), "synth-data", "--out", str(out)]) == EXIT_BAD_CONFIG
        assert "unsupported schema_version" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [b"{nope", b'\xff{"schema_version": 1}'],
                             ids=["not-json", "not-utf8"])
    def test_invalid_json(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        assert main(["--config", str(path), "synth-data"]) == EXIT_BAD_CONFIG
        assert "config is not valid JSON" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "train-codec"]) == EXIT_DATA_ERROR

    def test_missing_codec_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", str(cfg), "synth-data"]) == 0
        assert main(["--config", str(cfg), "train-classifier"]) == EXIT_MISSING_CHECKPOINT

    def test_unknown_eval_method(self, workspace):
        root, cfg = workspace
        code = main(["--config", str(cfg), "eval-fidelity", "--methods", "saliency"])
        assert code == EXIT_BAD_CONFIG


class TestRatiosCheckedFirst:
    """A ratio outside [0, 1] is a malformed config: exit 3 before any input is read."""

    @staticmethod
    def config_with_eval(workspace, tmp_path, **eval_overrides) -> Path:
        _, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw["eval"].update(eval_overrides)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize("alpha", ["1.5", "-0.1", "nan"])
    def test_explain_alpha(self, workspace, tmp_path, capsys, alpha):
        root, cfg = workspace
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        out = tmp_path / "o" / "expl.wav"
        code = main(["--config", str(cfg), "explain", "--input", str(clip_path),
                     "--alpha", alpha, "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert "--alpha" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_confusion_beta(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        out = tmp_path / "o" / "c.json"
        code = main(["--config", str(cfg), "confusion", "--beta", "1.5", "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert "--beta" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_eval_fidelity_alphas(self, workspace, tmp_path, capsys):
        bad = self.config_with_eval(workspace, tmp_path, alphas=[0.1, 1.5])
        out = tmp_path / "rep"
        code = main(["--config", str(bad), "eval-fidelity", "--methods", "latent-ig",
                     "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert "eval.alphas" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("betas", [[0.5, -0.01], [0.1, "0.2"], 0.5])
    def test_eval_drop_betas(self, workspace, tmp_path, capsys, betas):
        bad = self.config_with_eval(workspace, tmp_path, betas=betas)
        out = tmp_path / "rep"
        code = main(["--config", str(bad), "eval-drop", "--methods", "latent-ig",
                     "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert "eval.betas" in capsys.readouterr().err
        assert not out.exists()


class TestNumbersCheckedFirst:
    """A count, seed or job number that is not an integer in range: exit 3, nothing read."""

    @pytest.mark.parametrize("section,key,value", [
        ("eval", "runs", 0), ("eval", "runs", "5"), ("eval", "runs", 2.0),
        ("eval", "runs", True), ("eval", "base_seed", -1),
        ("attribution", "ig_steps", 0), ("attribution", "noise_seed", "x"),
        ("attribution", "noise_seed", -1),
    ])
    def test_config_value(self, workspace, tmp_path, capsys, section, key, value):
        _, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw.setdefault(section, {})[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "rep"
        code = main(["--config", str(bad), "eval-fidelity", "--methods", "latent-ig",
                     "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2", "65"])
    def test_jobs(self, workspace, tmp_path, capsys, monkeypatch, jobs):
        """Above the maximum of 64 too; no corpus is read, so no pool starts."""
        _, cfg = workspace

        def refuse(*args, **kwargs):
            raise AssertionError("the corpus was read")

        monkeypatch.setattr(cli, "_corpus", refuse)
        out = tmp_path / "rep"
        code = main(["--config", str(cfg), "eval-drop", "--methods", "latent-ig",
                     "--jobs", jobs, "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


# The bounds the config reader promises; every other integer value must be >= 0. The values
# that size an array (each element of a list) are at most 1,024.
INT_LOW = {"num_classes": 2, **dict.fromkeys((
    "clips_per_class", "clip_length", "sample_rate", "words", "renditions",
    "latent_channels", "batch_size", "epochs", "hidden", "ig_steps", "runs"), 1)}
INT_HIGH = {"sample_rate": 2**18, **dict.fromkeys((
    "num_classes", "channels", "kernel_sizes", "strides", "latent_channels", "hidden", "ig_steps"),
    1024)}
REALS_OUTSIDE = {"lr": [0.0, -1e-3], "beta1": [-0.01, 1.0], "beta2": [-0.01, 1.0]}


def _rejected_values(key, default):
    """Values of the wrong type, and values just outside the bound, for one config key."""
    if default is None:  # classifier.pooling: null, "mean" or "mean-max"
        return [3, "max"]
    if isinstance(default, str):
        return [5, None]
    if isinstance(default, list) and isinstance(default[0], float):  # ratios
        return ["0.5", [0.5, "0.2"], [1.5], [-0.01]]
    if isinstance(default, list):
        return ["8", [], [8, 8.0], [0], [INT_HIGH[key] + 1]]
    if isinstance(default, int):
        above = [INT_HIGH[key] + 1] if key in INT_HIGH else []
        return ["2", 2.0, True, None, INT_LOW.get(key, 0) - 1, *above]
    return ["0.5", True, float("nan"), float("inf"), *REALS_OUTSIDE.get(key, [])]


def _every_config_value():
    cfg = RunConfig()
    for section in fields(cfg):
        if section.name == "schema_version":
            continue
        for f in fields(getattr(cfg, section.name)):
            default = getattr(getattr(cfg, section.name), f.name)
            for value in _rejected_values(f.name, default):
                yield pytest.param(section.name, f.name, value,
                                   id=f"{section.name}.{f.name}={value!r}")


class TestEveryConfigValueChecked:
    """Each value of each section is checked by type and range when the file is read."""

    @pytest.mark.parametrize("section,key,value", list(_every_config_value()))
    def test_rejected_before_anything_runs(self, tmp_path, capsys, section, key, value):
        raw = json.loads(write_config(tmp_path).read_text())
        raw.setdefault(section, {})[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["--config", str(bad), "synth-data", "--out", str(out)]) == EXIT_BAD_CONFIG
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section,values,message", [
        ("codec", {"channels": [16, 32]}, "equal length"),
        ("codec", {"latent_channels": 16}, "latent_channels"),
        ("dataset", {"task": "speech"}, "unknown task"),
        ("dataset", {"task": "emotion", "num_classes": 5, "clips_per_class": 7},
         "words * renditions"),
    ])
    def test_rules_across_fields(self, tmp_path, capsys, section, values, message):
        raw = json.loads(write_config(tmp_path).read_text())
        raw[section].update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["--config", str(bad), "synth-data", "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"msg={section}: " in err and message in err
        assert not out.exists()

    def test_dataset_without_task_is_keyword(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"schema_version": 1, "dataset": {"seed": 3}}))
        spec = RunConfig.from_file(path).dataset
        assert (spec.task, spec.seed) == ("keyword", 3)

    @pytest.mark.parametrize("section,values", [
        ("codec", {"channels": [1024, 24, 32]}),
        ("codec", {"kernel_sizes": [1024, 1024, 1024]}),
        ("codec", {"strides": [1024, 1024, 1024]}),
        ("codec", {"channels": [16, 24, 1024], "latent_channels": 1024}),
        ("classifier", {"hidden": 1024}),
        ("attribution", {"ig_steps": 1024}),
        ("dataset", {"num_classes": 1024}),
        ("dataset", {"sample_rate": 2**18}),
        ("dataset", {"clip_length": 2**18}),
        ("dataset", {"num_classes": 4, "clips_per_class": 64, "clip_length": 2**18}),  # 2^26
    ])
    def test_each_size_at_its_maximum_is_accepted(self, tmp_path, section, values):
        raw = json.loads(write_config(tmp_path).read_text())
        raw.setdefault(section, {}).update(values)
        path = tmp_path / "max.json"
        path.write_text(json.dumps(raw))
        got = getattr(RunConfig.from_file(path), section)
        assert {key: getattr(got, key) for key in values} == values

    def test_default_run_config_is_pinned(self):
        """Its canonical JSON is what every provenance file's ``config_sha256`` hashes, so a
        moved default changes them all."""
        blob = json.dumps(asdict(RunConfig()), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "65832dc85ec9cdc32d7d738f11c63e63d7f4aec4f5a5be5b8202f62bd3d29077")

    def test_readme_config_is_accepted(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert blocks
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            assert RunConfig.from_file(path).schema_version == 1


class TestSizesHaveAMaximum:
    """A value that sizes an array, far past its maximum, exits 3 before anything is read,
    rather than reach numpy as an allocation it cannot make."""

    @pytest.mark.parametrize("command,section,values", [
        ("explain", "attribution", {"ig_steps": 10**12}),
        ("eval-fidelity", "attribution", {"ig_steps": 10**12}),
        ("train-classifier", "classifier", {"hidden": 10**12}),
        ("train-codec", "codec", {"channels": [10**12, 8, 8], "latent_channels": 8}),
    ])
    def test_exits_3(self, workspace, tmp_path, capsys, command, section, values):
        root, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw.setdefault(section, {}).update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o" / "out"
        extra = {"explain": ["--input", str(next((root / "data" / "clips").glob("*.wav"))),
                             "--alpha", "0.5"]}.get(command, [])
        assert main(["--config", str(bad), command, *extra, "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"{section}.{next(iter(values))}" in err and "<= 1024" in err
        assert not out.parent.exists()

    TINY = {"num_classes": 3, "clips_per_class": 1, "clip_length": 1024}

    @pytest.mark.parametrize("values,message", [
        ({"clip_length": 10**13}, "clips of 10000000000000 samples: past 2^18 a clip"),
        ({**TINY, "sample_rate": 2**32}, "dataset.sample_rate: expected an integer >= 1 and <= "),
        ({**TINY, "task": "emotion", "words": 1, "renditions": 1, "sample_rate": 10**13},
         "dataset.sample_rate"),
    ], ids=["clip-length", "sample-rate-past-32-bits", "emotion-sample-rate"])
    def test_dataset_exits_3(self, tmp_path, capsys, values, message):
        """Before any clip is made. Unbounded, each of these fails on its first clip: numpy
        cannot allocate it, or its rate overflows the WAV header's 32-bit field."""
        raw = json.loads(write_config(tmp_path).read_text())
        raw["dataset"].update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o"
        assert main(["--config", str(bad), "synth-data", "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"error code=3 msg=[^\n]+\n", err) and message in err
        assert not out.exists()

    @pytest.mark.parametrize("values,message", [
        ({"clips_per_class": 10**13}, "dataset: 3 x 10000000000000 clips of 4096 samples"),
        ({"num_classes": 10**13}, "dataset.num_classes: expected an integer >= 2 and <= 1024"),
        ({"num_classes": 4, "clips_per_class": 65, "clip_length": 2**18}, "2^26 in all"),
    ], ids=["clips-per-class", "num-classes", "one-clip-past-2^26-samples"])
    def test_corpus_past_its_maximum_is_rejected_when_read(self, tmp_path, values, message):
        """Unbounded, these allocate or loop over clips for minutes to hours, so the test
        only reads the config."""
        raw = json.loads(write_config(tmp_path).read_text())
        raw["dataset"].update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            RunConfig.from_file(bad)

    @pytest.mark.parametrize("values", [
        {"channels": [1024] * 3, "kernel_sizes": [1024] * 3, "latent_channels": 1024},
        {"channels": [1024] * 3, "latent_channels": 1024},  # 2^24 + 2^23 with K + S = 12
        {"channels": [512] * 3, "kernel_sizes": [1] * 3, "strides": [1024] * 3,
         "latent_channels": 512},
    ])
    def test_codec_layers_past_their_sum_exit_3(self, workspace, tmp_path, capsys, values):
        """Each value in range, the layers' C_in x C_out x (K + S) together past 2^24."""
        root, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw["codec"].update(values)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "o" / "codec.ckpt"
        assert main(["--config", str(bad), "train-codec", "--out", str(out)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "msg=codec: " in err and "past 2^24" in err and "Traceback" not in err
        assert not out.parent.exists()


class TestSynthData:
    def test_task_flag_is_gone(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        code = main(["--config", str(cfg), "synth-data", "--task", "emotion", "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert "--task" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedManifest:
    @pytest.mark.parametrize("manifest,message", [
        ("{nope", "not valid JSON"),
        ("[1, 2]", "not a JSON object"),
        (json.dumps({"version": 1, "spec": {"task": "keyword"}, "class_names": ["a", "b"],
                     "train_idx": [], "test_idx": []}), "'labels'"),
        (json.dumps({"version": 1, "spec": {"task": "keyword"}, "class_names": ["a", "b"],
                     "labels": 5, "train_idx": [], "test_idx": []}), "split indices"),
        (json.dumps({"version": 1, "spec": {"task": "keyword"}, "class_names": ["a", "b"],
                     "labels": [0, 1], "train_idx": [0, 2], "test_idx": [1]}), "split indices"),
        (json.dumps({"version": True}), "unsupported manifest version True"),
        (json.dumps({"version": 1.0}), "unsupported manifest version 1.0"),
    ], ids=["not-json", "list", "no-labels", "scalar-labels", "index-out-of-range",
            "boolean-version", "float-version"])
    @pytest.mark.parametrize("command", ["train-codec", "eval-fidelity"])
    def test_exits_4(self, tmp_path, capsys, manifest, message, command):
        cfg = write_config(tmp_path)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.json").write_text(manifest)
        assert main(["--config", str(cfg), command]) == EXIT_DATA_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists() and not (tmp_path / "reports").exists()

    @pytest.mark.parametrize("key,value,message", [
        ("clip_length", -1, "clip_length: expected an integer >= 1"),
        ("clip_length", "abc", "clip_length: expected an integer >= 1"),
        ("clip_length", 16384.0, "clip_length: expected an integer >= 1"),
        ("num_classes", 1, "num_classes: expected an integer >= 2"),
        ("num_classes", 1025, "num_classes: expected an integer >= 2 and <= 1024"),
        ("clip_length", 10**13, "clips of 10000000000000 samples: past 2^18 a clip"),
        ("clips_per_class", 10**13, "2^26 in all"),
        ("sample_rate", 2**32, "sample_rate: expected an integer >= 1 and <= 262144"),
        ("seed", True, "seed: expected an integer >= 0"),
        ("task", ["keyword"], "unknown task"),
    ])
    def test_spec_value_exits_4(self, workspace, tmp_path, capsys, key, value, message):
        """A manifest's spec keeps the run config's rule for its dataset section."""
        root, cfg = workspace
        manifest = json.loads((root / "data" / "manifest.json").read_text())
        manifest["spec"][key] = value
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "reports"
        assert main(["--config", str(cfg), "eval-fidelity", "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == EXIT_DATA_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1]], ids=["equal-to-class-count", "negative"])
    def test_label_outside_the_classes_exits_4(self, tmp_path, capsys, labels):
        """Checked when the manifest is read, before any clip is read or encoded."""
        cfg = write_config(tmp_path)
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "manifest.json").write_text(json.dumps(
            {"version": 1, "spec": {"task": "keyword"}, "class_names": ["a", "b"],
             "labels": labels, "train_idx": [0], "test_idx": [1]}))
        assert main(["--config", str(cfg), "train-classifier"]) == EXIT_DATA_ERROR
        assert "labels outside [0, 2)" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("extra", [1, 1025 - 3], ids=["one-more", "past-the-maximum"])
    def test_class_names_other_than_the_spec_exit_4(self, workspace, tmp_path, capsys, extra):
        """``train-classifier`` gives its head one class per name, so a manifest of 1,025
        names would train a head past the maximum, which no command could load."""
        root, cfg = workspace
        shutil.copytree(root / "data", tmp_path / "data")
        path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["class_names"] += [f"extra{i}" for i in range(extra)]
        path.write_text(json.dumps(manifest))
        out = tmp_path / "o" / "classifier.ckpt"
        assert main(["--config", str(cfg), "train-classifier", "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert f"{3 + extra} class names for the spec's 3 classes" in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["eval-fidelity", "train-classifier"])
    def test_clip_length_past_the_clips_exits_4(self, workspace, tmp_path, capsys, command):
        """A spec clip length no WAV has is found on the first clip, before it sizes any
        array (2**57 float32 samples per clip is past what numpy can allocate)."""
        root, cfg = workspace
        shutil.copytree(root / "data", tmp_path / "data")
        path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["spec"]["clip_length"] = 2**57
        path.write_text(json.dumps(manifest))
        out = tmp_path / "out"
        argv = {"eval-fidelity": ["eval-fidelity", "--out", str(out)],
                "train-classifier": ["train-classifier", "--out", str(out / "cls.ckpt")]}[command]
        assert main(["--config", str(cfg), *argv, "--data", str(tmp_path / "data")]) \
            == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert re.fullmatch(r"error code=4 msg=[^\n]+\n", err) and f"{2**57} samples" in err
        assert not out.exists()

    @pytest.mark.parametrize("key,edit,message", [
        ("test_idx", lambda v: [2**70] + v[1:], "class names or split indices"),
        ("labels", lambda v: [1e30] * len(v), "labels[0] is 1e+30"),
        ("labels", lambda v: [x + 0.5 for x in v], "labels[0] is "),
        ("labels", lambda v: [str(x) for x in v], "labels[0] is '"),
        ("labels", lambda v: [x == 1 for x in v], "labels[0] is "),
        ("test_idx", lambda v: [i + 0.5 for i in v], "test_idx[0] is "),
    ], ids=["index-past-int64", "label-past-int64", "fractional-labels", "string-labels",
            "boolean-labels", "fractional-indices"])
    def test_value_that_is_not_an_integer_exits_4(self, workspace, tmp_path, capsys, key, edit,
                                                  message):
        """Labels and split indices are JSON integers: nothing is truncated, parsed or
        overflows into another clip or label than the file names."""
        root, cfg = workspace
        shutil.copytree(root / "data", tmp_path / "data")
        path = tmp_path / "data" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest[key] = edit(manifest[key])
        path.write_text(json.dumps(manifest))
        out = tmp_path / "reports"
        assert main(["--config", str(cfg), "eval-fidelity", "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert re.fullmatch(r"error code=4 msg=[^\n]+\n", err) and message in err
        assert not out.exists()


class TestCorpusClipsMatchTheSpec:
    @pytest.mark.parametrize("rate,length,message", [
        (8000, 4096, "8000 Hz and 4096 samples, not the spec's 16000 Hz and 4096 samples"),
        (16000, 4000, "16000 Hz and 4000 samples, not the spec's 16000 Hz and 4096 samples"),
    ], ids=["sample-rate", "length"])
    def test_exits_4(self, workspace, tmp_path, capsys, rate, length, message):
        root, _ = workspace
        shutil.copytree(root / "data", tmp_path / "data")
        cfg = write_config(tmp_path)
        manifest = json.loads((tmp_path / "data" / "manifest.json").read_text())
        name = f"clip_{manifest['train_idx'][0]:05d}.wav"  # train-codec reads the train split
        clip_path = tmp_path / "data" / "clips" / name
        wav_write(AudioClip(wav_read(clip_path).samples[:length], rate), clip_path)
        assert main(["--config", str(cfg), "train-codec"]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert name in err and message in err and "Traceback" not in err
        assert not (tmp_path / "ckpt").exists()


class TestScoringCommandsReadOnlyTheTestSplit:
    """eval-fidelity, eval-drop and confusion read the manifest in full but only the test WAVs."""

    COMMANDS = {
        "eval-fidelity": ["eval-fidelity", "--methods", "latent-ig,random-latent"],
        "eval-drop": ["eval-drop", "--methods", "latent-ig,random-latent"],
        "confusion": ["confusion", "--beta", "0.5"],
    }

    @staticmethod
    def corpus(workspace, dest, split=None):
        """A copy of the workspace corpus whose first class is named neutral, so that
        confusion runs on it; with ``split``, that split's first clip is at 8 kHz."""
        root, _ = workspace
        data = dest / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["class_names"][0] = "neutral"
        (data / "manifest.json").write_text(json.dumps(manifest))
        if split is None:
            return data, None
        name = f"clip_{manifest[split][0]:05d}.wav"
        wav_write(AudioClip(wav_read(data / "clips" / name).samples, 8000), data / "clips" / name)
        return data, name

    def run(self, workspace, data, out, command):
        _, cfg = workspace
        dest = out / "confusion.json" if command == "confusion" else out
        return main(["--config", str(cfg), *self.COMMANDS[command], "--data", str(data),
                     "--out", str(dest)])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_clip_outside_the_split_changes_no_byte(self, workspace, tmp_path, command):
        clean, _ = self.corpus(workspace, tmp_path / "clean")
        bad, _ = self.corpus(workspace, tmp_path / "bad", "train_idx")
        assert self.run(workspace, clean, tmp_path / "a", command) == 0
        assert self.run(workspace, bad, tmp_path / "b", command) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir()) and len(names) > 1
        match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b", names,
                                                   shallow=False)
        assert match == names and not mismatch and not errors

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_bad_clip_inside_the_split_exits_4(self, workspace, tmp_path, capsys, command):
        bad, name = self.corpus(workspace, tmp_path, "test_idx")
        assert self.run(workspace, bad, tmp_path / "out", command) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert name in err and "8000 Hz" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


class TestArgumentErrors:
    def test_unparsable_argument_exits_3(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        out = tmp_path / "o" / "expl.wav"
        code = main(["--config", str(cfg), "explain", "--input", str(clip_path),
                     "--alpha", "abc", "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert "invalid float value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_command_exits_3(self, capsys):
        assert main([]) == EXIT_BAD_CONFIG
        assert "required" in capsys.readouterr().err

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["explain", "--help"])
        assert e.value.code == 0
        assert "--alpha" in capsys.readouterr().out


class TestArtifacts:
    def test_dataset_layout(self, workspace):
        root, _ = workspace
        manifest = json.loads((root / "data" / "manifest.json").read_text())
        assert len(manifest["labels"]) == 18
        assert len(list((root / "data" / "clips").glob("*.wav"))) == 18
        assert (root / "data" / "provenance_synth-data.json").is_file()

    def test_checkpoints_written(self, workspace):
        root, _ = workspace
        assert (root / "ckpt" / "codec.ckpt").is_file()
        assert (root / "ckpt" / "classifier.ckpt").is_file()

    def test_provenance_has_hashes_and_no_timestamps(self, workspace):
        root, _ = workspace
        rec = json.loads((root / "ckpt" / "provenance_train-classifier.json").read_text())
        assert set(rec["checkpoint_sha256"]) == {"codec", "classifier"}
        assert all(len(v) == 64 for v in rec["checkpoint_sha256"].values())
        assert "seeds" in rec
        assert not any("time" in k or "date" in k for k in rec)


class TestExplain:
    def test_alpha_one_matches_reconstruction_bitwise(self, workspace, tmp_path):
        root, cfg = workspace
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        out = tmp_path / "expl.wav"
        code = main(["--config", str(cfg), "explain", "--input", str(clip_path),
                     "--alpha", "1.0", "--out", str(out)])
        assert code == 0
        from latentexplain.checkpoint import read_checkpoint

        codec = read_checkpoint(root / "ckpt" / "codec.ckpt")
        ccfg = CodecConfig.from_dict(codec.config)
        clip = wav_read(clip_path)
        recon = decode(encode(clip, codec.params, ccfg), codec.params, ccfg)
        ref = tmp_path / "recon.wav"
        wav_write(recon, ref)
        assert filecmp.cmp(out, ref, shallow=False)

    def test_provenance_names_both_checkpoints(self, workspace, tmp_path):
        root, cfg = workspace
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        out = tmp_path / "expl.wav"
        assert main(["--config", str(cfg), "explain", "--input", str(clip_path),
                     "--alpha", "0.5", "--out", str(out)]) == 0
        rec = json.loads((tmp_path / "provenance_explain.json").read_text())
        assert set(rec["checkpoint_sha256"]) == {"codec", "classifier"}
        assert all(len(v) == 64 for v in rec["checkpoint_sha256"].values())

    def test_config_copied_once_per_provenance(self, workspace, tmp_path, monkeypatch):
        """The provenance record hashes the same config dict it stores."""
        root, cfg = workspace
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        copies = []
        real = cli.asdict

        def counted(obj):
            copies.append(obj)
            return real(obj)

        monkeypatch.setattr(cli, "asdict", counted)
        assert main(["--config", str(cfg), "explain", "--input", str(clip_path),
                     "--alpha", "0.5", "--out", str(tmp_path / "expl.wav")]) == 0
        assert len(copies) == 1
        rec = json.loads((tmp_path / "provenance_explain.json").read_text())
        blob = json.dumps(rec["config"], sort_keys=True, separators=(",", ":"))
        assert rec["config_sha256"] == hashlib.sha256(blob.encode()).hexdigest()

    def test_each_checkpoint_read_once(self, workspace, tmp_path, monkeypatch):
        root, cfg = workspace
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        hashes = {k: file_sha256(root / "ckpt" / f"{k}.ckpt") for k in ("codec", "classifier")}

        def no_second_read(path):
            raise AssertionError(f"{path} hashed apart from its read")

        monkeypatch.setattr(cli, "file_sha256", no_second_read)
        assert main(["--config", str(cfg), "explain", "--input", str(clip_path),
                     "--alpha", "0.5", "--out", str(tmp_path / "expl.wav")]) == 0
        rec = json.loads((tmp_path / "provenance_explain.json").read_text())
        assert rec["checkpoint_sha256"] == hashes

    def test_wrong_sample_rate_rejected(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        clip = wav_read(next((root / "data" / "clips").glob("*.wav")))
        slow = tmp_path / "8k.wav"
        wav_write(AudioClip(clip.samples, 8000), slow)
        out = tmp_path / "expl.wav"
        code = main(["--config", str(cfg), "explain", "--input", str(slow),
                     "--alpha", "0.5", "--out", str(out)])
        assert code == EXIT_DATA_ERROR
        assert "sample rate 8000" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cut", ["header", "blobs", "huge-shape"])
    def test_truncated_checkpoint_is_a_typed_error(self, workspace, tmp_path, capsys, cut):
        """A header shape whose element count overflows int64 reads as too long, not as 0."""
        root, cfg = workspace
        raw = (root / "ckpt" / "codec.ckpt").read_bytes()
        bad = tmp_path / "codec.ckpt"
        if cut == "huge-shape":
            (hlen,) = struct.unpack_from("<I", raw, 4)
            header = json.loads(raw[8 : 8 + hlen])
            header["tensors"][0]["shape"] = [2**32, 2**32]
            forged = json.dumps(header).encode()
            bad.write_bytes(b"AXG1" + struct.pack("<I", len(forged)) + forged + raw[8 + hlen :])
        else:
            bad.write_bytes(b"AXG1\0\0" if cut == "header" else raw[:-100])
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        code = main(["--config", str(cfg), "explain", "--codec", str(bad),
                     "--input", str(clip_path), "--alpha", "0.5",
                     "--out", str(tmp_path / "o.wav")])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_CHECKPOINT
        assert "truncated checkpoint" in err and "Traceback" not in err

    @pytest.mark.parametrize("tensor,key,value", [
        ("b2", "shape", [3.9]), ("pool_max", "shape", [True]), ("w0", "offset", 0.0)])
    def test_header_integers_are_json_integers(self, workspace, tmp_path, capsys, tensor, key,
                                               value):
        """int() would read a shape of [3.9] as [3] and [true] as [1], and load the head."""
        root, cfg = workspace
        raw = (root / "ckpt" / "classifier.ckpt").read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 4)
        header = json.loads(raw[8 : 8 + hlen])
        entry = next(t for t in header["tensors"] if t["name"] == tensor)
        entry[key] = value
        forged = json.dumps(header).encode()
        bad = tmp_path / "classifier.ckpt"
        bad.write_bytes(b"AXG1" + struct.pack("<I", len(forged)) + forged + raw[8 + hlen :])
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        out = tmp_path / "o" / "expl.wav"
        code = main(["--config", str(cfg), "explain", "--classifier", str(bad),
                     "--input", str(clip_path), "--alpha", "0.5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_CHECKPOINT
        assert f"tensor {tensor!r} shape and offset" in err and "Traceback" not in err
        assert not out.parent.exists()

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_header_version_is_the_json_integer_1(self, workspace, tmp_path, capsys, version):
        """true and 1.0 equal 1 in Python, yet neither is the version write_checkpoint writes."""
        root, cfg = workspace
        raw = (root / "ckpt" / "codec.ckpt").read_bytes()
        (hlen,) = struct.unpack_from("<I", raw, 4)
        header = json.loads(raw[8 : 8 + hlen])
        header["version"] = version
        forged = json.dumps(header).encode()
        bad = tmp_path / "codec.ckpt"
        bad.write_bytes(b"AXG1" + struct.pack("<I", len(forged)) + forged + raw[8 + hlen :])
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            read_checkpoint(bad)
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        out = tmp_path / "o" / "expl.wav"
        code = main(["--config", str(cfg), "explain", "--codec", str(bad),
                     "--input", str(clip_path), "--alpha", "0.5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_CHECKPOINT
        assert "unsupported checkpoint version" in err and "Traceback" not in err
        assert not out.parent.exists()

    def test_bad_magic_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        raw = (root / "ckpt" / "classifier.ckpt").read_bytes()
        bad = tmp_path / "classifier.ckpt"
        bad.write_bytes(b"NOPE" + raw[4:])
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        code = main(["--config", str(cfg), "explain", "--classifier", str(bad),
                     "--input", str(clip_path), "--alpha", "0.5",
                     "--out", str(tmp_path / "o.wav")])
        assert code == EXIT_MISSING_CHECKPOINT
        assert "bad magic" in capsys.readouterr().err

    def test_non_finite_checkpoint_exits_2(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        codec = read_checkpoint(root / "ckpt" / "codec.ckpt")
        codec.params["enc0_w"][1, 0, 2] = np.nan
        bad = tmp_path / "codec.ckpt"
        write_checkpoint(codec, bad)
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        out = tmp_path / "o.wav"
        code = main(["--config", str(cfg), "explain", "--codec", str(bad),
                     "--input", str(clip_path), "--alpha", "0.5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_CHECKPOINT
        assert "tensor 'enc0_w' has 1 non-finite values" in err and "Traceback" not in err
        assert not out.exists()

    def test_clip_shorter_than_a_frame_exits_4(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        short = tmp_path / "short.wav"
        wav_write(AudioClip(np.full(10, 0.1), 16000), short)
        code = main(["--config", str(cfg), "explain", "--input", str(short),
                     "--alpha", "0.5", "--out", str(tmp_path / "o.wav")])
        assert code == EXIT_DATA_ERROR
        assert "shorter than one frame" in capsys.readouterr().err

    def test_odd_length_data_chunk_exits_4(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        raw = next((root / "data" / "clips").glob("*.wav")).read_bytes()
        assert raw[36:40] == b"data"
        (size,) = struct.unpack_from("<I", raw, 40)
        odd = tmp_path / "odd.wav"
        odd.write_bytes(raw[:40] + struct.pack("<I", size - 1) + raw[44:-1])
        code = main(["--config", str(cfg), "explain", "--input", str(odd),
                     "--alpha", "0.5", "--out", str(tmp_path / "o.wav")])
        assert code == EXIT_DATA_ERROR
        assert "'data' chunk" in capsys.readouterr().err

    def test_non_finite_sample_exits_4(self, workspace, tmp_path, capsys, monkeypatch):
        root, cfg = workspace
        clip_path = next((root / "data" / "clips").glob("*.wav"))

        def read_with_nan(path):
            clip = wav_read(path)
            clip.samples[3] = np.nan
            return clip

        monkeypatch.setattr(cli, "wav_read", read_with_nan)
        code = main(["--config", str(cfg), "explain", "--input", str(clip_path),
                     "--alpha", "0.5", "--out", str(tmp_path / "o.wav")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA_ERROR
        assert "1 non-finite samples" in err and "Traceback" not in err
        assert not (tmp_path / "o.wav").exists()

    def test_missing_input_wav(self, workspace, tmp_path):
        root, cfg = workspace
        code = main(["--config", str(cfg), "explain", "--input", str(tmp_path / "no.wav"),
                     "--alpha", "0.5", "--out", str(tmp_path / "o.wav")])
        assert code == EXIT_DATA_ERROR


class TestModelsKeptPerProcess:
    """One process keeps the checked models of its last ``MODELS_KEPT`` loads, by both files'
    SHA-256, the clip length and the noise seed."""

    @pytest.fixture
    def run(self, workspace, tmp_path, monkeypatch):
        """explain on copies of the workspace's checkpoints, with an empty cache; counts the
        checkpoint parses and noise-base encodes of each call."""
        root, cfg = workspace
        monkeypatch.setattr(cli, "_kept_models", OrderedDict())
        for kind in ("codec", "classifier"):
            shutil.copy(root / "ckpt" / f"{kind}.ckpt", tmp_path / f"{kind}.ckpt")
        counts = {"parse": 0, "noise": 0}

        def spy(name, real):
            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return counted

        monkeypatch.setattr(cli, "parse_checkpoint", spy("parse", cli.parse_checkpoint))
        monkeypatch.setattr(le_masking, "encode", spy("noise", le_masking.encode))
        calls = []

        def explain(clip=None, noise_seed=None, out=None):
            path = cfg
            if noise_seed is not None:
                raw = json.loads(cfg.read_text())
                raw["attribution"] = {"noise_seed": noise_seed}
                path = tmp_path / f"run{noise_seed}.json"
                path.write_text(json.dumps(raw))
            out = out or tmp_path / f"call{len(calls)}" / "expl.wav"
            before = dict(counts)
            code = main(["--config", str(path), "explain", "--codec", str(tmp_path / "codec.ckpt"),
                         "--classifier", str(tmp_path / "classifier.ckpt"), "--input",
                         str(clip or next((root / "data" / "clips").glob("*.wav"))),
                         "--alpha", "0.5", "--out", str(out)])
            calls.append({k: counts[k] - before[k] for k in counts})
            return code, out

        return explain, calls, tmp_path

    def test_second_call_parses_and_encodes_no_base(self, run):
        explain, calls, _ = run
        (code1, out1), (code2, out2) = explain(), explain()
        assert code1 == code2 == 0
        assert calls == [{"parse": 2, "noise": 1}, {"parse": 0, "noise": 0}]
        assert out1.read_bytes() == out2.read_bytes()
        assert ((out1.parent / "provenance_explain.json").read_bytes()
                == (out2.parent / "provenance_explain.json").read_bytes())

    def test_kept_arrays_are_read_only(self, run):
        explain, _, _ = run
        assert explain()[0] == 0
        (models, _), = cli._kept_models.values()
        arrays = [*models.codec_params.values(), *models.cls_params.values(),
                  models.base_latent.values, models.noise_clip.samples]
        assert not any(a.flags.writeable for a in arrays)

    def test_checkpoint_rewritten_in_place_is_seen(self, run):
        explain, calls, tmp_path = run
        code, first = explain()
        codec = read_checkpoint(tmp_path / "codec.ckpt")
        params = {k: v + np.float32(0.01) if k == "enc0_b" else v for k, v in codec.params.items()}
        write_checkpoint(replace(codec, params=params), tmp_path / "codec.ckpt")
        code2, second = explain()
        assert code == code2 == 0 and calls[1] == {"parse": 2, "noise": 1}  # a pair is kept whole
        rec = json.loads((second.parent / "provenance_explain.json").read_text())
        assert rec["checkpoint_sha256"]["codec"] == file_sha256(tmp_path / "codec.ckpt")
        cli._kept_models.clear()
        code3, fresh = explain()
        assert code3 == 0 and second.read_bytes() == fresh.read_bytes()
        assert second.read_bytes() != first.read_bytes()

    def test_checkpoint_truncated_after_a_good_load_exits_2(self, run, capsys):
        explain, _, tmp_path = run
        assert explain()[0] == 0
        path = tmp_path / "codec.ckpt"
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(CheckpointError) as e:
            read_checkpoint(path)
        capsys.readouterr()
        code, out = explain()
        assert code == EXIT_MISSING_CHECKPOINT
        assert capsys.readouterr().err == f"error code=2 msg={e.value}\n"
        assert not out.exists()
        assert len(cli._kept_models) == 1  # the failed load keeps nothing

    def test_kept_models_still_check_the_sample_rate(self, run, workspace, capsys):
        explain, _, tmp_path = run
        root, _ = workspace
        clip = wav_read(next((root / "data" / "clips").glob("*.wav")))
        slow = tmp_path / "8k.wav"
        wav_write(AudioClip(clip.samples, 8000), slow)
        assert explain()[0] == 0
        capsys.readouterr()
        code, out = explain(clip=slow)
        assert code == EXIT_DATA_ERROR and "sample rate 8000" in capsys.readouterr().err
        assert not out.exists()

    def test_another_noise_seed_or_clip_length_misses(self, run, workspace):
        explain, calls, tmp_path = run
        root, _ = workspace
        clip = wav_read(next((root / "data" / "clips").glob("*.wav")))
        short = tmp_path / "short.wav"
        wav_write(AudioClip(clip.samples[:2048], clip.sample_rate), short)
        for kwargs in ({}, {}, {"noise_seed": 8}, {"clip": short}, {"noise_seed": 8}):
            assert explain(**kwargs)[0] == 0
        assert [c["noise"] for c in calls] == [1, 0, 1, 1, 0]

    def test_at_most_the_bound_kept(self, run):
        explain, calls, _ = run
        seeds = list(range(cli.MODELS_KEPT + 1))
        for seed in seeds:
            assert explain(noise_seed=seed)[0] == 0
        assert len(cli._kept_models) == cli.MODELS_KEPT
        assert explain(noise_seed=seeds[-1])[0] == 0  # the latest load is kept ...
        assert explain(noise_seed=seeds[0])[0] == 0  # ... the least recent one is not
        assert [c["noise"] for c in calls] == [1] * len(seeds) + [0, 1]
        assert len(cli._kept_models) == cli.MODELS_KEPT


class TestEvalCommands:
    def test_fidelity_reports_and_rerun_determinism(self, workspace, tmp_path):
        root, cfg = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code = main(["--config", str(cfg), "eval-fidelity",
                         "--methods", "latent-ig,random-latent", "--out", str(out)])
            assert code == 0
        for stem in ("agreement_latent-ig", "agreement_random-latent"):
            assert filecmp.cmp(a / f"{stem}.json", b / f"{stem}.json", shallow=False)
            assert filecmp.cmp(a / f"{stem}.csv", b / f"{stem}.csv", shallow=False)

    def test_input_ig_reports_same_at_one_and_two_jobs(self, workspace, tmp_path):
        """Each waveform IG call holds its own encoder workspace, so threads share none."""
        root, cfg = workspace
        for jobs in ("1", "2"):
            assert main(["--config", str(cfg), "eval-fidelity", "--methods", "input-ig",
                         "--jobs", jobs, "--out", str(tmp_path / jobs)]) == 0
        for name in ("agreement_input-ig.json", "agreement_input-ig.csv"):
            assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name, shallow=False)

    def test_report_row_counts(self, workspace, tmp_path):
        root, cfg = workspace
        out = tmp_path / "rep"
        code = main(["--config", str(cfg), "eval-drop",
                     "--methods", "random-latent", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "post-removal-accuracy_random-latent.json").read_text())
        assert len(payload["rows"]) == 2  # one per beta in the config
        assert payload["run_count"] == 2

    def test_repeated_ratio_gets_its_own_row(self, workspace, tmp_path):
        _, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw["eval"]["alphas"] = [0.5, 0.5]
        repeated = tmp_path / "repeated.json"
        repeated.write_text(json.dumps(raw))
        out = tmp_path / "rep"
        assert main(["--config", str(repeated), "eval-fidelity",
                     "--methods", "random-latent", "--out", str(out)]) == 0
        payload = json.loads((out / "agreement_random-latent.json").read_text())
        assert [r["ratio"] for r in payload["rows"]] == [0.5, 0.5]
        assert payload["rows"][0] == payload["rows"][1] and payload["run_count"] == 2
        assert (out / "agreement_random-latent.csv").read_text().count("\n0.5,") == 2

    def test_alpha_one_row_is_perfect_agreement(self, workspace, tmp_path):
        root, cfg = workspace
        out = tmp_path / "fid"
        assert main(["--config", str(cfg), "eval-fidelity",
                     "--methods", "latent-ig", "--out", str(out)]) == 0
        payload = json.loads((out / "agreement_latent-ig.json").read_text())
        row = [r for r in payload["rows"] if r["ratio"] == 1.0][0]
        assert row["mean"] == 100.0 and row["std"] == 0.0

    def test_confusion_requires_neutral_class(self, workspace, tmp_path):
        root, cfg = workspace
        code = main(["--config", str(cfg), "confusion", "--out", str(tmp_path / "c.json")])
        assert code == EXIT_DATA_ERROR

    def test_confusion_checks_for_neutral_before_reading_a_wav(self, workspace, tmp_path,
                                                              capsys):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / "clips" / f"clip_{manifest['test_idx'][0]:05d}.wav").write_bytes(b"RIFF")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "confusion", "--data", str(data),
                     "--out", str(out / "c.json")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA_ERROR
        assert "'neutral' class" in err and ".wav" not in err and "Traceback" not in err
        assert not out.exists()


class TestLatentMethodsInPairs:
    """An eval command sweeps its two latent methods at once, the second listed on the codec's
    helper thread; reports and printed lines are those of one-method runs, in list order."""

    @staticmethod
    def run(cfg, command, methods, out, capsys) -> tuple:
        code = main(["--config", str(cfg), command, "--methods", methods, "--out", str(out)])
        captured = capsys.readouterr()
        return code, captured.out.splitlines(), captured.err.splitlines()

    @staticmethod
    def reports(out: Path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(out.glob("*"))
                if not p.name.startswith("provenance")}

    @pytest.mark.parametrize("command", ["eval-fidelity", "eval-drop"])
    def test_same_bytes_as_one_method_runs(self, workspace, tmp_path, capsys, monkeypatch,
                                           command):
        _, cfg = workspace
        threads = []
        for name in ("fidelity_agreement", "accuracy_drop"):
            def spy(*args, _sweep=getattr(cli, name), **kwargs):
                report = _sweep(*args, **kwargs)
                threads.append((report.method, threading.current_thread().name))
                return report
            monkeypatch.setattr(cli, name, spy)
        single, lines = {}, {}
        for methods in ("latent-ig", "random-latent"):
            code, lines[methods], _ = self.run(cfg, command, methods, tmp_path / methods, capsys)
            assert code == 0
            single.update(self.reports(tmp_path / methods))
        for first, second in (("latent-ig", "random-latent"), ("random-latent", "latent-ig")):
            threads.clear()
            out = tmp_path / f"{first},{second}"
            code, printed, _ = self.run(cfg, command, f"{first},{second}", out, capsys)
            assert code == 0
            assert printed == lines[first] + lines[second]
            assert self.reports(out) == single
            names = dict(threads)
            assert len(threads) == 2 and names[first] == threading.current_thread().name
            assert names[second].startswith("encoder-half")

    def test_busy_helper_leaves_both_to_the_caller(self, workspace, tmp_path, capsys,
                                                   busy_helper):
        _, cfg = workspace
        for methods in ("latent-ig,random-latent", "latent-ig", "random-latent"):
            argv = ["--config", str(cfg), "eval-drop", "--methods", methods,
                    "--out", str(tmp_path / methods)]
            assert finishes(lambda: main(argv)) == 0
        single = {**self.reports(tmp_path / "latent-ig"),
                  **self.reports(tmp_path / "random-latent")}
        assert self.reports(tmp_path / "latent-ig,random-latent") == single

    @staticmethod
    def assert_next_pass_splits(monkeypatch):
        assert le_codec._held.acquire(blocking=False), "the helper is still held"
        le_codec._held.release()
        names = []

        def spy(*args, **kwargs):
            names.append(threading.current_thread().name)
            return forward(*args, **kwargs)

        forward = le_codec.encoder_forward
        monkeypatch.setattr(le_codec, "encoder_forward", spy)
        cfg = CodecConfig()
        le_codec.encode_batch(np.zeros((4, 4096), np.float32),
                              le_codec.init_codec_params(cfg, 0), cfg)
        assert len(names) == 2 and any(n.startswith("encoder-half") for n in names)

    @pytest.mark.parametrize("methods", ["latent-ig,random-latent", "random-latent,latent-ig"])
    @pytest.mark.parametrize("command", ["eval-fidelity", "eval-drop"])
    def test_a_failing_method_stops_where_a_serial_run_stops(
            self, workspace, tmp_path, capsys, monkeypatch, command, methods):
        """random-latent raises: the command exits as a serial run would, with the reports
        and lines of the methods listed before it, and the helper is free again."""
        _, cfg = workspace

        def planted(*args, **kwargs):
            raise NonFiniteError("planted failure")

        monkeypatch.setattr(le_eval, "random_attribution", planted)
        runs = {m: self.run(cfg, command, m, tmp_path / m, capsys) for m in ("latent-ig",
                                                                              "random-latent")}
        assert runs["latent-ig"][0] == 0 and runs["random-latent"][0] == EXIT_DATA_ERROR
        out = tmp_path / methods
        code, printed, err = self.run(cfg, command, methods, out, capsys)
        before = methods.split(",")[: methods.split(",").index("random-latent")]
        assert code == runs["random-latent"][0] and err == runs["random-latent"][2]
        assert printed == [line for m in before for line in runs[m][1]]
        assert self.reports(out) == {k: v for m in before
                                     for k, v in self.reports(tmp_path / m).items()}
        self.assert_next_pass_splits(monkeypatch)


class TestInputIGOnClipsLongerThanTheEncoderReads:
    """A codec whose encoder reads 960 of each 1,000-sample clip: both sweeps mask the clips
    with waveform IG maps of the clips' length."""

    def test_sweeps_exit_0(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            dataset={"task": "keyword", "num_classes": 2, "clips_per_class": 10,
                     "clip_length": 1000, "seed": 1},
            codec={"channels": [8, 8, 8], "kernel_sizes": [4, 4, 4], "strides": [4, 4, 4],
                   "latent_channels": 8, "epochs": 1, "batch_size": 4},
            classifier={"epochs": 1}, attribution={"ig_steps": 4})
        for command in ("synth-data", "train-codec", "train-classifier"):
            assert main(["--config", str(cfg), command]) == 0
        for command, stem in (("eval-fidelity", "agreement"),
                              ("eval-drop", "post-removal-accuracy")):
            assert main(["--config", str(cfg), command, "--methods", "input-ig"]) == 0, \
                capsys.readouterr().err
            assert (tmp_path / "reports" / f"{stem}_input-ig.json").is_file()


class TestCorpusFactsComeFromTheCorpus:
    """Clip length and sample rate are read from the corpus, not the config's dataset section."""

    def test_baseline_sized_by_the_corpus_clip_length(self, workspace, tmp_path):
        root, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw["dataset"]["clip_length"] = 8192  # the corpus holds 4,096-sample clips
        longer = tmp_path / "longer.json"
        longer.write_text(json.dumps(raw))
        for config, out in ((cfg, tmp_path / "a"), (longer, tmp_path / "b")):
            assert main(["--config", str(config), "eval-fidelity", "--methods", "latent-ig",
                         "--out", str(out)]) == 0
        for name in ("agreement_latent-ig.json", "agreement_latent-ig.csv"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)

    @pytest.fixture(scope="class")
    def slow_workspace(self, tmp_path_factory):
        """An 8 kHz corpus, its codec trained under a config that sets no sample rate."""
        root = tmp_path_factory.mktemp("slow")
        cfg = write_config(root)
        raw = json.loads(cfg.read_text())
        raw["dataset"]["sample_rate"] = 8000
        synth = root / "synth.json"
        synth.write_text(json.dumps(raw))
        assert main(["--config", str(synth), "synth-data"]) == 0
        assert main(["--config", str(cfg), "train-codec"]) == 0
        assert main(["--config", str(cfg), "train-classifier"]) == 0
        return root, cfg

    def test_codec_stamped_with_the_corpus_rate(self, slow_workspace, tmp_path):
        root, cfg = slow_workspace
        assert read_checkpoint(root / "ckpt" / "codec.ckpt").config["sample_rate"] == 8000
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        assert main(["--config", str(cfg), "explain", "--input", str(clip_path),
                     "--alpha", "0.5", "--out", str(tmp_path / "expl.wav")]) == 0
        assert wav_read(tmp_path / "expl.wav").sample_rate == 8000

    @pytest.mark.parametrize("command", ["eval-fidelity", "confusion", "train-classifier"])
    def test_corpus_at_another_rate_than_the_codec_exits_4(self, workspace, slow_workspace,
                                                          tmp_path, capsys, command):
        """The 8 kHz corpus scored or trained on with the 16 kHz codec of the workspace."""
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(slow_workspace[0] / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["class_names"][0] = "neutral"  # so that confusion gets past its own check
        (data / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        code = main(["--config", str(cfg), command, "--data", str(data),
                     "--out", str(out / "o" if command != "eval-fidelity" else out)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA_ERROR
        assert "sample rate 8000 Hz, the codec expects 16000 Hz" in err
        assert not out.exists()


def _rewrite_checkpoint(src: Path, dest: Path, config=None, params=None) -> Path:
    """A copy of the checkpoint at ``src`` with its config and tensors edited by the callables."""
    ckpt = read_checkpoint(src)
    if config is not None:
        ckpt.config = config(ckpt.config)
    if params is not None:
        ckpt.params = params(ckpt.params)
    write_checkpoint(ckpt, dest)
    return dest


def _without(d: dict, key: str) -> dict:
    return {k: v for k, v in d.items() if k != key}


def _codec_tensors(**config) -> dict:
    """Zero tensors of the shapes that the default codec config with these values gives; the
    values are not checked, so that tensors fit a config that breaks a rule."""
    shapes = codec_param_shapes(SimpleNamespace(**{**CodecConfig().to_dict(), **config}))
    return {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}


def _head_tensors(params: dict, **config) -> dict:
    """``params`` cut or zero-padded to the shapes of a head with these config values, its
    other widths read from ``params``; the ``pool_max`` gate is kept."""
    (latent, hidden), classes = params["w0"].shape, params["b2"].shape[0]
    shapes = classifier_param_shapes(SimpleNamespace(
        **{"num_classes": classes, "latent_channels": latent, "hidden": hidden, **config}))
    out = {}
    for name, shape in shapes.items():
        out[name] = np.zeros(shape, np.float32)
        cut = tuple(slice(0, min(a, b)) for a, b in zip(shape, params[name].shape))
        out[name][cut] = params[name][cut]
    return out


# each value in range and the tensors 4 MB, but the conv taps of 2 x 512 x 512 x 1,024 weights
LAYERS_PAST_THEIR_SUM = {"channels": [512] * 3, "kernel_sizes": [1] * 3, "strides": [1024] * 3,
                         "latent_channels": 512}


class TestCheckpointChecked:
    """A checkpoint config with other fields than its dataclass's, or tensors that do not fit
    it, exits 2."""

    CODEC_CASES = {
        "config-is-a-list": (lambda c: [c], None, "exactly the keys"),
        "extra-key": (lambda c: {**c, "dropout": 0.1}, None, "exactly the keys"),
        "no-strides": (lambda c: _without(c, "strides"), None, "exactly the keys"),
        "float-stride": (lambda c: {**c, "strides": [4.0, 4, 4]}, None, "config.strides"),
        "zero-sample-rate": (lambda c: {**c, "sample_rate": 0}, None, "config.sample_rate"),
        "channels-and-latent-differ": (lambda c: {**c, "latent_channels": 16}, None,
                                       "latent_channels"),
        "wider-than-its-tensors": (lambda c: {**c, "channels": [16, 24, 48],
                                              "latent_channels": 48}, None, "do not match"),
        "missing-tensor": (None, lambda p: _without(p, "dec2_b"), "do not match"),
        "stride-past-the-maximum": (lambda c: {**c, "strides": [1025, 4, 4]}, None,
                                    "config.strides"),
        "channels-past-the-maximum": (lambda c: {**c, "channels": [1025, 24, 32]},
                                      lambda p: _codec_tensors(channels=(1025, 24, 32)),
                                      "config.channels"),
        "empty-lists": (lambda c: {**c, "channels": [], "kernel_sizes": [], "strides": []}, None,
                        "nonempty"),
        "empty-objects": (lambda c: {**c, "channels": {}, "kernel_sizes": {}, "strides": {}},
                          None, "nonempty"),
        "layers-past-their-sum": (
            lambda c: {**c, **LAYERS_PAST_THEIR_SUM},
            lambda p: _codec_tensors(**LAYERS_PAST_THEIR_SUM), "past 2^24"),
    }
    HEAD_CASES = {
        "extra-key": (lambda c: {**c, "dropout": 0.1}, None, "exactly the keys"),
        "no-w1": (None, lambda p: _without(p, "w1"), "do not match"),
        "w0-with-5-rows": (None, lambda p: {**p, "w0": p["w0"][:5]}, "do not match"),
        "bad-pooling": (lambda c: {**c, "pooling": "max"}, None, "pooling"),
        "string-class-count": (lambda c: {**c, "num_classes": "3"}, None, "bad classifier"),
        "zero-classes": (lambda c: {**c, "num_classes": 0},
                         lambda p: {**p, "w2": p["w2"][:, :0], "b2": p["b2"][:0]},
                         "config.num_classes: expected an integer >= 2"),
        "one-class": (lambda c: {**c, "num_classes": 1},
                      lambda p: {**p, "w2": p["w2"][:, :1], "b2": p["b2"][:1]},
                      "config.num_classes: expected an integer >= 2"),
        "latent-channels-of-another-codec": (
            lambda c: {**c, "latent_channels": 16}, lambda p: {**p, "w0": p["w0"][:16]},
            "the classifier reads 16 latent channels, the codec writes 32"),
        # logits of b2 alone: the same class for every clip, and an all-zero IG map
        "no-hidden-units": (lambda c: {**c, "hidden": 0}, lambda p: _head_tensors(p, hidden=0),
                            "config.hidden: expected an integer >= 1"),
        "negative-lr": (lambda c: {**c, "lr": -1.0}, None, "config.lr"),
        "zero-epochs": (lambda c: {**c, "epochs": 0}, None, "config.epochs"),
        "anchor-past-the-classes": (lambda c: {**c, "anchor_class": 99}, None, "anchor_class 99"),
        "fractional-anchor": (lambda c: {**c, "anchor_class": 0.5}, None, "config.anchor_class"),
        "nan-substitution-ratio": (lambda c: {**c, "substitution_max_ratio": float("nan")}, None,
                                   "config.substitution_max_ratio"),
        # the workspace head pools by the mean, whose gate is 0.0
        **{f"mean-with-gate-{gate}": (None, lambda p, g=gate: {**p, "pool_max": np.float32([g])},
                                      "pool_max") for gate in (1.0, 0.37, -5.0)},
        "mean-max-with-gate-0.0": (lambda c: {**c, "pooling": "mean-max"}, None, "pool_max"),
    }

    def run_explain(self, workspace, tmp_path, kind, case):
        root, cfg = workspace
        config, params, _ = (self.CODEC_CASES if kind == "codec" else self.HEAD_CASES)[case]
        bad = _rewrite_checkpoint(root / "ckpt" / f"{kind}.ckpt", tmp_path / f"{kind}.ckpt",
                                  config, params)
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        out = tmp_path / "o" / "expl.wav"
        return main(["--config", str(cfg), "explain", f"--{kind}", str(bad),
                     "--input", str(clip_path), "--alpha", "0.5", "--out", str(out)])

    @pytest.mark.parametrize("case", list(CODEC_CASES))
    def test_codec(self, workspace, tmp_path, capsys, case):
        assert self.run_explain(workspace, tmp_path, "codec", case) == EXIT_MISSING_CHECKPOINT
        err = capsys.readouterr().err
        assert self.CODEC_CASES[case][2] in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("case", list(HEAD_CASES))
    def test_head(self, workspace, tmp_path, capsys, case):
        assert self.run_explain(workspace, tmp_path, "classifier", case) == EXIT_MISSING_CHECKPOINT
        err = capsys.readouterr().err
        assert self.HEAD_CASES[case][2] in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_train_classifier_checks_the_codec(self, workspace, tmp_path, capsys):
        root, cfg = workspace
        bad = _rewrite_checkpoint(root / "ckpt" / "codec.ckpt", tmp_path / "codec.ckpt",
                                  lambda c: _without(c, "strides"))
        out = tmp_path / "o" / "classifier.ckpt"
        assert main(["--config", str(cfg), "train-classifier", "--codec", str(bad),
                     "--out", str(out)]) == EXIT_MISSING_CHECKPOINT
        assert "exactly the keys" in capsys.readouterr().err
        assert not out.exists()


class TestLatentIGBudget:
    """``ig_steps`` x the head's ``hidden`` x the clip's latent frames past 2^24 cells exits 3
    once both checkpoints are read, before any model is built: latent IG would allocate
    them as one float32 buffer. The workspace's clips have 64 frames."""

    class Built(Exception):
        pass

    @pytest.mark.parametrize("ig_steps", [256, 257, 1024])
    def test_explain(self, workspace, tmp_path, capsys, monkeypatch, ig_steps):
        root, cfg = workspace
        ckpt = read_checkpoint(root / "ckpt" / "classifier.ckpt")
        head = tmp_path / "classifier.ckpt"
        write_checkpoint(replace(ckpt, config={**ckpt.config, "hidden": 1024},
                                 params=_head_tensors(ckpt.params, hidden=1024)), head)
        raw = json.loads(cfg.read_text())
        raw["attribution"] = {"ig_steps": ig_steps}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(raw))

        def built(*args, **kwargs):
            raise self.Built

        monkeypatch.setattr(cli, "build_models", built)
        argv = ["--config", str(path), "explain", "--classifier", str(head), "--input",
                str(next((root / "data" / "clips").glob("*.wav"))), "--alpha", "0.5",
                "--out", str(tmp_path / "o" / "expl.wav")]
        if ig_steps * 1024 * 64 <= 2**24:
            with pytest.raises(self.Built):
                main(argv)
            return
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"attribution.ig_steps {ig_steps}" in err and "hidden 1024" in err
        assert not (tmp_path / "o").exists()


class TestEncoderBudget:
    """A codec whose encoder asks the workspace of the command's largest pass for over 2^26
    cells exits 3 once both checkpoints are read, before any model is built. Channels
    [1,024, 32, 32] are within every rule, yet ask about 17 M cells a row of a 16,384-sample
    clip: 135 M for waveform IG's 8-row chunk, but one row for ``explain``. The default codec
    asks about 38 M for that chunk at the longest clip a corpus may have, 2^18 samples."""

    class Built(Exception):
        pass

    WIDE = [1024, 32, 32]

    @pytest.fixture(scope="class")
    def corpora(self, workspace, tmp_path_factory):
        """A corpus of 6 clips of each length; each has one test clip."""
        root, cfg = workspace
        made = {}
        for length in (16384, 2**18):
            raw = json.loads(cfg.read_text())
            raw["dataset"].update(clips_per_class=2, clip_length=length)
            path = tmp_path_factory.mktemp("long") / "run.json"
            path.write_text(json.dumps(raw))
            made[length] = path.parent / "data"
            assert main(["--config", str(path), "synth-data", "--out", str(made[length])]) == 0
        return made

    @pytest.mark.parametrize("command,length,channels,past", [
        ("eval-fidelity", 16384, WIDE, True),
        ("eval-drop", 16384, WIDE, True),
        ("explain", 16384, WIDE, False),
        ("eval-fidelity", 2**18, [16, 24, 32], False),
    ])
    def test_exits_3_past_the_budget(self, workspace, corpora, tmp_path, capsys, monkeypatch,
                                     command, length, channels, past):
        root, cfg = workspace
        codec = _rewrite_checkpoint(root / "ckpt" / "codec.ckpt", tmp_path / "codec.ckpt",
                                    lambda c: {**c, "channels": channels},
                                    lambda p: _codec_tensors(channels=channels))

        def built(*args, **kwargs):
            raise self.Built

        monkeypatch.setattr(cli, "build_models", built)
        out = tmp_path / "o" / "out"
        extra = (["--input", str(next((corpora[length] / "clips").glob("*.wav"))), "--alpha",
                  "0.5"] if command == "explain" else ["--data", str(corpora[length])])
        argv = ["--config", str(cfg), command, "--codec", str(codec), *extra, "--out", str(out)]
        if not past:
            with pytest.raises(self.Built):
                main(argv)
            return
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"error code=3 msg=[^\n]+ past 2\^26\n", err)
        assert not out.parent.exists()

    @pytest.mark.parametrize("channels,past", [(WIDE, True), ([16, 24, 32], False)])
    def test_train_classifier_exits_3_before_reading_a_clip(
            self, workspace, corpora, tmp_path, capsys, monkeypatch, channels, past):
        """``train-classifier`` encodes its 6 clips in one 6-row pass: about 101 M cells for
        the wide codec."""
        root, cfg = workspace
        codec = _rewrite_checkpoint(root / "ckpt" / "codec.ckpt", tmp_path / "codec.ckpt",
                                    lambda c: {**c, "channels": channels},
                                    lambda p: _codec_tensors(channels=channels))

        def read(*args, **kwargs):
            raise self.Built

        monkeypatch.setattr(cli, "read_clips", read)
        out = tmp_path / "o" / "classifier.ckpt"
        argv = ["--config", str(cfg), "train-classifier", "--codec", str(codec), "--data",
                str(corpora[16384]), "--out", str(out)]
        if not past:
            with pytest.raises(self.Built):
                main(argv)
            return
        assert main(argv) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert re.fullmatch(r"error code=3 msg=[^\n]+ a 6-row pass [^\n]+ past 2\^26\n", err)
        assert not out.parent.exists()


class TestCheckpointShapesBuildNoTensor:
    """Checkpoint checks compare shapes from the config alone: no init function runs."""

    @pytest.fixture
    def no_init(self, monkeypatch):
        from latentexplain import classifier, codec

        def refuse(*args, **kwargs):
            raise AssertionError("a checkpoint check drew tensors")

        for module, name in ((codec, "init_codec_params"),
                             (classifier, "init_classifier_params")):
            monkeypatch.setattr(module, name, refuse)
        # the init functions draw from a generator; references held elsewhere reach it too
        monkeypatch.setattr(np.random, "default_rng", refuse)

    def test_good_checkpoints_load(self, workspace, no_init):
        root, _ = workspace
        for kind in ("codec", "classifier"):
            _, ckpt, _ = cli._load_checkpoint(RunConfig(), root / "ckpt" / f"{kind}.ckpt", kind)
            assert ckpt.kind == kind

    def test_huge_widths_exit_2(self, workspace, tmp_path, capsys, no_init):
        root, cfg = workspace
        bad = _rewrite_checkpoint(root / "ckpt" / "codec.ckpt", tmp_path / "codec.ckpt",
                                  lambda c: {**c, "channels": [1048576, 1048576, 32]})
        out = tmp_path / "o" / "expl.wav"
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        assert main(["--config", str(cfg), "explain", "--codec", str(bad), "--input",
                     str(clip_path), "--alpha", "0.5", "--out", str(out)]) == EXIT_MISSING_CHECKPOINT
        err = capsys.readouterr().err
        assert "config.channels: expected" in err and "<= 1024" in err and "Traceback" not in err
        assert not out.parent.exists()


class TestDegenerateSplits:
    """A split a command cannot use exits 4 and names the split, before any WAV or checkpoint
    is read."""

    @pytest.mark.parametrize("command,split,rows", [
        ("eval-fidelity", "test_idx", "empty"),
        ("eval-drop", "test_idx", "empty"),
        ("confusion", "test_idx", "empty"),
        ("train-codec", "train_idx", "empty"),
        ("train-classifier", "train_idx", "empty"),
        ("train-classifier", "train_idx", "one-class"),
        ("train-classifier", "test_idx", "empty"),
    ])
    def test_exits_4(self, workspace, tmp_path, capsys, monkeypatch, command, split, rows):
        root, cfg = workspace
        data = tmp_path / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["class_names"][0] = "neutral"
        if rows == "empty":
            manifest[split] = []
        else:
            manifest[split] = [i for i in manifest[split] if manifest["labels"][i] == 1]
        (data / "manifest.json").write_text(json.dumps(manifest))

        def no_read(*args):
            raise AssertionError(f"read {args[0]} before the split was checked")

        monkeypatch.setattr(cli, "read_clips", no_read)
        monkeypatch.setattr(cli, "read_checkpoint_file", no_read)
        out = tmp_path / "out"
        code = main(["--config", str(cfg), command, "--data", str(data),
                     "--out", str(out if command.startswith("eval") else out / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA_ERROR
        assert f"the {split} split" in err and "Traceback" not in err
        assert ("is empty" if rows == "empty" else "covers 1 class(es)") in err
        assert not out.exists()


class TestUnreadablePaths:
    def test_config_is_a_directory_exits_3(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path), "synth-data", "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_BAD_CONFIG
        assert "is a directory" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_explain_input_is_a_directory_exits_4(self, workspace, tmp_path, capsys):
        _, cfg = workspace
        out = tmp_path / "o" / "expl.wav"
        code = main(["--config", str(cfg), "explain", "--input", str(tmp_path),
                     "--alpha", "0.5", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA_ERROR
        assert "is a directory" in err and "Traceback" not in err
        assert not out.exists()


class TestTrainCodecReadsOnlyTheTrainSplit:
    def test_bad_clip_in_the_test_split_changes_no_byte(self, workspace, tmp_path):
        root, cfg = workspace
        for name in ("clean", "bad"):
            shutil.copytree(root / "data", tmp_path / name)
        manifest = json.loads((tmp_path / "bad" / "manifest.json").read_text())
        (tmp_path / "bad" / "clips" / f"clip_{manifest['test_idx'][0]:05d}.wav").write_bytes(
            b"RIFF")
        for name in ("clean", "bad"):
            assert main(["--config", str(cfg), "train-codec", "--data", str(tmp_path / name),
                         "--out", str(tmp_path / f"{name}.ckpt")]) == 0
        assert filecmp.cmp(tmp_path / "clean.ckpt", tmp_path / "bad.ckpt", shallow=False)
        assert filecmp.cmp(tmp_path / "clean.ckpt", root / "ckpt" / "codec.ckpt", shallow=False)


class TestHeadFitsTheCorpus:
    """A head that predicts another number of classes than the corpus holds exits 2."""

    @pytest.mark.parametrize("command", ["eval-fidelity", "eval-drop", "confusion"])
    def test_exits_2(self, workspace, tmp_path, capsys, command):
        root, cfg = workspace
        scoring = TestScoringCommandsReadOnlyTheTestSplit
        data, _ = scoring.corpus(workspace, tmp_path)
        two = _rewrite_checkpoint(
            root / "ckpt" / "classifier.ckpt", tmp_path / "two.ckpt",
            lambda c: {**c, "num_classes": 2},
            lambda p: {**p, "w2": p["w2"][:, :2], "b2": p["b2"][:2]})
        out = tmp_path / "out"
        code = main(["--config", str(cfg), *scoring.COMMANDS[command], "--data", str(data),
                     "--classifier", str(two),
                     "--out", str(out / "c.json" if command == "confusion" else out)])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_CHECKPOINT
        assert f"the classifier predicts 2 classes, the corpus {data} has 3" in err
        assert "Traceback" not in err and not out.exists()


class TestOutputPathCheckedFirst:
    """An ``--out`` of the wrong kind exits 3 and names ``--out`` before any input is read."""

    # command -> its arguments, and whether its --out is a directory
    COMMANDS = {
        "synth-data": ([], True),
        "train-codec": ([], False),
        "train-classifier": ([], False),
        "explain": (["--input", "IN", "--alpha", "0.5"], False),
        "eval-fidelity": (["--methods", "latent-ig"], True),
        "eval-drop": (["--methods", "latent-ig"], True),
        "confusion": (["--beta", "0.5"], False),
    }

    def run(self, workspace, monkeypatch, command, out):
        root, cfg = workspace

        def no_read(*args):
            raise AssertionError(f"read {args[0]} before --out was checked")

        for name in ("read_manifest", "read_clips", "read_checkpoint_file", "wav_read",
                     "generate_dataset"):
            monkeypatch.setattr(cli, name, no_read)
        clip = str(next((root / "data" / "clips").glob("*.wav")))
        extra = [clip if a == "IN" else a for a in self.COMMANDS[command][0]]
        return main(["--config", str(cfg), command, *extra, "--out", str(out)])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_wrong_kind_exits_3(self, workspace, tmp_path, capsys, monkeypatch, command):
        out = tmp_path / "taken"
        if self.COMMANDS[command][1]:
            out.write_bytes(b"a file")
        else:
            out.mkdir()
        before = sorted(tmp_path.rglob("*"))
        assert self.run(workspace, monkeypatch, command, out) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"--out {out}" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["eval-drop", "train-codec"])
    def test_under_a_file_exits_3(self, workspace, tmp_path, capsys, monkeypatch, command):
        (tmp_path / "file").write_bytes(b"a file")
        out = tmp_path / "file" / "sub" / "o"
        assert self.run(workspace, monkeypatch, command, out) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"{tmp_path / 'file'} is not a directory" in err and "Traceback" not in err

    def test_synth_data_clips_is_a_file_exits_3(self, workspace, tmp_path, capsys, monkeypatch):
        (tmp_path / "clips").write_bytes(b"a file")
        assert self.run(workspace, monkeypatch, "synth-data", tmp_path) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert f"--out {tmp_path / 'clips'}" in err and "Traceback" not in err


# one bit flipped (position taken modulo the file length), the tail cut (the length kept is
# taken modulo the file length) or bytes appended
MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**32), st.integers(0, 7)),
    st.tuples(st.just("truncate"), st.integers(0, 2**32)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=64)),
)


def _mutated(raw: bytes, mutation) -> bytes:
    kind, arg = mutation[0], mutation[1:]
    if kind == "flip":
        pos = arg[0] % len(raw)
        return raw[:pos] + bytes([raw[pos] ^ 1 << arg[1]]) + raw[pos + 1 :]
    if kind == "truncate":
        return raw[: arg[0] % len(raw)]
    return raw + arg[0]


class TestExplainFuzz:
    """A damaged checkpoint or WAV ends ``explain`` with exit 0, 2 or 4 and, on an error, one
    ``error code=N msg=...`` line; never exit 1 or a traceback."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @pytest.mark.parametrize("kind", ["codec", "classifier", "wav"])
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(mutation=MUTATIONS)
    def test_exit_is_documented(self, workspace, scratch, kind, mutation):
        root, cfg = workspace
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        src = clip_path if kind == "wav" else root / "ckpt" / f"{kind}.ckpt"
        bad = scratch / src.name
        bad.write_bytes(_mutated(src.read_bytes(), mutation))
        wav, ckpt = (bad, []) if kind == "wav" else (clip_path, [f"--{kind}", str(bad)])
        argv = ["--config", str(cfg), "explain", "--input", str(wav), *ckpt,
                "--alpha", "0.5", "--out", str(scratch / "o.wav")]
        err = StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            code = main(argv)
        assert code in (0, EXIT_MISSING_CHECKPOINT, EXIT_DATA_ERROR), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert re.fullmatch(rf"error code={code} msg=[^\n]+\n", err.getvalue())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8,
)
# where a value is replaced: each top-level key, each spec field and the first element of each list
MANIFEST_PATHS = [(k,) for k in ("version", "spec", "class_names", "labels", "train_idx",
                                 "test_idx", "meta")]
MANIFEST_PATHS += [("spec", f.name) for f in fields(cli.SyntheticDatasetSpec)]
MANIFEST_PATHS += [(k, 0) for k in ("class_names", "labels", "train_idx", "test_idx")]


class TestManifestFuzz:
    """A manifest with one value replaced by any JSON value ends ``eval-fidelity`` and
    ``train-classifier`` with exit 0, 2, 3 or 4 and, on an error, one ``error code=N msg=...``
    line; never exit 1 or a traceback."""

    @pytest.fixture(scope="class")
    def corpus(self, workspace, tmp_path_factory):
        root, _ = workspace
        data = tmp_path_factory.mktemp("manifest_fuzz") / "data"
        shutil.copytree(root / "data", data)
        return data, json.loads((data / "manifest.json").read_text())

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(path=st.sampled_from(MANIFEST_PATHS), value=JSON_VALUES)
    def test_exit_is_documented(self, workspace, corpus, path, value):
        _, cfg = workspace
        data, _ = corpus
        self.run(corpus, path, value, ["--config", str(cfg), "eval-fidelity", "--data",
                                       str(data), "--methods", "latent-ig,random-latent",
                                       "--out", str(data.parent / "reports")])

    @pytest.fixture(scope="class")
    def one_epoch(self, workspace, corpus):
        """The workspace config with one head epoch, so that a head trains in milliseconds."""
        _, cfg = workspace
        raw = json.loads(cfg.read_text())
        raw["classifier"]["epochs"] = 1
        path = corpus[0].parent / "one_epoch.json"
        path.write_text(json.dumps(raw))
        return path

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(path=st.sampled_from(MANIFEST_PATHS), value=JSON_VALUES)
    def test_train_classifier_exit_is_documented(self, workspace, corpus, one_epoch, path,
                                                 value):
        """``train-classifier`` also reads ``train_idx``, which must cover two classes."""
        root, _ = workspace
        data, _ = corpus
        self.run(corpus, path, value, ["--config", str(one_epoch), "train-classifier", "--data",
                                       str(data), "--codec", str(root / "ckpt" / "codec.ckpt"),
                                       "--out", str(data.parent / "head" / "classifier.ckpt")])

    @staticmethod
    def run(corpus, path, value, argv):
        data, manifest = corpus
        edited = json.loads(json.dumps(manifest))
        *parents, last = path
        node = edited
        for key in parents:
            node = node[key]
        node[last] = value
        (data / "manifest.json").write_text(json.dumps(edited))
        err = StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            code = main(argv)
        assert code in (0, EXIT_MISSING_CHECKPOINT, EXIT_BAD_CONFIG, EXIT_DATA_ERROR), \
            err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert re.fullmatch(rf"error code={code} msg=[^\n]+\n", err.getvalue())


# any JSON value a config file can hold: a scalar (integers up to 2**70, and NaN and the
# infinities, which ``json`` reads), or a list or object of them
CONFIG_SCALARS = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats()
                  | st.text(max_size=8))
CONFIG_VALUES = (CONFIG_SCALARS | st.lists(CONFIG_SCALARS, max_size=4)
                 | st.dictionaries(st.text(max_size=4), CONFIG_SCALARS, max_size=2))
CONFIG_SECTIONS = {section.name: [f.name for f in fields(getattr(RunConfig(), section.name))]
                   for section in fields(RunConfig) if section.name != "schema_version"}


class TestConfigFuzz:
    """A run config with one value of a section replaced by any JSON value ends ``explain``
    with exit 0, 2, 3 or 4 and, on an error, one ``error code=N msg=...`` line; never exit 1
    or a traceback. No value may make it hold more than 64 MiB at once on the test
    workspace: at the values' maxima it holds under 18 MiB."""

    @pytest.fixture(scope="class")
    def scratch(self, tmp_path_factory):
        return tmp_path_factory.mktemp("config_fuzz")

    @pytest.mark.parametrize("section", list(CONFIG_SECTIONS))
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_exit_is_documented(self, workspace, scratch, section, data):
        root, cfg = workspace
        raw = json.loads(cfg.read_text())
        key = data.draw(st.sampled_from(CONFIG_SECTIONS[section]))
        raw.setdefault(section, {})[key] = data.draw(CONFIG_VALUES)
        edited = scratch / "run.json"
        edited.write_text(json.dumps(raw))
        argv = ["--config", str(edited), "explain", "--input",
                str(next((root / "data" / "clips").glob("*.wav"))), "--alpha", "0.5",
                "--out", str(scratch / "o.wav")]
        err = StringIO()
        tracemalloc.start()
        try:
            with redirect_stderr(err), redirect_stdout(StringIO()):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code in (0, EXIT_MISSING_CHECKPOINT, EXIT_BAD_CONFIG, EXIT_DATA_ERROR), \
            err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert re.fullmatch(rf"error code={code} msg=[^\n]+\n", err.getvalue())
        assert peak < 64 * 2**20


class TestCheckpointConfigFuzz:
    """A codec checkpoint whose ``channels``, ``kernel_sizes`` and ``strides`` are replaced by
    one and the same JSON value, so that their lengths agree, loads or exits 2; never another
    exception."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(value=CONFIG_VALUES)
    def test_loads_or_exits_2(self, workspace, tmp_path_factory, value):
        root, _ = workspace
        widths = dict.fromkeys(("channels", "kernel_sizes", "strides"), value)
        bad = _rewrite_checkpoint(root / "ckpt" / "codec.ckpt",
                                  tmp_path_factory.mktemp("ckpt") / "codec.ckpt",
                                  lambda c: {**c, **widths})
        try:
            cli._load_checkpoint(RunConfig(), bad, "codec")
        except CheckpointError:
            pass


def _int_in(value, low, high=None) -> bool:
    return (not isinstance(value, bool) and isinstance(value, int) and value >= low
            and (high is None or value <= high))


def _real_where(value, holds) -> bool:
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and abs(value) < float("inf") and holds(value))


# each value of a head checkpoint's config and the rule that a run config holds it to (the
# dataset's num_classes, the codec's latent_channels, the classifier section's other keys);
# anchor_class and substitution_max_ratio are set by training, not by a run config
HEAD_RULES = {
    "num_classes": lambda v: _int_in(v, 2, 1024),
    "latent_channels": lambda v: _int_in(v, 1, 1024),
    "hidden": lambda v: _int_in(v, 1, 1024),
    "lr": lambda v: _real_where(v, lambda x: x > 0),
    "batch_size": lambda v: _int_in(v, 1),
    "epochs": lambda v: _int_in(v, 1),
    "pooling": lambda v: isinstance(v, str) and v in POOLINGS,
    "anchor_class": lambda v: v is None or _int_in(v, 0),
    "substitution_max_ratio": lambda v: _real_where(v, lambda x: 0 <= x <= 1),
}


class TestHeadCheckpointConfigFuzz:
    """A head checkpoint with one config value replaced by any JSON value, its tensors fitted
    to a width that the value gives, loads only if the value keeps its rule, and otherwise
    raises CheckpointError; never another exception."""

    @pytest.fixture(scope="class")
    def head(self, workspace, tmp_path_factory):
        root, _ = workspace
        return read_checkpoint(root / "ckpt" / "classifier.ckpt"), tmp_path_factory.mktemp("head")

    @pytest.mark.parametrize("key", list(HEAD_RULES))
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(value=CONFIG_VALUES)
    @example(value=0)  # hidden 0: logits of the last bias alone, one class for every clip
    def test_loads_only_values_that_keep_their_rule(self, head, key, value):
        ckpt, scratch = head
        params = ckpt.params
        if key in ("num_classes", "latent_channels", "hidden") and _int_in(value, 0, 256):
            params = _head_tensors(params, **{key: value})
        write_checkpoint(replace(ckpt, config={**ckpt.config, key: value}, params=params),
                         scratch / "classifier.ckpt")
        try:
            cli._load_checkpoint(RunConfig(), scratch / "classifier.ckpt", "classifier")
        except CheckpointError:
            return
        assert HEAD_RULES[key](value), f"{key}={value!r} loaded"


@pytest.mark.parametrize("make", [
    lambda: CodecConfig(channels=(0, 16, 32)),
    lambda: ClassifierConfig(num_classes=8, hidden=0, lr=-1.0, epochs=0),
    lambda: le_codec.CodecTrainConfig(batch_size=0),
    lambda: CodecConfig(channels="abc", kernel_sizes="xyz", strides="123", latent_channels="c"),
    lambda: ClassifierConfig(num_classes=2, substitution_max_ratio=float("nan")),
    lambda: cli.SyntheticDatasetSpec(task="keyword", num_classes=1),
], ids=["zero-channels", "head-out-of-range", "zero-batch", "strings", "nan-ratio", "one-class"])
def test_direct_construction_keeps_the_rules(make):
    """What a command rejects, a config dataclass made in code rejects too."""
    with pytest.raises(ValueError):
        make()


def _section_reader(name):
    def read(config, scratch):
        path = scratch / "run.json"
        path.write_text(json.dumps({"schema_version": 1, name: asdict(config)}))
        return getattr(RunConfig.from_file(path), name)
    return read


def _manifest_reader(spec, scratch):
    (scratch / "manifest.json").write_text(json.dumps({
        "version": 1, "spec": spec.to_dict(), "labels": [], "train_idx": [], "test_idx": [],
        "class_names": [f"c{i}" for i in range(spec.num_classes)]}))
    return read_manifest(scratch).spec


def _checkpoint_reader(kind, param_shapes):
    def read(config, scratch):
        params = {name: np.zeros(shape, np.float32) for name, shape in param_shapes(config).items()}
        if kind == "classifier":
            params["pool_max"][0] = POOL_GATES[config.pooling]
        write_checkpoint(Checkpoint(kind, json.loads(json.dumps(asdict(config))), params),
                         scratch / f"{kind}.ckpt")
        return cli._load_checkpoint(RunConfig(), scratch / f"{kind}.ckpt", kind)[2]
    return read


# each config dataclass, the values it needs, and the readers that take its JSON form back
DIRECT = {
    "paths": (cli.PathsConfig, {}, [_section_reader("paths")]),
    "codec-section": (cli.CodecSection, {}, [_section_reader("codec")]),
    "classifier-section": (cli.ClassifierSection, {}, [_section_reader("classifier")]),
    "attribution": (cli.AttributionSection, {}, [_section_reader("attribution")]),
    "eval": (cli.EvalSection, {}, [_section_reader("eval")]),
    "spec": (cli.SyntheticDatasetSpec, {"task": "keyword"},
             [_section_reader("dataset"), _manifest_reader]),
    "codec-train": (le_codec.CodecTrainConfig, {},
                    [lambda c, scratch: _section_reader("codec")(c, scratch).train_config()]),
    "codec": (CodecConfig, {}, [_checkpoint_reader("codec", codec_param_shapes)]),
    "head": (ClassifierConfig, {"num_classes": 3},
             [_checkpoint_reader("classifier", classifier_param_shapes)]),
}
# any value, with widths and counts in and around their ranges drawn more often
DIRECT_VALUES = (CONFIG_VALUES | st.integers(-2, 1100)
                 | st.lists(st.integers(0, 1100), min_size=1, max_size=4).map(tuple))


class TestDirectConstruction:
    """A config dataclass with one field set to any value either raises ValueError or is one
    that every reader of its JSON form accepts unchanged: no rule lives only in a reader."""

    @pytest.mark.parametrize("kind", list(DIRECT))
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_raises_or_reads_back(self, tmp_path_factory, kind, data):
        cls, needed, readers = DIRECT[kind]
        key = data.draw(st.sampled_from([f.name for f in fields(cls)]))
        try:
            config = cls(**{**needed, key: data.draw(DIRECT_VALUES)})
        except ValueError:
            return
        scratch = tmp_path_factory.mktemp("direct")
        for read in readers:
            assert read(config, scratch) == config

    @pytest.mark.parametrize("key", ["channels", "kernel_sizes", "strides"])
    def test_codec_section_keeps_layer_lists(self, tmp_path, key):
        """Built from a tuple, a section holds a list, as its JSON form reads back."""
        config = cli.CodecSection(**{key: tuple(getattr(cli.CodecSection(), key))})
        assert type(getattr(config, key)) is list
        assert _section_reader("codec")(config, tmp_path) == config


STORE = "maps_input-ig.bin"
EVAL_COMMANDS = ("eval-fidelity", "eval-drop")


def _quiet_main(argv) -> tuple:
    """``main(argv)`` with its output held back: the exit code and what went to stderr."""
    err = StringIO()
    with redirect_stderr(err), redirect_stdout(StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _outputs(out: Path) -> dict:
    """Every file an eval command wrote into ``out`` but the map store, by name."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != STORE}


class TestMapStore:
    """An eval command keeps its input-IG maps in ``maps_input-ig.bin`` in its ``--out``. The
    next eval command into that directory reads them back where their size and key hold, and
    computes and rewrites them where they do not; its files are those of a fresh run."""

    @staticmethod
    def run(cfg, command, out, *extra) -> int:
        code, err = _quiet_main(["--config", str(cfg), command, "--methods",
                                 "input-ig,random-input", "--out", str(out), *extra])
        assert "Traceback" not in err
        return code

    def test_each_map_computed_once(self, workspace, tmp_path, monkeypatch):
        root, cfg = workspace
        calls = []

        def spy(*args, _ig=le_eval.integrated_gradients_input, **kwargs):
            calls.append(1)
            return _ig(*args, **kwargs)

        monkeypatch.setattr(le_eval, "integrated_gradients_input", spy)
        clips = len(read_manifest(root / "data").test_idx)
        shared = tmp_path / "shared"
        for command in EVAL_COMMANDS:
            assert self.run(cfg, command, shared) == 0
        assert len(calls) == clips
        alone = {}
        for command in EVAL_COMMANDS:
            assert self.run(cfg, command, tmp_path / command) == 0
            assert (tmp_path / command / STORE).read_bytes() == (shared / STORE).read_bytes()
            alone.update(_outputs(tmp_path / command))
        assert len(calls) == 3 * clips
        assert _outputs(shared) == alone

    def test_store_bytes_depend_on_neither_the_out_path_nor_jobs(self, workspace, tmp_path):
        _, cfg = workspace
        a, b = tmp_path / "a", tmp_path / "deeper" / "b"
        assert self.run(cfg, "eval-fidelity", a, "--jobs", "1") == 0
        assert self.run(cfg, "eval-fidelity", b, "--jobs", "2") == 0
        assert (a / STORE).read_bytes() == (b / STORE).read_bytes()

    @pytest.mark.parametrize("kind", ["directory", "fifo"])
    def test_store_path_that_is_no_file_exits_0(self, workspace, tmp_path, kind):
        """The maps are computed and the reports written; a FIFO is never opened."""
        _, cfg = workspace
        out = tmp_path / "out"
        out.mkdir()
        if kind == "directory":
            (out / STORE).mkdir()
            (out / STORE / "inside").write_text("kept")
        else:
            os.mkfifo(out / STORE)
        for command in EVAL_COMMANDS:
            assert finishes(lambda: self.run(cfg, command, out)) == 0
            assert self.run(cfg, command, tmp_path / command) == 0
        assert _outputs(out) == {**_outputs(tmp_path / EVAL_COMMANDS[0]),
                                 **_outputs(tmp_path / EVAL_COMMANDS[1])}
        if kind == "directory":
            assert (out / STORE / "inside").read_text() == "kept"
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


# stores of the same size as the property's own, written from other inputs or by code of
# another MAPS_VERSION
FOREIGN_STORES = ("ig_steps", "noise_seed", "test_subset", "checkpoint", "maps_version")


class TestMapStoreFuzz:
    """``eval-drop`` into a directory whose store was damaged (a bit flipped, the tail cut,
    bytes appended) or written from other inputs gives a fresh run's files and rewrites the
    store as a fresh run writes it."""

    @pytest.fixture(scope="class")
    def stores(self, workspace, tmp_path_factory):
        root, cfg = workspace
        scratch = tmp_path_factory.mktemp("storefuzz")

        def config(name, **attribution):
            raw = json.loads(cfg.read_text())
            raw["attribution"] = {"ig_steps": 8, **attribution}
            (scratch / name).write_text(json.dumps(raw))
            return scratch / name

        def run(cfg_path, command, *extra):
            out = scratch / f"out{len(list(scratch.iterdir()))}"
            code, _ = _quiet_main(["--config", str(cfg_path), command, "--methods", "input-ig",
                                   "--out", str(out), *extra])
            assert code == 0
            return out

        cfg8 = config("run8.json")
        fresh, drop = run(cfg8, "eval-fidelity"), run(cfg8, "eval-drop")
        blob = (fresh / STORE).read_bytes()
        assert (drop / STORE).read_bytes() == blob
        data = scratch / "data"
        shutil.copytree(root / "data", data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["test_idx"][0] = manifest["train_idx"][0]
        (data / "manifest.json").write_text(json.dumps(manifest))
        head = _rewrite_checkpoint(root / "ckpt" / "classifier.ckpt", scratch / "head.ckpt",
                                   params=lambda p: {**p, "w0": p["w0"] * np.float32(1.1)})
        foreign = {"ig_steps": run(config("run9.json", ig_steps=9), "eval-fidelity"),
                   "noise_seed": run(config("noise.json", noise_seed=8), "eval-fidelity"),
                   "test_subset": run(cfg8, "eval-fidelity", "--data", str(data)),
                   "checkpoint": run(cfg8, "eval-fidelity", "--classifier", str(head))}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(le_eval, "MAPS_VERSION", le_eval.MAPS_VERSION + 1)
            foreign["maps_version"] = run(cfg8, "eval-fidelity")
        foreign = {k: (out / STORE).read_bytes() for k, out in foreign.items()}
        assert all(len(b) == len(blob) and b != blob for b in foreign.values())
        return SimpleNamespace(cfg=cfg8, scratch=scratch, store=blob, foreign=foreign,
                               drop=_outputs(drop))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(damage=st.one_of(MUTATIONS, st.sampled_from(FOREIGN_STORES)))
    def test_recomputed_and_rewritten(self, stores, damage):
        out = stores.scratch / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        blob = stores.foreign[damage] if isinstance(damage, str) else _mutated(stores.store,
                                                                                damage)
        (out / STORE).write_bytes(blob)
        code, err = _quiet_main(["--config", str(stores.cfg), "eval-drop", "--methods",
                                 "input-ig", "--out", str(out)])
        assert code == 0, err
        assert (out / STORE).read_bytes() == stores.store
        assert _outputs(out) == stores.drop
