"""End-to-end CLI tests on a miniature workspace: exit codes, artifacts, determinism."""

import filecmp
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from latentexplain.audio import AudioClip, wav_read, wav_write
from latentexplain.cli import (
    EXIT_BAD_CONFIG,
    EXIT_DATA_ERROR,
    EXIT_MISSING_CHECKPOINT,
    main,
)
from latentexplain.codec import CodecConfig, decode, encode


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

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 2}))
        assert main(["--config", str(path), "synth-data"]) == EXIT_BAD_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["--config", str(path), "synth-data"]) == EXIT_BAD_CONFIG

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

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs(self, workspace, tmp_path, capsys, jobs):
        _, cfg = workspace
        out = tmp_path / "rep"
        code = main(["--config", str(cfg), "eval-drop", "--methods", "latent-ig",
                     "--jobs", jobs, "--out", str(out)])
        assert code == EXIT_BAD_CONFIG
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("cut", ["header", "blobs"])
    def test_truncated_checkpoint_is_a_typed_error(self, workspace, tmp_path, capsys, cut):
        root, cfg = workspace
        raw = (root / "ckpt" / "codec.ckpt").read_bytes()
        bad = tmp_path / "codec.ckpt"
        bad.write_bytes(b"AXG1\0\0" if cut == "header" else raw[:-100])
        clip_path = next((root / "data" / "clips").glob("*.wav"))
        code = main(["--config", str(cfg), "explain", "--codec", str(bad),
                     "--input", str(clip_path), "--alpha", "0.5",
                     "--out", str(tmp_path / "o.wav")])
        err = capsys.readouterr().err
        assert code == EXIT_MISSING_CHECKPOINT
        assert "truncated checkpoint" in err and "Traceback" not in err

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

    def test_missing_input_wav(self, workspace, tmp_path):
        root, cfg = workspace
        code = main(["--config", str(cfg), "explain", "--input", str(tmp_path / "no.wav"),
                     "--alpha", "0.5", "--out", str(tmp_path / "o.wav")])
        assert code == EXIT_DATA_ERROR


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
