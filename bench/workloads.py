"""The four workloads: seeded inputs, set-up, one timed unit, and the checks.

``make_inputs`` runs in the run.py process and writes everything a workload
reads (configs, manifests, request lists) into the run directory, derived
only from the seed. The worker process builds the workload with ``make``,
sets it up, runs units, and calls ``check``; the program sees nothing but
those generated inputs.

Functions of the program are always looked up through their module at call
time, so a tracer or a test can replace them.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

import prepare
import reference

import latentexplain.attribution as le_attribution
import latentexplain.audio as le_audio
import latentexplain.checkpoint as le_checkpoint
import latentexplain.classifier as le_classifier
import latentexplain.cli as le_cli
import latentexplain.codec as le_codec
import latentexplain.data as le_data
import latentexplain.evalharness as le_eval
import latentexplain.masking as le_masking

KEEP_RATIOS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
IG_STEPS = 64          # RunConfig default
NOISE_SEED = 7         # RunConfig default
EVAL_RUNS = 5          # RunConfig default
# label share the explain predictions must reach: criterion 3's 90% test accuracy
MIN_LABEL_SHARE = 0.9
COMPLETENESS_TOL = 0.01

SIZES = {
    # requests per round: one per keep ratio on each task, alternating tasks
    "explain": {"round": 2 * len(KEEP_RATIOS), "completeness_clips": 2},
    # clips of the keyword test split in one eval-fidelity + eval-drop repeat
    "sweep-latent": {"clips": 32},
    # sized so that a repeat lasts about as long as a sweep-latent repeat
    "sweep-waveform": {"clips": 6},
    # codec: 64 clips, 1 epoch of batch 16; heads: 128 latents, 4 epochs of batch 32
    "train": {"codec_clips": 64, "codec_epochs": 1, "head_clips": 128, "head_epochs": 4},
}
TINY = {
    "explain": {"round": 4, "completeness_clips": 1},
    "sweep-latent": {"clips": 4},
    "sweep-waveform": {"clips": 1},
    "train": {"codec_clips": 8, "codec_epochs": 1, "head_clips": 40, "head_epochs": 1},
}
WORKLOADS = tuple(SIZES)


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, tag]))


def _manifest(task: str) -> dict:
    with open(prepare.corpus_dir(task) / "manifest.json") as f:
        return json.load(f)


def _write_json(path: Path, obj) -> str:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True))
    return str(path)


def _read_clip(wav, sample_rate: int):
    return le_audio.AudioClip(reference.pcm_to_float(reference.read_wav(wav).pcm), sample_rate)


def make_inputs(workload: str, seed: int, run_dir: Path, tiny: bool = False) -> dict:
    """Write the seeded inputs of one run into run_dir; return the spec the worker reads."""
    sizes = (TINY if tiny else SIZES)[workload]
    spec = {"workload": workload, "seed": seed, "run_dir": str(run_dir), "sizes": sizes,
            "src": str(prepare.ROOT / "src")}
    ckpt = {t: {k: str(v) for k, v in prepare.checkpoint_paths(t).items()} for t in prepare.TASKS}
    if workload == "explain":
        rng = _rng(seed, 1)
        orders = {}
        for task in prepare.TASKS:
            man = _manifest(task)
            idx = rng.permutation(man["test_idx"])
            clips = prepare.corpus_dir(task) / "clips"
            orders[task] = [[str(clips / f"clip_{i:05d}.wav"), man["labels"][i]] for i in idx]
        configs = {
            task: _write_json(run_dir / f"config_{task}.json", {
                "schema_version": 1, "dataset": prepare.dataset_spec(task).to_dict()})
            for task in prepare.TASKS
        }
        n = sizes["completeness_clips"]
        spec.update(
            orders=orders, configs=configs, checkpoints=ckpt,
            ratios=[float(r) for r in rng.permutation(KEEP_RATIOS)],
            # completeness and full-keep checks use clips the timed loop reaches last
            completeness={t: orders[t][-1 - n:-1] for t in prepare.TASKS},
            full_keep=orders["keyword"][-1],
        )
    elif workload in ("sweep-latent", "sweep-waveform"):
        rng = _rng(seed, 2)
        man = _manifest("keyword")
        subset = [int(i) for i in rng.permutation(man["test_idx"])[:sizes["clips"]]]
        base_seed = int(rng.integers(0, 2**31 - 1))
        data_dir = run_dir / "data"
        data_dir.mkdir()
        os.symlink(prepare.corpus_dir("keyword") / "clips", data_dir / "clips")
        _write_json(data_dir / "manifest.json", {**man, "test_idx": subset})
        config = {"schema_version": 1, "dataset": prepare.dataset_spec("keyword").to_dict(),
                  "eval": {"base_seed": base_seed}}
        methods = (["latent-ig", "random-latent"] if workload == "sweep-latent"
                   else ["input-ig", "random-input"])
        spec.update(
            config=_write_json(run_dir / "config.json", config), data=str(data_dir),
            checkpoints=ckpt["keyword"], methods=methods, base_seed=base_seed,
            labels=[man["labels"][i] for i in subset],
            clip_paths=[str(data_dir / "clips" / f"clip_{i:05d}.wav") for i in subset],
            alphas=list(le_eval.DEFAULT_ALPHAS), betas=list(le_eval.DEFAULT_BETAS),
            rebuild={"agreement": float(rng.choice(le_eval.DEFAULT_ALPHAS)),
                     "post-removal-accuracy": float(rng.choice(le_eval.DEFAULT_BETAS))},
        )
    elif workload == "train":
        rng = _rng(seed, 3)
        kw, emo = _manifest("keyword"), _manifest("emotion")
        # fixed slices spread over every class; the seed only orders them
        kw_train, emo_train = np.asarray(kw["train_idx"]), np.asarray(emo["train_idx"])
        codec_slice = kw_train[:: len(kw_train) // sizes["codec_clips"]][: sizes["codec_clips"]]
        kw_slice = kw_train[:: len(kw_train) // sizes["head_clips"]][: sizes["head_clips"]]
        emo_slice = emo_train[:: len(emo_train) // sizes["head_clips"]][: sizes["head_clips"]]
        spec.update(
            checkpoints=ckpt,
            corpora={t: str(prepare.corpus_dir(t)) for t in prepare.TASKS},
            codec_slice=[int(i) for i in rng.permutation(codec_slice)],
            kw_slice=[int(i) for i in rng.permutation(kw_slice)],
            emo_slice=[int(i) for i in rng.permutation(emo_slice)],
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


class Explain:
    """In-process ``explain`` commands, one clip WAV per request, tasks alternating."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.run_dir = Path(spec["run_dir"])
        self.units_per_round = spec["sizes"]["round"]
        self.clips_per_unit = 1
        self.done = []  # (out_path, label, task, input_path, exit code)

    def _argv(self, task, wav, ratio, out):
        ck = self.spec["checkpoints"][task]
        return ["--config", self.spec["configs"][task], "explain", "--codec", ck["codec"],
                "--classifier", ck["classifier"], "--input", wav, "--alpha", repr(ratio),
                "--out", str(out)]

    def warmup(self, tag: str) -> None:
        wav, _label = self.spec["orders"]["keyword"][-1]
        out = self.run_dir / "explain" / f"warmup{tag}" / "expl.wav"
        if le_cli.main(self._argv("keyword", wav, self.spec["ratios"][0], out)) != 0:
            raise RuntimeError("warm-up explain failed")

    def unit(self, i: int) -> bool:
        task = prepare.TASKS[i % 2]
        order = self.spec["orders"][task]
        wav, label = order[(i // 2) % len(order)]
        ratio = self.spec["ratios"][(i // 2) % len(self.spec["ratios"])]
        out = self.run_dir / "explain" / f"req{i:05d}" / "expl.wav"
        code = le_cli.main(self._argv(task, wav, ratio, out))
        self.done.append((out, label, task, wav, code))
        return code == 0

    def check(self) -> list:
        fails = []
        inputs = {}
        hits = {t: [0, 0] for t in prepare.TASKS}
        for out, label, task, wav, code in self.done:
            if code != 0:
                continue
            if wav not in inputs:
                inputs[wav] = reference.read_wav(wav)
            src, got = inputs[wav], reference.read_wav(out)
            if (got.tag, got.channels, got.bits) != (1, 1, 16):
                fails.append(f"{out}: not mono 16-bit PCM")
            if got.rate != src.rate:
                fails.append(f"{out}: sample rate {got.rate}, input has {src.rate}")
            if len(got.pcm) != len(src.pcm):
                fails.append(f"{out}: {len(got.pcm)} samples, input has {len(src.pcm)}")
            if got.pcm.size and int(np.abs(got.pcm.astype(np.int32)).max()) > 32767:
                fails.append(f"{out}: samples outside [-1, 1]")
            with open(out.parent / "provenance_explain.json") as f:
                predicted = json.load(f)["predicted_class"]
            hits[task][0] += int(predicted == label)
            hits[task][1] += 1
        if len(fails) > 5:
            fails = fails[:5] + [f"... {len(fails) - 5} more explanation files failed"]
        for task, (ok, n) in hits.items():
            if n and ok < MIN_LABEL_SHARE * n:
                fails.append(f"explain {task}: predicted_class matches the label on {ok}/{n}")
        fails += self._check_completeness()
        fails += self._check_full_keep()
        return fails

    def _models(self, task):
        ck = self.spec["checkpoints"][task]
        return (le_checkpoint.read_checkpoint(ck["codec"]),
                le_checkpoint.read_checkpoint(ck["classifier"]))

    def _check_completeness(self) -> list:
        fails = []
        for task in prepare.TASKS:
            codec, head = self._models(task)
            cfg = le_codec.CodecConfig.from_dict(codec.config)
            for wav, _label in self.spec["completeness"][task]:
                clip = _read_clip(wav, cfg.sample_rate)
                z = le_codec.encode(clip, codec.params, cfg)
                base = le_masking.make_base_latent(codec.params, cfg, len(clip), NOISE_SEED)
                logits = reference.head_logits(np.stack([z.values, base.values]), head.params)
                target = int(np.argmax(logits[0]))
                att = le_attribution.integrated_gradients_latent(z, base, head.params, target,
                                                                 IG_STEPS)
                gap = float(logits[0, target] - logits[1, target])
                total = float(np.sum(att.scores, dtype=np.float64))
                if not abs(total - gap) <= COMPLETENESS_TOL * abs(gap):
                    fails.append(f"latent IG of {wav}: scores sum {total:.6g}, "
                                 f"logit gap {gap:.6g}")
        return fails

    def _check_full_keep(self) -> list:
        wav, _label = self.spec["full_keep"]
        out = self.run_dir / "explain" / "full_keep" / "expl.wav"
        code = le_cli.main(self._argv("keyword", wav, 1.0, out))
        if code != 0:
            return [f"explain at ratio 1.0 exited {code}"]
        codec, _head = self._models("keyword")
        cfg = le_codec.CodecConfig.from_dict(codec.config)
        clip = _read_clip(wav, cfg.sample_rate)
        recon = le_codec.decode(le_codec.encode(clip, codec.params, cfg), codec.params, cfg)
        if not np.array_equal(reference.read_wav(out).pcm, reference.quantize(recon.samples)):
            return [f"explain at ratio 1.0 of {wav} differs from the plain reconstruction"]
        return []

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir / "explain", ignore_errors=True)


class Sweep:
    """``eval-fidelity`` then ``eval-drop`` over a seeded keyword test subset: one unit."""

    COMMANDS = (("eval-fidelity", "agreement"), ("eval-drop", "post-removal-accuracy"))

    def __init__(self, spec: dict):
        self.spec = spec
        self.run_dir = Path(spec["run_dir"])
        self.units_per_round = 1
        self.clips_per_unit = len(spec["clip_paths"])
        self.done = []  # (report dir, exit codes)

    def _run(self, out: Path) -> list:
        s, ck = self.spec, self.spec["checkpoints"]
        return [le_cli.main(["--config", s["config"], cmd, "--data", s["data"],
                             "--codec", ck["codec"], "--classifier", ck["classifier"],
                             "--methods", ",".join(s["methods"]), "--out", str(out)])
                for cmd, _metric in self.COMMANDS]

    def warmup(self, tag: str) -> None:
        if any(self._run(self.run_dir / "reports" / f"warmup{tag}")):
            raise RuntimeError("warm-up sweep failed")

    def unit(self, i: int) -> bool:
        out = self.run_dir / "reports" / f"rep{i:03d}"
        codes = self._run(out)
        self.done.append((out, codes))
        return not any(codes)

    def check(self) -> list:
        s = self.spec
        ig, rand = s["methods"]
        ratios = {"agreement": s["alphas"], "post-removal-accuracy": s["betas"]}
        seeds = [s["base_seed"] + r for r in range(EVAL_RUNS)]
        fails, first = [], None
        for out, codes in self.done:
            if any(codes):
                continue
            files = {(metric, m): out / f"{metric}_{m}.json"
                     for _cmd, metric in self.COMMANDS for m in s["methods"]}
            blobs = {k: p.read_bytes() for k, p in files.items()}
            if first is None:
                first = blobs
                fails += self._check_reports(
                    {k: json.loads(b) for k, b in blobs.items()}, ratios, seeds, ig, rand)
            elif blobs != first:
                fails.append(f"{out}: reports differ from the first repeat's")
        if first is not None:
            fails += self._rebuild({k: json.loads(b) for k, b in first.items()})
        return fails

    @staticmethod
    def _check_reports(reports, ratios, seeds, ig, rand) -> list:
        fails = []
        for (metric, method), rep in reports.items():
            got = [row["ratio"] for row in rep["rows"]]
            if got != ratios[metric] or rep["run_count"] != EVAL_RUNS or rep["seeds"] != seeds:
                fails.append(f"{metric} {method}: ratios {got}, run_count {rep['run_count']}, "
                             f"seeds {rep['seeds']}")
            if method == ig and any(row["std"] != 0.0 for row in rep["rows"]):
                fails.append(f"{metric} {method}: deterministic method has nonzero std")
        for metric, better in (("agreement", 1), ("post-removal-accuracy", -1)):
            for a, b in zip(reports[(metric, ig)]["rows"], reports[(metric, rand)]["rows"]):
                if better * (a["mean"] - b["mean"]) < 0:
                    fails.append(f"{metric} at {a['ratio']}: {ig} {a['mean']} vs {rand} {b['mean']}")
        return fails

    def _rebuild(self, reports) -> list:
        """Recompute one cell of each report from public attribution and head functions."""
        s = self.spec
        ck = s["checkpoints"]
        codec = le_checkpoint.read_checkpoint(ck["codec"])
        head = le_checkpoint.read_checkpoint(ck["classifier"]).params
        cfg = le_codec.CodecConfig.from_dict(codec.config)
        clips = np.stack([reference.pcm_to_float(reference.read_wav(p).pcm)
                          for p in s["clip_paths"]])
        labels = np.asarray(s["labels"])
        models = le_eval.build_models(cfg, codec.params, head, clip_length=clips.shape[1],
                                      noise_seed=NOISE_SEED, ig_steps=IG_STEPS)
        latents = le_codec.encode_batch(clips, codec.params, cfg)
        orig = le_classifier.predict_batch(latents, head)
        latent_space = s["methods"][0] == "latent-ig"
        items = latents if latent_space else clips
        base = models.base_latent.values if latent_space else models.noise_clip.samples

        def score(maps, ratio, metric):
            op, ref = (reference.keep, orig) if metric == "agreement" else (reference.remove, labels)
            masked = np.stack([op(v, base, reference.top_cells(m, ratio))
                               for v, m in zip(items, maps)]).astype(np.float32)
            if not latent_space:
                masked = le_codec.encode_batch(masked, codec.params, cfg)
            return 100.0 * float(np.mean(le_classifier.predict_batch(masked, head) == ref))

        if latent_space:
            ig_atts = [le_attribution.integrated_gradients_latent(
                le_codec.LatentGrid(z), models.base_latent, head, int(t), IG_STEPS)
                for z, t in zip(latents, orig)]
        else:
            ig_atts = [le_attribution.integrated_gradients_input(
                x, base, codec.params, cfg, head, int(t), IG_STEPS) for x, t in zip(clips, orig)]
        ig_maps = [att.scores for att in ig_atts]
        fails = []
        for (metric, method), rep in reports.items():
            ratio = s["rebuild"][metric]
            if method == s["methods"][0]:
                values = [score(ig_maps, ratio, metric)] * EVAL_RUNS
            else:
                values = []
                for run in range(EVAL_RUNS):
                    maps = [le_attribution.random_attribution(
                        items.shape[1:], seed=reference.derive_seed(s["base_seed"] + run, i),
                        method=method).scores for i in range(len(items))]
                    values.append(score(maps, ratio, metric))
            arr = np.asarray(values, dtype=np.float64)
            want = (float(arr.mean()), float(arr.std(ddof=0)))
            row = next(r for r in rep["rows"] if r["ratio"] == ratio)
            if (row["mean"], row["std"]) != want:
                fails.append(f"{metric} {method} at {ratio}: report {row['mean']}±{row['std']}, "
                             f"rebuilt {want[0]}±{want[1]}")
            if method == s["methods"][0]:
                fails += self._check_masks(ig_atts, items, models, ratio, metric)
        return fails

    @staticmethod
    def _check_masks(atts, items, models, ratio, metric) -> list:
        """The sweep's own masking calls give the reference masks on the rebuilt cell."""
        keep_top = metric == "agreement"
        mode = le_masking.KEEP_TOP if keep_top else le_masking.REMOVE_TOP
        fails = []
        for i, (att, v) in enumerate(zip(atts, items)):
            cells = reference.top_cells(att.scores, ratio)
            if v.ndim == 2:
                base = models.base_latent.values
                mask = le_eval.select_top(att, ratio, mode=mode)
                apply = le_eval.apply_mask_keep if keep_top else le_eval.apply_mask_remove
                got = apply(le_codec.LatentGrid(v), mask, models.base_latent).values
            else:
                base = models.noise_clip.samples
                mask_fn = le_eval.mask_input_space if keep_top else le_eval.mask_input_space_remove
                clip = le_audio.AudioClip(v, models.codec_config.sample_rate)
                got = mask_fn(clip, att, ratio, models.noise_clip).samples
            want = (reference.keep if keep_top else reference.remove)(v, base, cells)
            if not np.array_equal(got, want):
                fails.append(f"{mode} masking of clip {i} at {ratio} differs from the rebuilt mask")
        return fails

    def cleanup(self) -> None:
        shutil.rmtree(self.run_dir / "reports", ignore_errors=True)


class Train:
    """Codec training on a keyword slice, then the keyword and the emotion head: one unit."""

    def __init__(self, spec: dict):
        s = self.spec = spec
        sizes = s["sizes"]
        self.units_per_round = 1
        self.clips_per_unit = (sizes["codec_clips"] * sizes["codec_epochs"]
                               + 2 * sizes["head_clips"] * sizes["head_epochs"])
        ck = s["checkpoints"]
        codec_kw = le_checkpoint.read_checkpoint(ck["keyword"]["codec"])
        codec_emo = le_checkpoint.read_checkpoint(ck["emotion"]["codec"])
        kw = le_data.load_dataset(s["corpora"]["keyword"])
        emo = le_data.load_dataset(s["corpora"]["emotion"])
        self.cfg = le_codec.CodecConfig.from_dict(codec_kw.config)
        self.codec_clips = kw.clips[s["codec_slice"]]
        self.train_cfg = le_codec.CodecTrainConfig(epochs=sizes["codec_epochs"])
        self.kw_lat = le_codec.encode_batch(kw.clips[s["kw_slice"]], codec_kw.params, self.cfg)
        self.kw_lab = kw.labels[s["kw_slice"]]
        self.emo_lat = le_codec.encode_batch(emo.clips[s["emo_slice"]], codec_emo.params, self.cfg)
        self.emo_lab = emo.labels[s["emo_slice"]]
        self.base = le_masking.make_base_latent(
            codec_emo.params, self.cfg, emo.clips.shape[1], NOISE_SEED).values
        self.kw_cfg = le_classifier.ClassifierConfig(
            num_classes=len(kw.class_names), latent_channels=self.cfg.latent_channels,
            epochs=sizes["head_epochs"])
        self.emo_cfg = le_classifier.ClassifierConfig(
            num_classes=len(emo.class_names), latent_channels=self.cfg.latent_channels,
            epochs=sizes["head_epochs"], pooling="mean-max",
            anchor_class=emo.class_names.index("neutral"))
        self.results = []  # (codec, kw head, emo head) checkpoints per unit, warm-up first

    def _round(self):
        return (
            le_codec.train_autoencoder(self.codec_clips, self.cfg, self.train_cfg, seed=0),
            le_classifier.train_classifier(self.kw_lat, self.kw_lab, self.kw_cfg, seed=0),
            le_classifier.train_classifier(self.emo_lat, self.emo_lab, self.emo_cfg, seed=0,
                                           substitution_base=self.base),
        )

    def warmup(self, tag: str) -> None:
        self.results.append(self._round())

    def unit(self, i: int) -> bool:
        self.results.append(self._round())
        return True

    def check(self) -> list:
        fails = []
        names = ("codec", "keyword head", "emotion head")
        hashes = [[le_checkpoint.params_sha256(c.params) for c in r] for r in self.results]
        for k, name in enumerate(names):
            if len({h[k] for h in hashes}) != 1:
                fails.append(f"{name}: parameters differ between repeats of one training call")
        codec, kw_head, emo_head = self.results[0]
        ks, st = self.cfg.kernel_sizes, self.cfg.strides
        init = reference.codec_mse(self.codec_clips,
                                   le_codec.init_codec_params(self.cfg, 0), ks, st)
        after = reference.codec_mse(self.codec_clips, codec.params, ks, st)
        if not after < init:
            fails.append(f"codec: loss {after:.6g} after training, {init:.6g} at the seed init")
        for name, head, lat, lab, cfg in (("keyword head", kw_head, self.kw_lat, self.kw_lab,
                                           self.kw_cfg),
                                          ("emotion head", emo_head, self.emo_lat, self.emo_lab,
                                           self.emo_cfg)):
            init = reference.cross_entropy(
                reference.head_logits(lat, le_classifier.init_classifier_params(cfg, 0)), lab)
            after = reference.cross_entropy(reference.head_logits(lat, head.params), lab)
            if not after < init:
                fails.append(f"{name}: loss {after:.6g} after training, {init:.6g} at the seed init")
        return fails

    def cleanup(self) -> None:
        pass


def make(spec: dict):
    """Set up the workload described by spec (the warm-up unit is separate)."""
    cls = {"explain": Explain, "sweep-latent": Sweep, "sweep-waveform": Sweep, "train": Train}
    return cls[spec["workload"]](spec)
