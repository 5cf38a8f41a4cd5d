"""Command-line pipeline: data synthesis, training, explanation, and evaluation.

Every subcommand reads a JSON run config (unknown keys rejected, flags
override file values) and writes a provenance record next to its
artifacts so any output can be reproduced byte-identically.

Exit codes: 0 success, 2 missing or unreadable checkpoint, 3 malformed config
or arguments (including an argument argparse rejects, a ratio outside [0, 1] in
``--alpha``, ``--beta``, ``eval.alphas`` or ``eval.betas``, and a ``--jobs``,
``eval.runs``, ``eval.base_seed``, ``attribution.ig_steps`` or
``attribution.noise_seed`` that is not an integer in range; all checked before
any input is read), 4 data error (including a clip shorter than one latent frame).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .audio import LengthError, WavFormatError, wav_read, wav_write
from .checkpoint import Checkpoint, CheckpointError, file_sha256, read_checkpoint, write_checkpoint
from .classifier import ClassifierConfig, evaluate_accuracy, predict_batch, train_classifier
from .codec import CodecConfig, CodecTrainConfig, LatentGrid, decode, encode, encode_batch, train_autoencoder
from .data import DatasetError, SyntheticDatasetSpec, generate_dataset, load_dataset, save_dataset
from .attribution import integrated_gradients_latent
from .masking import apply_mask_keep, check_ratio, make_base_latent, select_top
from .evalharness import (
    ALL_METHODS,
    DEFAULT_ALPHAS,
    DEFAULT_BETAS,
    accuracy_drop,
    build_models,
    confusion_after_removal,
    fidelity_agreement,
    write_report,
    write_report_csv,
)

SCHEMA_VERSION = 1

EXIT_MISSING_CHECKPOINT = 2
EXIT_BAD_CONFIG = 3
EXIT_DATA_ERROR = 4


class ConfigError(ValueError):
    pass


def _check_ratios(where: str, ratios) -> None:
    """ConfigError unless ``ratios`` is a list of numbers in [0, 1], the rule of ``select_top``."""
    if not isinstance(ratios, list):
        raise ConfigError(f"{where}: expected a list of ratios")
    try:
        for r in ratios:
            check_ratio(r)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}") from e


def _check_int(where: str, value, low: int) -> None:
    """ConfigError unless ``value`` is an integer (not a bool) of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise ConfigError(f"{where}: expected an integer >= {low}, got {value!r}")


def _from_dict(cls, d: dict, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    return cls(**d)


@dataclass
class PathsConfig:
    data_dir: str = "data"
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"


@dataclass
class CodecSection:
    channels: list = field(default_factory=lambda: [16, 24, 32])
    kernel_sizes: list = field(default_factory=lambda: [8, 8, 8])
    strides: list = field(default_factory=lambda: [4, 4, 4])
    latent_channels: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    batch_size: int = 16
    epochs: int = 30
    seed: int = 0


@dataclass
class ClassifierSection:
    hidden: int = 64
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 150
    seed: int = 0
    # None: choose by dataset ("mean-max" when a neutral class exists, else "mean")
    pooling: str | None = None


@dataclass
class AttributionSection:
    ig_steps: int = 64
    noise_seed: int = 7


@dataclass
class EvalSection:
    alphas: list = field(default_factory=lambda: list(DEFAULT_ALPHAS))
    betas: list = field(default_factory=lambda: list(DEFAULT_BETAS))
    runs: int = 5
    base_seed: int = 1234


@dataclass
class RunConfig:
    schema_version: int = SCHEMA_VERSION
    paths: PathsConfig = field(default_factory=PathsConfig)
    dataset: SyntheticDatasetSpec = field(
        default_factory=lambda: SyntheticDatasetSpec(task="keyword")
    )
    codec: CodecSection = field(default_factory=CodecSection)
    classifier: ClassifierSection = field(default_factory=ClassifierSection)
    attribution: AttributionSection = field(default_factory=AttributionSection)
    eval: EvalSection = field(default_factory=EvalSection)

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {path}") from e
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {raw.get('schema_version')}")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
        cfg = cls()
        if "paths" in raw:
            cfg.paths = _from_dict(PathsConfig, raw["paths"], "paths")
        if "dataset" in raw:
            try:
                cfg.dataset = _from_dict(SyntheticDatasetSpec, raw["dataset"], "dataset")
            except DatasetError as e:
                raise ConfigError(f"dataset: {e}") from e
        if "codec" in raw:
            cfg.codec = _from_dict(CodecSection, raw["codec"], "codec")
        if "classifier" in raw:
            cfg.classifier = _from_dict(ClassifierSection, raw["classifier"], "classifier")
        if "attribution" in raw:
            cfg.attribution = _from_dict(AttributionSection, raw["attribution"], "attribution")
            _check_int("attribution.ig_steps", cfg.attribution.ig_steps, 1)
            _check_int("attribution.noise_seed", cfg.attribution.noise_seed, 0)
        if "eval" in raw:
            cfg.eval = _from_dict(EvalSection, raw["eval"], "eval")
            _check_ratios("eval.alphas", cfg.eval.alphas)
            _check_ratios("eval.betas", cfg.eval.betas)
            _check_int("eval.runs", cfg.eval.runs, 1)
            _check_int("eval.base_seed", cfg.eval.base_seed, 0)
        return cfg

    def codec_config(self) -> CodecConfig:
        return CodecConfig(
            sample_rate=self.dataset.sample_rate,
            channels=tuple(self.codec.channels),
            kernel_sizes=tuple(self.codec.kernel_sizes),
            strides=tuple(self.codec.strides),
            latent_channels=self.codec.latent_channels,
        )

    def codec_train_config(self) -> CodecTrainConfig:
        return CodecTrainConfig(
            lr=self.codec.lr, beta1=self.codec.beta1, beta2=self.codec.beta2,
            batch_size=self.codec.batch_size, epochs=self.codec.epochs,
        )

    def sha256(self) -> str:
        blob = json.dumps(_as_jsonable(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _as_jsonable(obj):
    if hasattr(obj, "__dataclass_fields__"):
        return {f.name: _as_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple)):
        return [_as_jsonable(x) for x in obj]
    return obj


def _write_provenance(out_dir: Path, command: str, config: RunConfig, checkpoints: dict,
                      extra: dict | None = None) -> None:
    record = {
        "command": command,
        "package_version": __version__,
        "config_sha256": config.sha256(),
        "config": _as_jsonable(config),
        "checkpoint_sha256": checkpoints,
        "seeds": {
            "dataset": config.dataset.seed,
            "codec": config.codec.seed,
            "classifier": config.classifier.seed,
            "noise": config.attribution.noise_seed,
            "eval_base": config.eval.base_seed,
        },
    }
    if extra:
        record.update(extra)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"provenance_{command}.json", "w") as f:
        json.dump(record, f, sort_keys=True, indent=1)


def _checkpoint_path(cfg: RunConfig, given, kind: str) -> Path:
    """The path given on the command line, else ``<checkpoint_dir>/<kind>.ckpt``."""
    return Path(given or Path(cfg.paths.checkpoint_dir) / f"{kind}.ckpt")


def _load_checkpoint(cfg: RunConfig, given, kind: str) -> tuple[Path, Checkpoint]:
    p = _checkpoint_path(cfg, given, kind)
    if not p.is_file():
        raise CheckpointError(f"missing {kind} checkpoint: {p}")
    ckpt = read_checkpoint(p)
    if ckpt.kind != kind:
        raise CheckpointError(f"{p} holds a {ckpt.kind!r} checkpoint, expected {kind!r}")
    return p, ckpt


def _load_data(path):
    p = Path(path)
    if not (p / "manifest.json").is_file():
        raise DatasetError(f"no dataset manifest under {p}")
    return load_dataset(p)


def _load_models(cfg: RunConfig, args, clip_length: int):
    """Both checkpoints, checked, and the explainer models for clips of ``clip_length``.

    Returns the models and the two checkpoint paths, named as in provenance.
    """
    codec_path, codec_ckpt = _load_checkpoint(cfg, args.codec, "codec")
    cls_path, cls_ckpt = _load_checkpoint(cfg, args.classifier, "classifier")
    models = build_models(
        CodecConfig.from_dict(codec_ckpt.config), codec_ckpt.params, cls_ckpt.params,
        clip_length=clip_length, noise_seed=cfg.attribution.noise_seed,
        ig_steps=cfg.attribution.ig_steps,
    )
    return models, {"codec": codec_path, "classifier": cls_path}


def _hashes(paths: dict) -> dict:
    return {name: file_sha256(p) for name, p in paths.items()}


def cmd_synth_data(cfg: RunConfig, args) -> int:
    spec = cfg.dataset
    if args.task and args.task != spec.task:
        spec = SyntheticDatasetSpec.from_dict({**spec.to_dict(), "task": args.task})
        if args.task == "emotion" and cfg.dataset.task != "emotion":
            spec = SyntheticDatasetSpec(
                task="emotion", num_classes=5, clips_per_class=100,
                clip_length=cfg.dataset.clip_length, sample_rate=cfg.dataset.sample_rate,
                seed=cfg.dataset.seed,
            )
    out = Path(args.out or cfg.paths.data_dir)
    ds = generate_dataset(spec)
    save_dataset(ds, out)
    _write_provenance(out, "synth-data", cfg, {}, {"clips": int(len(ds.labels))})
    print(f"wrote {len(ds.labels)} clips ({spec.task}, {spec.num_classes} classes) to {out}")
    return 0


def cmd_train_codec(cfg: RunConfig, args) -> int:
    ds = _load_data(args.data or cfg.paths.data_dir)
    codec_cfg = cfg.codec_config()
    ckpt = train_autoencoder(
        ds.clips[ds.train_idx], codec_cfg, cfg.codec_train_config(), seed=cfg.codec.seed
    )
    out = _checkpoint_path(cfg, args.out, "codec")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_checkpoint(ckpt, out)
    _write_provenance(out.parent, "train-codec", cfg, {"codec": file_sha256(out)})
    print(f"codec trained: final loss {ckpt.metadata['final_loss']:.6f} -> {out}")
    return 0


def cmd_train_classifier(cfg: RunConfig, args) -> int:
    ds = _load_data(args.data or cfg.paths.data_dir)
    codec_path, codec_ckpt = _load_checkpoint(cfg, args.codec, "codec")
    codec_hash_before = file_sha256(codec_path)
    codec_cfg = CodecConfig.from_dict(codec_ckpt.config)
    latents = encode_batch(ds.clips, codec_ckpt.params, codec_cfg)
    # datasets with a neutral class get neutral-anchored base substitution so
    # explanation removal falls back to neutral rather than an arbitrary class
    anchor = ds.class_names.index("neutral") if "neutral" in ds.class_names else None
    pooling = cfg.classifier.pooling
    if pooling is None:
        pooling = "mean-max" if anchor is not None else "mean"
    head_cfg = ClassifierConfig(
        num_classes=len(ds.class_names),
        latent_channels=codec_cfg.latent_channels,
        hidden=cfg.classifier.hidden,
        lr=cfg.classifier.lr,
        batch_size=cfg.classifier.batch_size,
        epochs=cfg.classifier.epochs,
        pooling=pooling,
        anchor_class=anchor,
    )
    sub_base = None
    if anchor is not None:
        sub_base = make_base_latent(
            codec_ckpt.params, codec_cfg, cfg.dataset.clip_length, cfg.attribution.noise_seed
        ).values
    ckpt = train_classifier(
        latents[ds.train_idx], ds.labels[ds.train_idx], head_cfg, seed=cfg.classifier.seed,
        substitution_base=sub_base,
    )
    acc = evaluate_accuracy(latents[ds.test_idx], ds.labels[ds.test_idx], ckpt.params)
    ckpt.metadata["test_accuracy"] = acc
    out = _checkpoint_path(cfg, args.out, "classifier")
    out.parent.mkdir(parents=True, exist_ok=True)
    write_checkpoint(ckpt, out)
    codec_hash_after = file_sha256(codec_path)
    if codec_hash_after != codec_hash_before:
        raise CheckpointError("encoder checkpoint changed during classifier training")
    _write_provenance(
        out.parent, "train-classifier", cfg,
        {"codec": codec_hash_after, "classifier": file_sha256(out)},
        {"test_accuracy": acc},
    )
    print(f"classifier trained: test accuracy {100 * acc:.1f}% -> {out}")
    return 0


def cmd_explain(cfg: RunConfig, args) -> int:
    _check_ratios("--alpha", [args.alpha])
    clip = wav_read(args.input)
    models, ckpt_paths = _load_models(cfg, args, len(clip))
    codec_cfg = models.codec_config
    if clip.sample_rate != codec_cfg.sample_rate:
        raise WavFormatError(
            f"{args.input}: sample rate {clip.sample_rate} Hz, "
            f"the codec expects {codec_cfg.sample_rate} Hz"
        )
    z = encode(clip, models.codec_params, codec_cfg)
    target = int(predict_batch(z.values[None], models.cls_params)[0])
    att = integrated_gradients_latent(
        z, models.base_latent, models.cls_params, target, models.ig_steps
    )
    mask = select_top(att, args.alpha)
    masked = apply_mask_keep(z, mask, models.base_latent)
    explanation = decode(masked, models.codec_params, codec_cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    wav_write(explanation, out)
    _write_provenance(
        out.parent, "explain", cfg, _hashes(ckpt_paths),
        {"input": str(args.input), "alpha": args.alpha, "predicted_class": target},
    )
    print(f"explanation (class {target}, alpha={args.alpha}) -> {out}")
    return 0


def _cmd_eval(cfg: RunConfig, args, metric: str) -> int:
    _check_int("--jobs", args.jobs, 1)
    methods = args.methods.split(",") if args.methods else list(ALL_METHODS)
    for mname in methods:
        if mname not in ALL_METHODS:
            raise ConfigError(f"unknown method {mname!r}; choose from {list(ALL_METHODS)}")
    ds = _load_data(args.data or cfg.paths.data_dir)
    models, ckpt_paths = _load_models(cfg, args, cfg.dataset.clip_length)
    clips, labels = ds.subset(ds.test_idx)
    out_dir = Path(args.out or cfg.paths.report_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_id = f"{ds.spec.task}-seed{ds.spec.seed}"
    for mname in methods:
        if metric == "agreement":
            report = fidelity_agreement(
                clips, models, mname, ratios=cfg.eval.alphas, runs=cfg.eval.runs,
                base_seed=cfg.eval.base_seed, dataset_id=dataset_id, jobs=args.jobs,
            )
        else:
            report = accuracy_drop(
                clips, labels, models, mname, ratios=cfg.eval.betas, runs=cfg.eval.runs,
                base_seed=cfg.eval.base_seed, dataset_id=dataset_id, jobs=args.jobs,
            )
        stem = f"{metric}_{mname}"
        write_report(report, out_dir / f"{stem}.json")
        write_report_csv(report, out_dir / f"{stem}.csv")
        summary = ", ".join(f"{r.ratio:g}:{r.mean:.1f}±{r.std:.1f}" for r in report.rows)
        print(f"{metric} [{mname}]: {summary}")
    _write_provenance(
        out_dir, f"eval-{'fidelity' if metric == 'agreement' else 'drop'}", cfg,
        _hashes(ckpt_paths),
    )
    return 0


def cmd_confusion(cfg: RunConfig, args) -> int:
    _check_ratios("--beta", [args.beta])
    ds = _load_data(args.data or cfg.paths.data_dir)
    if "neutral" not in ds.class_names:
        raise DatasetError("confusion requires a dataset with a 'neutral' class")
    models, ckpt_paths = _load_models(cfg, args, cfg.dataset.clip_length)
    clips, labels = ds.subset(ds.test_idx)
    mat = confusion_after_removal(clips, labels, len(ds.class_names), models, args.beta)
    out = Path(args.out or Path(cfg.paths.report_dir) / "confusion.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(
            {"beta": args.beta, "class_names": list(ds.class_names), "matrix": mat.tolist()},
            f, sort_keys=True, indent=1,
        )
    _write_provenance(
        out.parent, "confusion", cfg, _hashes(ckpt_paths),
        {"beta": args.beta},
    )
    print(f"confusion matrix (beta={args.beta}) -> {out}")
    for name, row in zip(ds.class_names, mat):
        print(f"  {name:>8}: {row.tolist()}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latentexplain",
                                description="Audio explanations from latent-space attribution")
    p.add_argument("--config", default=None, help="JSON run config (defaults used if omitted)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth-data", help="generate a synthetic dataset")
    sp.add_argument("--task", choices=["keyword", "emotion"], default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("train-codec", help="train the autoencoder")
    sp.add_argument("--data", default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("train-classifier", help="train the latent-space classifier head")
    sp.add_argument("--data", default=None)
    sp.add_argument("--codec", default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("explain", help="write the audio explanation for one WAV")
    sp.add_argument("--codec", default=None)
    sp.add_argument("--classifier", default=None)
    sp.add_argument("--input", required=True)
    sp.add_argument("--alpha", type=float, required=True)
    sp.add_argument("--out", required=True)

    for name in ("eval-fidelity", "eval-drop"):
        sp = sub.add_parser(name, help=f"{name} sweep over all methods")
        sp.add_argument("--data", default=None)
        sp.add_argument("--codec", default=None)
        sp.add_argument("--classifier", default=None)
        sp.add_argument("--methods", default=None, help="comma-separated subset of methods")
        sp.add_argument("--out", default=None)
        sp.add_argument("--jobs", type=int, default=1)

    sp = sub.add_parser("confusion", help="confusion matrix after explanation removal")
    sp.add_argument("--data", default=None)
    sp.add_argument("--codec", default=None)
    sp.add_argument("--classifier", default=None)
    sp.add_argument("--beta", type=float, default=0.1)
    sp.add_argument("--out", default=None)

    return p


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "train-codec": cmd_train_codec,
    "train-classifier": cmd_train_classifier,
    "explain": cmd_explain,
    "eval-fidelity": lambda cfg, args: _cmd_eval(cfg, args, "agreement"),
    "eval-drop": lambda cfg, args: _cmd_eval(cfg, args, "post-removal-accuracy"),
    "confusion": cmd_confusion,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        if e.code == 0:  # --help
            raise
        return EXIT_BAD_CONFIG  # argparse has printed the usage and its message
    try:
        cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(f"error code=3 msg={e}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except CheckpointError as e:
        print(f"error code=2 msg={e}", file=sys.stderr)
        return EXIT_MISSING_CHECKPOINT
    except (DatasetError, WavFormatError, LengthError, FileNotFoundError) as e:
        print(f"error code=4 msg={e}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except ValueError as e:
        print(f"error code=1 msg={e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
