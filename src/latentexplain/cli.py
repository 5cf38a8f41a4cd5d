"""Command-line pipeline: data synthesis, training, explanation, and evaluation.

Every subcommand reads a JSON run config (unknown keys rejected, flags
override file values) and writes a provenance record next to its
artifacts so any output can be reproduced byte-identically.

Exit codes: 0 success, 2 missing or unreadable checkpoint, one whose config or tensors
do not fit its kind, or a head that predicts another number of classes than the scored
corpus holds, 3 malformed config or arguments (an argument argparse rejects; a
``--alpha``, ``--beta`` or ``--jobs`` out of range; an output path of the wrong kind; any
config value of the wrong type or out of range: every value and the output path are
checked before any input is read), 4 data error (including a clip shorter than one latent
frame, audio at another sample rate than the codec's, and a split the command cannot use).
Clip length and sample rate come from the corpus, not the config's ``dataset`` section.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .audio import LengthError, NonFiniteError, WavFormatError, wav_read, wav_write
from .checkpoint import CheckpointError, file_sha256, read_checkpoint, write_checkpoint
from .classifier import (POOL_GATES, POOLINGS, ClassifierConfig, classifier_param_shapes,
                         evaluate_accuracy, predict_batch, train_classifier)
from .codec import (CodecConfig, CodecTrainConfig, codec_param_shapes, decode, encode, encode_batch,
                    run_pair, train_autoencoder)
from .data import (SPEC_INT_HIGH, SPEC_INT_LOW, DatasetError, SyntheticDatasetSpec, check_int,
                   generate_dataset, read_clips, read_manifest, save_dataset)
from .attribution import integrated_gradients_latent
from .masking import apply_mask_keep, check_ratio, make_base_latent, select_top
from .evalharness import (
    ALL_METHODS,
    DEFAULT_ALPHAS,
    DEFAULT_BETAS,
    LATENT_METHODS,
    accuracy_drop,
    build_models,
    confusion_after_removal,
    encode_split,
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


# A config value's rule follows from the type of its default: an integer >= 0, a finite
# real, a nonempty list (a tuple in a checkpoint's config) of integers >= 1, or a string.
# The exceptions, by key:
_INT_LOW = {**SPEC_INT_LOW, **dict.fromkeys((
    "latent_channels", "batch_size", "epochs", "hidden", "ig_steps", "runs"), 1)}
# The values that size an array are at most 1,024, 16 times the largest default among them
# (64): on the default corpus no one of them at 1,024 sizes an array past 0.84 GB (README).
# A dataset section's maxima are a spec's, for run configs and manifests alike.
_INT_HIGH = {**SPEC_INT_HIGH, **dict.fromkeys(("channels", "kernel_sizes", "strides",
                                                "latent_channels", "hidden", "ig_steps"), 1024)}
_REAL_RULE = {"lr": (" > 0", lambda x: x > 0), "beta1": (" in [0, 1)", lambda x: 0 <= x < 1),
              "beta2": (" in [0, 1)", lambda x: 0 <= x < 1),
              "substitution_max_ratio": (" in [0, 1]", lambda x: 0 <= x <= 1)}


def _check_value(where: str, key: str, default, value) -> None:
    """ConfigError unless ``value`` keeps the rule of ``key`` and of its default's type."""
    if key in ("alphas", "betas"):
        _check_ratios(where, value)
    elif key == "pooling":
        if value is not None and value not in POOLINGS:
            raise ConfigError(f"{where}: expected null or one of {POOLINGS}, got {value!r}")
    elif key == "anchor_class":  # a head's: null or the class its training anchors
        if value is not None:
            check_int(where, value, 0, ConfigError)
    elif isinstance(default, (list, tuple)):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where}: expected a nonempty list of integers >= 1, got {value!r}")
        for v in value:
            check_int(where, v, 1, ConfigError, _INT_HIGH.get(key))
    elif isinstance(default, int):
        check_int(where, value, _INT_LOW.get(key, 0), ConfigError, _INT_HIGH.get(key))
    elif isinstance(default, float):
        text, holds = _REAL_RULE.get(key, ("", lambda x: True))
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not abs(value) < float("inf") or not holds(value)):
            raise ConfigError(f"{where}: expected a finite number{text}, got {value!r}")
    elif not isinstance(value, str):  # the defaults left are strings
        raise ConfigError(f"{where}: expected a string, got {value!r}")


def _check_codec_size(c: CodecConfig) -> None:
    """ValueError unless the layers' C_in x C_out x (K + S) sum to at most 2^24.

    That bounds the codec's kernels and their conv GEMM taps (each kernel rounded up to
    whole strides): at most 128 MiB of float32 for encoder and decoder together (README).
    """
    n = sum(i * o * (k + s) for i, o, k, s in zip((1, *c.channels), c.channels, c.kernel_sizes,
                                                  c.strides))
    if n > 2**24:
        raise ValueError(f"the layers' C_in x C_out x (kernel + stride) sum to {n}, past 2^24")


def _from_dict(default, raw, name: str):
    """``default`` with the values of the config section ``raw``, each checked first."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(raw) - {f.name for f in fields(default)}
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    for key, value in raw.items():
        _check_value(f"{name}.{key}", key, getattr(default, key), value)
    try:
        return replace(default, **raw)
    except ValueError as e:  # a rule across fields, from the section's __post_init__
        raise ConfigError(f"{name}: {e}") from e


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
            with open(path, encoding="utf-8") as f:
                raw = json.load(f)
        except FileNotFoundError as e:
            raise ConfigError(f"config file not found: {path}") from e
        except IsADirectoryError as e:
            raise ConfigError(f"config path is a directory: {path}") from e
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise ConfigError(f"config is not valid JSON: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        if raw.get("schema_version") != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {raw.get('schema_version')}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
        defaults = cls()
        cfg = replace(defaults, **{name: _from_dict(getattr(defaults, name), section, name)
                                   for name, section in raw.items() if name != "schema_version"})
        try:
            _check_codec_size(cfg.codec_config())
        except ValueError as e:
            raise ConfigError(f"codec: {e}") from e
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


def _write_provenance(out_dir: Path, command: str, config: RunConfig, checkpoints: dict,
                      extra: dict | None = None) -> None:
    settings = asdict(config)
    blob = json.dumps(settings, sort_keys=True, separators=(",", ":"))
    record = {
        "command": command,
        "package_version": __version__,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "config": settings,
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


def _check_pool_gate(head: ClassifierConfig, params: dict) -> None:
    """ValueError unless the head's ``pool_max`` gate is the one its ``pooling`` names."""
    gate, want = float(params["pool_max"][0]), POOL_GATES[head.pooling]
    if gate != want:
        raise ValueError(f"pool_max {gate} is not the {head.pooling!r} pooling's gate {want}")


# checkpoint kind -> a default config, the function that gives its tensors' shapes, and the
# rule that its checked config and tensors keep together
_CHECKPOINT_KINDS = {
    "codec": (CodecConfig(), codec_param_shapes, lambda config, _: _check_codec_size(config)),
    "classifier": (ClassifierConfig(num_classes=2), classifier_param_shapes, _check_pool_gate)}


def _load_checkpoint(cfg: RunConfig, given, kind: str):
    """The checkpoint at ``given`` (or the default path) and its config, both checked.

    The config must have exactly the fields of the kind's dataclass, and the tensors the
    names and shapes that the kind's shape function gives for it, which builds no tensor;
    each config value must then keep the run config's rules (``_from_dict``), a codec's
    layers the run config's size bound, and a head's ``pool_max`` gate must be the one its
    ``pooling`` names. CheckpointError otherwise.
    """
    p = _checkpoint_path(cfg, given, kind)
    if not p.is_file():
        raise CheckpointError(f"missing {kind} checkpoint: {p}")
    ckpt = read_checkpoint(p)
    if ckpt.kind != kind:
        raise CheckpointError(f"{p} holds a {ckpt.kind!r} checkpoint, expected {kind!r}")
    default, param_shapes, check = _CHECKPOINT_KINDS[kind]
    keys = sorted(f.name for f in fields(default))
    if not isinstance(ckpt.config, dict) or sorted(ckpt.config) != keys:
        raise CheckpointError(f"{p}: the {kind} config must have exactly the keys {keys}")
    try:
        want = param_shapes(replace(default, **ckpt.config))
        for shape in want.values():  # no tensor is built, so check the widths are integers here
            for width in shape:
                check_int("tensor width", width, 0)
        got = {name: t.shape for name, t in ckpt.params.items()}
        if got == want:  # then every value, the ones that shape no tensor too
            config = _from_dict(default, ckpt.config, "config")
            check(config, ckpt.params)
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{p}: bad {kind} config: {e}") from e
    if got != want:
        raise CheckpointError(f"{p}: tensors {got} do not match its {kind} config's {want}")
    return p, ckpt, config


def _load_codec(cfg: RunConfig, given, source, sample_rate: int):
    """``_load_checkpoint`` of the codec, for audio from ``source`` at ``sample_rate``.

    Audio at another rate than the codec's raises DatasetError.
    """
    p, ckpt, codec_cfg = _load_checkpoint(cfg, given, "codec")
    if sample_rate != codec_cfg.sample_rate:
        raise DatasetError(f"{source}: sample rate {sample_rate} Hz, "
                           f"the codec expects {codec_cfg.sample_rate} Hz")
    return p, ckpt, codec_cfg


def _corpus(path, **least_classes):
    """The corpus under ``path``, its manifest checked in full and none of its clips read.

    Each keyword names a split (``train_idx``, ``test_idx``) and the number of classes its
    clips must cover; a split that covers fewer raises DatasetError.
    """
    p = Path(path)
    if not (p / "manifest.json").is_file():
        raise DatasetError(f"no dataset manifest under {p}")
    ds = read_manifest(p)
    for split, need in least_classes.items():
        held = len(set(ds.labels[getattr(ds, split)].tolist()))
        if held < need:
            what = "is empty" if held == 0 else f"covers {held} class(es), {need} are needed"
            raise DatasetError(f"{p}: the {split} split {what}")
    return p, ds


def _out_path(path, directory: bool) -> Path:
    """``path`` as an output, a directory if ``directory`` else a file, checked and not written.

    An existing path of the other kind, or an existing ancestor that is not a directory,
    raises ConfigError naming ``--out``.
    """
    p = Path(path)
    if p.exists() and p.is_dir() != directory:
        raise ConfigError(f"--out {p}: an existing {'file' if directory else 'directory'},"
                          f" expected {'a directory' if directory else 'a file'}")
    ancestor = next(a for a in p.absolute().parents if a.exists())
    if not ancestor.is_dir():
        raise ConfigError(f"--out {p}: {ancestor} is not a directory")
    return p


def _load_models(cfg: RunConfig, args, source, sample_rate: int, clip_length: int,
                 num_classes: int | None = None):
    """Both checkpoints, checked, and the explainer models for ``source``'s clips.

    The clips are at ``sample_rate`` and ``clip_length`` samples long; with
    ``num_classes``, the head must predict that many classes. Returns the models and the
    SHA-256 of the two checkpoint files, named as in provenance.
    """
    _, codec_ckpt, codec_cfg = _load_codec(cfg, args.codec, source, sample_rate)
    _, cls_ckpt, head_cfg = _load_checkpoint(cfg, args.classifier, "classifier")
    if head_cfg.latent_channels != codec_cfg.latent_channels:
        raise CheckpointError(f"the classifier reads {head_cfg.latent_channels} latent channels,"
                              f" the codec writes {codec_cfg.latent_channels}")
    if num_classes is not None and head_cfg.num_classes != num_classes:
        raise CheckpointError(f"the classifier predicts {head_cfg.num_classes} classes,"
                              f" the corpus {source} has {num_classes}")
    models = build_models(
        codec_cfg, codec_ckpt.params, cls_ckpt.params,
        clip_length=clip_length, noise_seed=cfg.attribution.noise_seed,
        ig_steps=cfg.attribution.ig_steps,
    )
    return models, {"codec": codec_ckpt.sha256, "classifier": cls_ckpt.sha256}


def cmd_synth_data(cfg: RunConfig, args) -> int:
    spec = cfg.dataset
    out = _out_path(args.out or cfg.paths.data_dir, directory=True)
    _out_path(out / "clips", directory=True)
    ds = generate_dataset(spec)
    save_dataset(ds, out)
    _write_provenance(out, "synth-data", cfg, {}, {"clips": int(len(ds.labels))})
    print(f"wrote {len(ds.labels)} clips ({spec.task}, {spec.num_classes} classes) to {out}")
    return 0


def cmd_train_codec(cfg: RunConfig, args) -> int:
    out = _out_path(_checkpoint_path(cfg, args.out, "codec"), directory=False)
    p, ds = _corpus(args.data or cfg.paths.data_dir, train_idx=1)
    codec_cfg = replace(cfg.codec_config(), sample_rate=ds.spec.sample_rate)
    ckpt = train_autoencoder(
        read_clips(p, ds.spec, ds.train_idx), codec_cfg, cfg.codec_train_config(),
        seed=cfg.codec.seed,
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    write_checkpoint(ckpt, out)
    _write_provenance(out.parent, "train-codec", cfg, {"codec": file_sha256(out)})
    print(f"codec trained: final loss {ckpt.metadata['final_loss']:.6f} -> {out}")
    return 0


def cmd_train_classifier(cfg: RunConfig, args) -> int:
    out = _out_path(_checkpoint_path(cfg, args.out, "classifier"), directory=False)
    p, ds = _corpus(args.data or cfg.paths.data_dir, train_idx=2, test_idx=1)
    codec_path, codec_ckpt, codec_cfg = _load_codec(cfg, args.codec, p, ds.spec.sample_rate)
    latents = encode_batch(read_clips(p, ds.spec, range(len(ds.labels))), codec_ckpt.params,
                           codec_cfg)
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
            codec_ckpt.params, codec_cfg, ds.spec.clip_length, cfg.attribution.noise_seed
        ).values
    ckpt = train_classifier(
        latents[ds.train_idx], ds.labels[ds.train_idx], head_cfg, seed=cfg.classifier.seed,
        substitution_base=sub_base,
    )
    acc = evaluate_accuracy(latents[ds.test_idx], ds.labels[ds.test_idx], ckpt.params)
    ckpt.metadata["test_accuracy"] = acc
    out.parent.mkdir(parents=True, exist_ok=True)
    write_checkpoint(ckpt, out)
    if file_sha256(codec_path) != codec_ckpt.sha256:
        raise CheckpointError("encoder checkpoint changed during classifier training")
    _write_provenance(
        out.parent, "train-classifier", cfg,
        {"codec": codec_ckpt.sha256, "classifier": file_sha256(out)},
        {"test_accuracy": acc},
    )
    print(f"classifier trained: test accuracy {100 * acc:.1f}% -> {out}")
    return 0


def cmd_explain(cfg: RunConfig, args) -> int:
    _check_ratios("--alpha", [args.alpha])
    out = _out_path(args.out, directory=False)
    clip = wav_read(args.input)
    models, ckpt_hashes = _load_models(cfg, args, args.input, clip.sample_rate, len(clip))
    codec_cfg = models.codec_config
    z = encode(clip, models.codec_params, codec_cfg)
    target = int(predict_batch(z.values[None], models.cls_params)[0])
    att = integrated_gradients_latent(
        z, models.base_latent, models.cls_params, target, models.ig_steps
    )
    mask = select_top(att, args.alpha)
    masked = apply_mask_keep(z, mask, models.base_latent)
    explanation = decode(masked, models.codec_params, codec_cfg)
    out.parent.mkdir(parents=True, exist_ok=True)
    wav_write(explanation, out)
    _write_provenance(
        out.parent, "explain", cfg, ckpt_hashes,
        {"input": str(args.input), "alpha": args.alpha, "predicted_class": target},
    )
    print(f"explanation (class {target}, alpha={args.alpha}) -> {out}")
    return 0


def _cmd_eval(cfg: RunConfig, args, metric: str) -> int:
    check_int("--jobs", args.jobs, 1, ConfigError)
    methods = args.methods.split(",") if args.methods else list(ALL_METHODS)
    for mname in methods:
        if mname not in ALL_METHODS:
            raise ConfigError(f"unknown method {mname!r}; choose from {list(ALL_METHODS)}")
    out_dir = _out_path(args.out or cfg.paths.report_dir, directory=True)
    p, ds = _corpus(args.data or cfg.paths.data_dir, test_idx=1)
    clips, labels = read_clips(p, ds.spec, ds.test_idx), ds.labels[ds.test_idx]
    models, ckpt_hashes = _load_models(cfg, args, p, ds.spec.sample_rate, ds.spec.clip_length,
                                       len(ds.class_names))
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_id = f"{ds.spec.task}-seed{ds.spec.seed}"
    split = encode_split(clips, models)

    def sweep(mname):
        if metric == "agreement":
            return fidelity_agreement(
                split, models, mname, ratios=cfg.eval.alphas, runs=cfg.eval.runs,
                base_seed=cfg.eval.base_seed, dataset_id=dataset_id, jobs=args.jobs,
            )
        return accuracy_drop(
            split, labels, models, mname, ratios=cfg.eval.betas, runs=cfg.eval.runs,
            base_seed=cfg.eval.base_seed, dataset_id=dataset_id, jobs=args.jobs,
        )

    # Latent methods run in pairs, taken in list order: the first of a pair on the caller,
    # the second on the codec's helper thread. Reports still go out in list order, and the
    # first failing method's exception ends the command, as in a serial run.
    latent = [i for i, mname in enumerate(methods) if mname in LATENT_METHODS]
    partner, later = dict(zip(latent[::2], latent[1::2])), {}
    for i, mname in enumerate(methods):
        if i in later:
            report = later.pop(i).result()
        elif i in partner:
            j = partner[i]
            report, later[j] = run_pair(functools.partial(sweep, mname),
                                        functools.partial(sweep, methods[j]))
        else:
            report = sweep(mname)
        stem = f"{metric}_{mname}"
        write_report(report, out_dir / f"{stem}.json")
        write_report_csv(report, out_dir / f"{stem}.csv")
        summary = ", ".join(f"{r.ratio:g}:{r.mean:.1f}±{r.std:.1f}" for r in report.rows)
        print(f"{metric} [{mname}]: {summary}")
    _write_provenance(
        out_dir, f"eval-{'fidelity' if metric == 'agreement' else 'drop'}", cfg,
        ckpt_hashes,
    )
    return 0


def cmd_confusion(cfg: RunConfig, args) -> int:
    _check_ratios("--beta", [args.beta])
    out = _out_path(args.out or Path(cfg.paths.report_dir) / "confusion.json", directory=False)
    p, ds = _corpus(args.data or cfg.paths.data_dir, test_idx=1)
    if "neutral" not in ds.class_names:
        raise DatasetError("confusion requires a dataset with a 'neutral' class")
    clips, labels = read_clips(p, ds.spec, ds.test_idx), ds.labels[ds.test_idx]
    models, ckpt_hashes = _load_models(cfg, args, p, ds.spec.sample_rate, ds.spec.clip_length,
                                       len(ds.class_names))
    mat = confusion_after_removal(clips, labels, len(ds.class_names), models, args.beta)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(
            {"beta": args.beta, "class_names": list(ds.class_names), "matrix": mat.tolist()},
            f, sort_keys=True, indent=1,
        )
    _write_provenance(
        out.parent, "confusion", cfg, ckpt_hashes,
        {"beta": args.beta},
    )
    print(f"confusion matrix (beta={args.beta}) -> {out}")
    for name, row in zip(ds.class_names, mat):
        print(f"  {name:>8}: {row.tolist()}")
    return 0


@functools.cache  # one parser per process
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="latentexplain",
                                description="Audio explanations from latent-space attribution")
    p.add_argument("--config", default=None, help="JSON run config (defaults used if omitted)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth-data", help="generate a synthetic dataset")
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
    except (DatasetError, WavFormatError, LengthError, NonFiniteError, FileNotFoundError) as e:
        print(f"error code=4 msg={e}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except ValueError as e:
        print(f"error code=1 msg={e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
