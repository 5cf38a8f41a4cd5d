"""Command-line pipeline: data synthesis, training, explanation, and evaluation.

Every subcommand reads a JSON run config (unknown keys rejected, flags
override file values) and writes a provenance record next to its
artifacts so any output can be reproduced byte-identically.

Exit codes: 0 success, 2 missing or unreadable checkpoint, one whose config or tensors
do not fit its kind, or a head that predicts another number of classes than the scored
corpus holds, 3 malformed config or arguments (an argument argparse rejects; a
``--alpha``, ``--beta`` or ``--jobs`` out of range, ``--jobs`` at most ``MAX_JOBS``; an output
path of the wrong kind; any config value of the wrong type or out of range, by the rules
its dataclass declares: every value and the output path are checked before any input is
read; an ``ig_steps`` that, with the head's ``hidden``, asks latent IG's step buffer for
over 2^24 cells, or a codec whose encoder asks the workspace of the command's largest pass
for over 2^26, once both checkpoints are read), 4 data error (including a clip shorter
than one latent frame, audio at another sample rate than the codec's, and a split the
command cannot use).
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
from .classifier import (POOL_GATES, POOLING, POOLINGS, ClassifierConfig, HeadSettings,
                         classifier_param_shapes, evaluate_accuracy, predict_batch,
                         train_classifier)
from .codec import (CodecConfig, CodecLayers, CodecTrainConfig, codec_param_shapes, decode, encode,
                    encode_batch, run_pair, train_autoencoder, workspace_cells)
from .data import (COUNT, FRACTION, FRACTIONS, SEED, SIZE, TEXT, Checked, DatasetError, Rule,
                   SyntheticDatasetSpec, generate_dataset, integer, read_clips, read_manifest,
                   save_dataset)
from .attribution import DEFAULT_IG_STEPS, ENCODE_ROWS, integrated_gradients_latent
from .masking import apply_mask_keep, make_base_latent, select_top
from .evalharness import (
    ALL_METHODS,
    DEFAULT_ALPHAS,
    DEFAULT_BASE_SEED,
    DEFAULT_BETAS,
    DEFAULT_NOISE_SEED,
    DEFAULT_RUNS,
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

MAX_JOBS = 64  # each eval thread holds IG workspaces of its own (README)


class ConfigError(ValueError):
    pass


def _from_dict(default, raw, name: str):
    """``default`` with the values of the config section ``raw``, which its class checks."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected an object")
    unknown = set(raw) - {f.name for f in fields(default)}
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    try:
        return replace(default, **raw)
    except ValueError as e:  # a field's rule names the field, a rule across fields the section
        raise ConfigError(f"{name}.{e}" if hasattr(e, "field") else f"{name}: {e}") from e


@dataclass
class PathsConfig(Checked):
    data_dir: str = TEXT("data")
    checkpoint_dir: str = TEXT("checkpoints")
    report_dir: str = TEXT("reports")


def _values(config, cls) -> dict:
    """The values of the fields of ``config`` that ``cls``, one of its bases, declares."""
    return {f.name: getattr(config, f.name) for f in fields(cls)}


@dataclass
class CodecSection(CodecTrainConfig, CodecLayers):
    seed: int = SEED(0)

    def codec_config(self, sample_rate: int) -> CodecConfig:
        return CodecConfig(sample_rate=sample_rate, **_values(self, CodecLayers))

    def train_config(self) -> CodecTrainConfig:
        return CodecTrainConfig(**_values(self, CodecTrainConfig))


@dataclass
class ClassifierSection(HeadSettings):
    seed: int = SEED(0)
    # None: choose by dataset ("mean-max" when a neutral class exists, else "mean")
    pooling: str | None = Rule(lambda v: v is None or POOLING.holds(v),
                               f"expected null or one of {POOLINGS}, got {{!r}}")(None)


@dataclass
class AttributionSection(Checked):
    ig_steps: int = SIZE(DEFAULT_IG_STEPS)
    noise_seed: int = SEED(DEFAULT_NOISE_SEED)


@dataclass
class EvalSection(Checked):
    alphas: list = FRACTIONS(list(DEFAULT_ALPHAS))
    betas: list = FRACTIONS(list(DEFAULT_BETAS))
    runs: int = COUNT(DEFAULT_RUNS)
    base_seed: int = SEED(DEFAULT_BASE_SEED)


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
        if type(raw.get("schema_version")) is not int or raw["schema_version"] != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {raw.get('schema_version')}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")
        defaults = cls()
        return replace(defaults, **{name: _from_dict(getattr(defaults, name), section, name)
                                    for name, section in raw.items() if name != "schema_version"})


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


# checkpoint kind -> a default config and the function that gives its tensors' shapes
_CHECKPOINT_KINDS = {"codec": (CodecConfig(), codec_param_shapes),
                     "classifier": (ClassifierConfig(num_classes=2), classifier_param_shapes)}


def _load_checkpoint(cfg: RunConfig, given, kind: str):
    """The checkpoint at ``given`` (or the default path) and its config, both checked.

    The config must have exactly the fields of the kind's dataclass, and is read first, as a
    config section is (``_from_dict``), so that its dataclass checks each value; then the
    tensors must have the names and shapes that the kind's shape function gives for the
    checked config, worked out without building a tensor. A head's ``pool_max`` gate must be
    the one its ``pooling`` names. CheckpointError otherwise.
    """
    p = _checkpoint_path(cfg, given, kind)
    if not p.is_file():
        raise CheckpointError(f"missing {kind} checkpoint: {p}")
    ckpt = read_checkpoint(p)
    if ckpt.kind != kind:
        raise CheckpointError(f"{p} holds a {ckpt.kind!r} checkpoint, expected {kind!r}")
    default, param_shapes = _CHECKPOINT_KINDS[kind]
    keys = sorted(f.name for f in fields(default))
    if not isinstance(ckpt.config, dict) or sorted(ckpt.config) != keys:
        raise CheckpointError(f"{p}: the {kind} config must have exactly the keys {keys}")
    try:
        config = _from_dict(default, ckpt.config, "config")
    except ConfigError as e:
        raise CheckpointError(f"{p}: bad {kind} config: {e}") from e
    got, want = {name: t.shape for name, t in ckpt.params.items()}, param_shapes(config)
    if got != want:
        raise CheckpointError(f"{p}: tensors {got} do not match its {kind} config's {want}")
    if kind == "classifier":
        gate, pooling = float(ckpt.params["pool_max"][0]), config.pooling
        if gate != POOL_GATES[pooling]:
            raise CheckpointError(f"{p}: bad classifier config: pool_max {gate} is not the"
                                  f" {pooling!r} pooling's gate {POOL_GATES[pooling]}")
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
                 num_classes: int | None = None, rows: int = ENCODE_ROWS):
    """Both checkpoints, checked, and the explainer models for ``source``'s clips.

    The clips are at ``sample_rate`` and ``clip_length`` samples long; with
    ``num_classes``, the head must predict that many classes. ``rows`` are the rows of the
    command's largest encoder pass: by default waveform IG's chunk of path points, more than
    any ``encode_batch`` pass holds. Returns the models and the SHA-256 of the two
    checkpoint files, named as in provenance.
    """
    _, codec_ckpt, codec_cfg = _load_codec(cfg, args.codec, source, sample_rate)
    _, cls_ckpt, head_cfg = _load_checkpoint(cfg, args.classifier, "classifier")
    if head_cfg.latent_channels != codec_cfg.latent_channels:
        raise CheckpointError(f"the classifier reads {head_cfg.latent_channels} latent channels,"
                              f" the codec writes {codec_cfg.latent_channels}")
    if num_classes is not None and head_cfg.num_classes != num_classes:
        raise CheckpointError(f"the classifier predicts {head_cfg.num_classes} classes,"
                              f" the corpus {source} has {num_classes}")
    # latent IG's one step buffer: at most 2^24 float32 cells, 64 MiB (README)
    steps, hidden = cfg.attribution.ig_steps, head_cfg.hidden
    cells = steps * hidden * (clip_length // codec_cfg.stride_product)
    if cells > 2**24:
        raise ConfigError(f"attribution.ig_steps {steps} and the classifier's hidden {hidden}"
                          f" ask latent IG's step buffer for {cells} cells, past 2^24")
    # an encoder pass's workspace: at most 2^26 float32 cells, 256 MiB (README)
    n = codec_cfg.required_input_length(clip_length // codec_cfg.stride_product)
    cells = workspace_cells(codec_cfg, rows, n)
    if cells > 2**26:
        raise ConfigError(f"the codec's encoder asks the workspace of a {rows}-row pass of"
                          f" {clip_length} samples for {cells} cells, past 2^26")
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
    ckpt = train_autoencoder(
        read_clips(p, ds.spec, ds.train_idx), cfg.codec.codec_config(ds.spec.sample_rate),
        cfg.codec.train_config(), seed=cfg.codec.seed,
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
        pooling=pooling,
        anchor_class=anchor,
        **_values(cfg.classifier, HeadSettings),
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
    FRACTION.check("--alpha", args.alpha, ConfigError)
    out = _out_path(args.out, directory=False)
    clip = wav_read(args.input)
    models, ckpt_hashes = _load_models(cfg, args, args.input, clip.sample_rate, len(clip), rows=1)
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
    integer(1, MAX_JOBS).check("--jobs", args.jobs, ConfigError)
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
    split = encode_split(clips, models, store=(out_dir, ckpt_hashes))

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
    FRACTION.check("--beta", args.beta, ConfigError)
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
