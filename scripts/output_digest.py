#!/usr/bin/env python3
"""Run a fixed set of CLI commands and print one sha256 per output file.

Run it from two checkouts with the same arguments and diff the two outputs to check
that a change keeps every output byte:

    PYTHONPATH=src python3 scripts/output_digest.py --workdir /tmp/digest > after.txt

Every command goes through ``cli.main``:

- two small pipelines, one per task: ``synth-data``, ``train-codec`` and
  ``train-classifier`` (corpus, checkpoints, provenance);
- with the cached ``.artifacts/`` checkpoints and the saved seed-0 corpora in
  ``.bench_out/corpus/`` (both built by ``bench/prepare.py``): ``eval-fidelity`` and
  ``eval-drop`` for the four methods on both tasks' full test splits (32 reports, JSON
  and CSV), ``confusion`` on the emotion corpus at two betas, and ``explain`` on the
  first test clips of each task at two alphas;
- with the same models and corpora, through the package's functions: the float32 bytes
  of the latent-IG and input-IG maps of each task's first 4 test clips at 1, 2, 3, 5 and
  64 steps, for the class the head predicts (80 files). A change to the maps shows here
  even where it moves no report row.

The listing includes one ``maps_input-ig.bin`` per task: the store of input-IG maps that
``eval-fidelity`` writes into its report directory and ``eval-drop`` reads back there.

The sweeps run ``eval.runs`` 3 with ``--jobs 2``, and ``explain`` takes the first 20
test clips of each task, on both sides alike. The work directory must be new or empty;
the script exits 2 rather than delete anything. Provenance files record the paths they
were given, so ``explain`` reads copies of its clips made under the work directory: two
runs with the same ``--workdir`` compare equal when their ``--artifacts`` and ``--corpus``
hold the same bytes, wherever those are.
"""

import argparse
import contextlib
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from latentexplain.attribution import integrated_gradients_input, integrated_gradients_latent
from latentexplain.checkpoint import read_checkpoint
from latentexplain.classifier import predict_batch
from latentexplain.cli import main as cli
from latentexplain.codec import CodecConfig, LatentGrid, encode_batch
from latentexplain.data import read_clips, read_manifest
from latentexplain.evalharness import build_models

ROOT = Path(__file__).resolve().parent.parent
METHODS = "latent-ig,random-latent,input-ig,random-input"
RUNS = 3  # eval.runs of the sweeps
MAP_CLIPS = 4  # first test clips per task whose IG maps are written
MAP_STEPS = (1, 2, 3, 5, 64)
JOBS = 2
EXPLAIN_CLIPS = 20  # test clips per task
TASKS = {
    "keyword": {"task": "keyword", "num_classes": 8, "clips_per_class": 100, "seed": 0},
    "emotion": {"task": "emotion", "num_classes": 5, "clips_per_class": 100, "words": 10,
                "renditions": 10, "seed": 0},
}
SHORT = {"keyword": "kw", "emotion": "emo"}
SMALL = {
    "keyword": {"task": "keyword", "num_classes": 3, "clips_per_class": 6, "clip_length": 4096,
                "seed": 1},
    "emotion": {"task": "emotion", "num_classes": 3, "clips_per_class": 6, "words": 2,
                "renditions": 3, "clip_length": 4096, "seed": 1},
}


def _config(path: Path, dataset: dict, **sections) -> str:
    path.write_text(json.dumps({"schema_version": 1, "dataset": dataset, **sections}, indent=1))
    return str(path)


def _run(argv: list) -> None:
    code = cli(argv)
    if code != 0:
        raise SystemExit(f"exit {code}: latentexplain {' '.join(argv)}")


def small_pipeline(work: Path, task: str) -> None:
    root = work / f"small_{task}"
    root.mkdir()
    cfg = _config(root / "run.json", SMALL[task],
                  paths={"data_dir": str(root / "data"), "checkpoint_dir": str(root / "ckpt"),
                         "report_dir": str(root / "reports")},
                  codec={"epochs": 2, "batch_size": 4}, classifier={"epochs": 8})
    for cmd in ("synth-data", "train-codec", "train-classifier"):
        _run(["--config", cfg, cmd])


def cached_models(work: Path, task: str, artifacts: Path, corpus: Path) -> None:
    root = work / f"cached_{task}"
    root.mkdir()
    cfg = _config(root / "run.json", TASKS[task], eval={"runs": RUNS})
    data = corpus / task
    models = ["--codec", str(artifacts / f"codec_{SHORT[task]}.ckpt"),
              "--classifier", str(artifacts / f"cls_{SHORT[task]}.ckpt")]
    for cmd in ("eval-fidelity", "eval-drop"):
        _run(["--config", cfg, cmd, "--data", str(data), *models, "--methods", METHODS,
              "--jobs", str(JOBS), "--out", str(root / "reports")])
    if task == "emotion":
        for beta in ("0.1", "0.4"):
            _run(["--config", cfg, "confusion", "--data", str(data), *models, "--beta", beta,
                  "--out", str(root / f"confusion_{beta}.json")])
    # explain records its --input path, so it reads copies under the work directory
    inputs = root / "inputs"
    inputs.mkdir()
    for i in json.loads((data / "manifest.json").read_text())["test_idx"][:EXPLAIN_CLIPS]:
        shutil.copyfile(data / "clips" / f"clip_{i:05d}.wav", inputs / f"clip_{i:05d}.wav")
    for alpha in ("0.1", "0.3"):
        for clip in sorted(inputs.iterdir()):
            _run(["--config", cfg, "explain", *models, "--input", str(clip), "--alpha", alpha,
                  "--out", str(root / "explain" / f"{clip.stem}_a{alpha}.wav")])


def ig_maps(work: Path, task: str, artifacts: Path, corpus: Path) -> None:
    """The raw float32 bytes of both IG methods' maps on the first test clips."""
    root = work / f"maps_{task}"
    root.mkdir()
    codec = read_checkpoint(artifacts / f"codec_{SHORT[task]}.ckpt")
    head = read_checkpoint(artifacts / f"cls_{SHORT[task]}.ckpt").params
    config = CodecConfig.from_dict(codec.config)
    ds = read_manifest(corpus / task)
    rows = ds.test_idx[:MAP_CLIPS]
    clips = read_clips(corpus / task, ds.spec, rows)
    models = build_models(config, codec.params, head, clips.shape[1])
    latents = encode_batch(clips, codec.params, config)
    for i, x, z, target in zip(rows, clips, latents, predict_batch(latents, head)):
        for steps in MAP_STEPS:
            maps = {
                "latent-ig": integrated_gradients_latent(LatentGrid(z), models.base_latent, head,
                                                         int(target), steps),
                "input-ig": integrated_gradients_input(x, models.noise_clip.samples, codec.params,
                                                       config, head, int(target), steps),
            }
            for method, att in maps.items():
                scores = np.ascontiguousarray(att.scores, dtype=np.float32)
                (root / f"{method}_clip{i:05d}_steps{steps}.f32").write_bytes(scores.tobytes())


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workdir", required=True, help="new or empty; filled with every output")
    p.add_argument("--artifacts", default=str(ROOT / ".artifacts"))
    p.add_argument("--corpus", default=str(ROOT / ".bench_out" / "corpus"))
    args = p.parse_args(argv)
    work = Path(args.workdir)
    if work.exists() and (not work.is_dir() or any(work.iterdir())):
        print(f"{work} exists and is not an empty directory; give a new one", file=sys.stderr)
        return 2
    work.mkdir(parents=True, exist_ok=True)
    with contextlib.redirect_stdout(sys.stderr):  # stdout holds only the digests
        for task in TASKS:
            small_pipeline(work, task)
            cached_models(work, task, Path(args.artifacts), Path(args.corpus))
            ig_maps(work, task, Path(args.artifacts), Path(args.corpus))
    files = sorted(f for f in work.rglob("*") if f.is_file())
    for f in files:
        print(hashlib.sha256(f.read_bytes()).hexdigest(), f.relative_to(work))
    print(f"{len(files)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
