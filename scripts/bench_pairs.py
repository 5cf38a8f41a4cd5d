#!/usr/bin/env python3
"""Run the benchmark on two trees in alternating pairs and judge a performance claim.

    python3 scripts/bench_pairs.py --parent PARENT --change CHANGE \\
        --workload sweep-waveform --seeds 27101-27110 --out BENCH_pr<N>.json

Each seed is one pair: both trees run ``bench/run.py --workload W --seed S --seconds N
--trace 0``, N the ``run_seconds`` of ``BENCHMARK.json``, one after the other. The parent
runs first in the 1st, 3rd, 5th ... pair and the change first in the others. Both trees
must hold the same cached models (``.artifacts/*.ckpt``; the script exits 2 otherwise) and
corpora (``.bench_out/corpus/``): copy them into a fresh tree before the first pair, or its
first run builds its own.

The JSON written to ``--out`` keeps each run's last stdout line: its JSON result, or the
line as it is where it holds none. An existing file of this shape is extended, and each
workload's summary covers all of that workload's runs in the file; a file whose runs used
other models or another run length is left as it is, and the script exits 2. Per
end-to-end metric of ``BENCHMARK.json``, the summary holds both trees' quartiles, the pairs
the change won and the verdict of the claim rule: the change is better in at least 9 of
every 10 pairs run, over at least 10 pairs, the medians differ by more than the parent's
interquartile range and by more than the metric's ``bound`` times the parent's median, and
the change fails no more units than the parent. Its ``gain_over_bound`` is the medians'
gap as a share of that bound times the parent's median. It also holds
the no-regression verdict against the metric's ``bound``: "worse past bound" when the
change's median is worse than the parent's by more than that share of it, "unresolved"
when the parent's own q1-q3 spread is wider than that share of its median and not every
change run reads better than every parent run, and "within bound" otherwise.
A pair in which both trees read worse than the parent's quartile on the worse side (below
q1 where higher is better, above q3 where lower is better) is flagged as a slow stretch
of the host; it is kept in every figure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
MIN_PAIRS = 10
WIN_SHARE = 0.9  # of the pairs the change must win
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]


def end_to_end() -> list:
    """(name, better, bound) of each end-to-end metric of ``BENCHMARK.json``."""
    return [(m["name"], m["better"], m["bound"]) for m in SPEC["end_to_end"]]


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list, metrics: list) -> dict:
    """Per workload of ``runs``: pairs, correctness and, per metric of ``metrics``, both trees'
    quartiles, the pairs the change won, the pairs both read worse, the claim verdict and
    the no-regression verdict.

    A run is a dict with ``side``, ``workload``, ``seed`` and ``result``, the parsed last line
    of ``bench/run.py`` (None when the run printed none). A pair is the two sides' runs of one
    workload and seed. A pair with a side missing or without metrics gives no values, yet
    counts among the pairs run, which the change must win 9 in 10 of; a claim also needs the
    change to fail no more units than the parent."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault((run["workload"], run["seed"]), {})[run["side"]] = run["result"]
    summary = {}
    for workload in sorted({w for w, _ in by_pair}):
        pairs = [(seed, p) for (w, seed), p in sorted(by_pair.items()) if w == workload]
        results = [r for _, p in pairs for r in p.values()]
        whole = [(seed, p) for seed, p in pairs
                 if all(p.get(side) and "metrics" in p[side] for side in SIDES)]
        seeds = [seed for seed, _ in pairs]
        failed = {side: sum(p[side].get("failed", 0) for _, p in pairs if p.get(side))
                  for side in SIDES}
        entry = summary[workload] = {
            "pairs": len(pairs), "seeds": f"{min(seeds)}-{max(seeds)}",
            "all_correct": all(r and r.get("correct") for r in results),
            "failed_units": sum(failed.values())}
        if len(whole) < 2:
            continue
        for name, better, limit in metrics:
            value = {side: [p[side]["metrics"][name]["value"] for _, p in whole] for side in SIDES}
            sign = 1 if better == "higher" else -1
            won = sum(sign * (c - p) > 0 for p, c in zip(value["parent"], value["change"]))
            parent, change = quartiles(value["parent"]), quartiles(value["change"])
            bound = parent["q1"] if sign > 0 else parent["q3"]
            worse = [seed for (seed, _), p, c in zip(whole, value["parent"], value["change"])
                     if sign * (p - bound) < 0 and sign * (c - bound) < 0]
            gap = sign * (change["median"] - parent["median"])
            share = gap / (limit * abs(parent["median"]))
            claim = (len(pairs) >= MIN_PAIRS and won >= math.ceil(WIN_SHARE * len(pairs))
                     and gap > parent["q3"] - parent["q1"] and share > 1
                     and failed["change"] <= failed["parent"])
            if (parent["q3"] - parent["q1"] > limit * abs(parent["median"])
                    and min(sign * v for v in value["change"])
                    <= max(sign * v for v in value["parent"])):
                regression = "unresolved"
            elif gap < -limit * abs(parent["median"]):
                regression = "worse past bound"
            else:
                regression = "within bound"
            entry[name] = {"parent": parent, "change": change, "change_better_pairs": won,
                           "both_worse_pairs": worse, "verdict": "claim" if claim else "no claim",
                           "bound": limit, "gain_over_bound": share, "regression": regression}
    return summary


def print_summary(summary: dict, metrics: list) -> None:
    for workload, entry in summary.items():
        print(f"{workload}: {entry['pairs']} pairs, seeds {entry['seeds']}, all correct "
              f"{entry['all_correct']}, {entry['failed_units']} failed units")
        for name, *_ in metrics:
            if name not in entry:
                continue
            m = entry[name]
            p, c = m["parent"], m["change"]
            worse = m["both_worse_pairs"]
            worse = f"; both worse than the parent's quartile in seeds {worse}" if worse else ""
            print(f"  {name}: median {p['median']:.4g} -> {c['median']:.4g} "
                  f"({100 * (c['median'] / p['median'] - 1):+.1f} %), parent q1-q3 "
                  f"{p['q1']:.4g}-{p['q3']:.4g}, gain {m['gain_over_bound']:.2f} of the "
                  f"{100 * m['bound']:g} % bound, change better in {m['change_better_pairs']} "
                  f"of {entry['pairs']}: {m['verdict']}, {m['regression']}{worse}")


def run_bench(tree: Path, workload: str, seed: int) -> tuple:
    """``bench/run.py`` in ``tree``: its exit code and its last stdout line."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(RUN_SECONDS), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def _cache(tree: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tree / ".artifacts").glob("*.ckpt"))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="tree of the parent commit")
    p.add_argument("--change", required=True, help="tree of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="A-B: one pair per seed from A to B")
    p.add_argument("--out", required=True, help="JSON file, extended if it exists")
    args = p.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    if not (first.isdigit() and last.isdigit() and int(first) <= int(last)):
        print(f"--seeds {args.seeds!r}: expected A-B with A <= B", file=sys.stderr)
        return 2
    trees = {"parent": Path(args.parent), "change": Path(args.change)}
    caches = {side: _cache(tree) for side, tree in trees.items()}
    if not caches["parent"] or caches["parent"] != caches["change"]:
        print("both trees must hold the same .artifacts/*.ckpt models", file=sys.stderr)
        return 2
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {RUN_SECONDS} "
                   "--trace 0",
        "order": "the parent runs first in the 1st, 3rd, 5th ... pair of each batch",
        "host": {"vcpus": os.cpu_count(), "python": platform.python_version(),
                 "machine": platform.machine()},
        "models": caches["parent"], "runs": []}
    if doc["models"] != caches["parent"] or any(r["seconds"] != RUN_SECONDS
                                                for r in doc["runs"]):
        print(f"{out} holds runs on other models or of another length", file=sys.stderr)
        return 2
    metrics = end_to_end()
    for k, seed in enumerate(range(int(first), int(last) + 1)):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            code, line = run_bench(trees[side], args.workload, seed)
            try:
                result = json.loads(line)
            except json.JSONDecodeError:
                result = None
            doc["runs"].append({"side": side, "workload": args.workload, "seed": seed,
                                "seconds": RUN_SECONDS, "exit": code, "result": result,
                                **({} if result else {"line": line})})
            out.write_text(json.dumps(doc, indent=1) + "\n")  # a cut batch keeps its runs
            print(f"{args.workload} seed {seed} {side}: exit {code}", file=sys.stderr)
    doc["summary"] = summarize(doc["runs"], metrics)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print_summary({args.workload: doc["summary"][args.workload]}, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
