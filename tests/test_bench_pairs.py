"""scripts/bench_pairs.py: the claim rule's summary and the JSON of every run."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = bench_pairs.end_to_end()
CLIPS = [10.1, 9.8, 8.6, 10.8, 10.3, 9.1, 10.6, 8.9, 9.9, 10.4]


def result(clips_per_s: float) -> dict:
    """A canned last line of ``bench/run.py``: every metric reads ``clips_per_s``."""
    return {"correct": True, "attempted": 12, "failed": 0,
            "metrics": {name: {"value": clips_per_s, "unit": "x"} for name, *_ in METRICS}}


def runs(parent: list, change: list, workload="sweep-waveform", first_seed=1) -> list:
    return [{"side": side, "workload": workload, "seed": first_seed + k, "result": result(v)}
            for k, (p, c) in enumerate(zip(parent, change))
            for side, v in (("parent", p), ("change", c))]


def test_two_copies_of_one_series_are_no_claim():
    summary = bench_pairs.summarize(runs(CLIPS, CLIPS), METRICS)["sweep-waveform"]
    assert summary["pairs"] == 10 and summary["all_correct"] and summary["failed_units"] == 0
    for name, *_ in METRICS:
        assert summary[name]["change_better_pairs"] == 0
        assert summary[name]["verdict"] == "no claim"


def test_claim_rule():
    faster = [v * 1.5 for v in CLIPS]
    summary = bench_pairs.summarize(runs(CLIPS, faster), METRICS)["sweep-waveform"]
    assert summary["clips_per_s"]["verdict"] == "claim"
    assert summary["clips_per_s"]["change_better_pairs"] == 10
    assert summary["latency_p50_ms"]["verdict"] == "no claim"  # lower is better there
    one_lost = faster[:9] + [CLIPS[9] - 1]
    assert bench_pairs.summarize(runs(CLIPS, one_lost), METRICS)["sweep-waveform"][
        "clips_per_s"]["verdict"] == "claim"  # 9 of 10
    two_lost = faster[:8] + [CLIPS[8] - 1, CLIPS[9] - 1]
    assert bench_pairs.summarize(runs(CLIPS, two_lost), METRICS)["sweep-waveform"][
        "clips_per_s"]["verdict"] == "no claim"
    within_iqr = [v + 0.01 for v in CLIPS]
    assert bench_pairs.summarize(runs(CLIPS, within_iqr), METRICS)["sweep-waveform"][
        "clips_per_s"]["verdict"] == "no claim"
    nine_pairs = bench_pairs.summarize(runs(CLIPS[:9], faster[:9]), METRICS)
    assert nine_pairs["sweep-waveform"]["clips_per_s"]["verdict"] == "no claim"
    failing = runs(CLIPS, faster)
    failing[1]["result"] = {**failing[1]["result"], "failed": 1}
    assert bench_pairs.summarize(failing, METRICS)["sweep-waveform"]["clips_per_s"][
        "verdict"] == "no claim"  # more failed units than the parent


@pytest.mark.parametrize("gain,verdict", [(1.18, "no claim"), (1.30, "claim")])
def test_claim_needs_a_gain_past_the_bound(gain, verdict):
    """+18 % wins 10 of 10 pairs by more than the parent's q1-q3 spread, yet is short of the
    24 % bound of ``clips_per_s``; +30 % is past it."""
    m = bench_pairs.summarize(runs(CLIPS, [v * gain for v in CLIPS]), METRICS)[
        "sweep-waveform"]["clips_per_s"]
    parent = m["parent"]
    assert m["change_better_pairs"] == 10
    assert m["change"]["median"] - parent["median"] > parent["q3"] - parent["q1"]
    assert m["gain_over_bound"] == pytest.approx((gain - 1) / m["bound"])
    assert m["verdict"] == verdict


def test_no_regression_verdicts():
    """Against each metric's bound: 24 % for the rates and latencies, 10 % for peak RSS. The
    parent's q1-q3 spread of CLIPS is 11 % of its median; that of WIDE, 44 %."""
    def regression(parent, change):
        summary = bench_pairs.summarize(runs(parent, change), METRICS)["sweep-waveform"]
        return {name: summary[name]["regression"] for name in
                ("clips_per_s", "latency_p50_ms", "peak_rss_mb")}

    assert regression(CLIPS, CLIPS) == {"clips_per_s": "within bound",
                                        "latency_p50_ms": "within bound",
                                        "peak_rss_mb": "unresolved"}
    assert regression(CLIPS, [v * 0.7 for v in CLIPS]) == {
        "clips_per_s": "worse past bound", "latency_p50_ms": "within bound",
        "peak_rss_mb": "within bound"}  # every change run below every parent run
    wide = [6, 14, 7, 13, 8, 12, 9, 11, 10, 10]
    assert regression(wide, [v * 0.9 for v in wide])["clips_per_s"] == "unresolved"
    assert regression(wide, [v * 3 for v in wide]) == {
        "clips_per_s": "within bound", "latency_p50_ms": "unresolved",
        "peak_rss_mb": "unresolved"}


def test_slow_pairs_are_flagged_and_kept():
    parent, change = CLIPS + [2.0], [v * 1.5 for v in CLIPS] + [3.0]
    summary = bench_pairs.summarize(runs(parent, change), METRICS)["sweep-waveform"]
    assert summary["pairs"] == 11
    assert summary["clips_per_s"]["both_worse_pairs"] == [11]
    assert 11 not in summary["latency_p50_ms"]["both_worse_pairs"]  # 2.0 and 3.0 are fast latencies
    assert summary["clips_per_s"]["parent"]["q1"] == pytest.approx(
        bench_pairs.quartiles(parent)["q1"])


def test_json_holds_every_run(tmp_path, monkeypatch, capsys):
    trees = {}
    for side in ("parent", "change"):
        (tmp_path / side / ".artifacts").mkdir(parents=True)
        (tmp_path / side / ".artifacts" / "codec_kw.ckpt").write_bytes(b"same model")
        trees[side] = tmp_path / side
    order, lines = [], iter([json.dumps(result(v)) for v in CLIPS * 2]
                          + ["Traceback", json.dumps(result(9.0))])

    def canned(tree, workload, seed):
        order.append((tree.name, seed))
        return 0, next(lines)

    monkeypatch.setattr(bench_pairs, "run_bench", canned)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(trees["parent"]), "--change", str(trees["change"]),
            "--workload", "sweep-waveform", "--out", str(out)]
    assert bench_pairs.main(argv + ["--seeds", "5-14"]) == 0
    assert order[:4] == [("parent", 5), ("change", 5), ("change", 6), ("parent", 6)]
    doc = json.loads(out.read_text())
    assert [r["result"]["metrics"]["clips_per_s"]["value"] for r in doc["runs"]] == CLIPS * 2
    assert doc["summary"]["sweep-waveform"]["clips_per_s"]["verdict"] == "no claim"
    assert "clips_per_s: median" in capsys.readouterr().out
    assert bench_pairs.main(argv + ["--seeds", "15-15"]) == 0  # extends the file
    doc = json.loads(out.read_text())
    assert len(doc["runs"]) == 22 and doc["runs"][-2]["line"] == "Traceback"
    assert doc["runs"][-2]["result"] is None and "line" not in doc["runs"][-1]
    assert doc["summary"]["sweep-waveform"]["pairs"] == 11  # the failed pair counts as run
    assert not doc["summary"]["sweep-waveform"]["all_correct"]
    kept = out.read_text()
    for field, value in (("models", {"codec_kw.ckpt": "other"}), ("seconds", 30)):
        other = json.loads(kept)
        if field == "models":
            other["models"] = value
        else:
            other["runs"][0]["seconds"] = value
        out.write_text(json.dumps(other))
        assert bench_pairs.main(argv + ["--seeds", "16-16"]) == 2  # not pooled with this batch
        assert json.loads(out.read_text()) == other
    assert len(order) == 22


def test_trees_with_other_models_exit_2(tmp_path):
    for side, blob in (("parent", b"a"), ("change", b"b")):
        (tmp_path / side / ".artifacts").mkdir(parents=True)
        (tmp_path / side / ".artifacts" / "codec_kw.ckpt").write_bytes(blob)
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "explain",
                             "--seeds", "1-2", "--out", str(tmp_path / "o.json")]) == 2
    assert not (tmp_path / "o.json").exists()
