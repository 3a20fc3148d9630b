"""scripts/pairs.py's summary of alternating benchmark pairs, on canned runner lines."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)

END_TO_END = [
    {"name": "intervals_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
]


def run(pair, side, rate, rss, unscaled=None, correct=True):
    """One run as bench/run.py prints its last two lines."""
    context = {"reference": "none", "unscaled_intervals_per_s": unscaled or rate}
    result = {"correct": correct, "attempted": 1, "failed": 0 if correct else 1,
              "metrics": {"intervals_per_s": {"value": rate, "unit": "1/s"},
                          "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return {"pair": pair, "seed": pair, "side": side,
            "lines": [json.dumps(context), json.dumps(result)]}


def canned(change_rss=(66.0, 66.1, 65.9, 66.2, 66.0), correct=True):
    """Five pairs: the change's rate ties pair 0 and wins the rest; its memory is
    lower in every pair."""
    parent_rate = [100.0, 102.0, 98.0, 101.0, 99.0]
    change_rate = [100.0, 103.0, 99.0, 104.0, 100.0]
    parent_rss = [70.0, 70.5, 71.0, 70.4, 70.6]
    runs = []
    for i in range(5):
        runs.append(run(i, "parent", parent_rate[i], parent_rss[i], unscaled=2 * parent_rate[i]))
        runs.append(run(i, "change", change_rate[i], change_rss[i], unscaled=2 * change_rate[i],
                        correct=correct or i != 3))
    return runs


def test_summary_medians_quartiles_wins_and_a_tie():
    metrics = pairs.summarize(canned(), END_TO_END)["metrics"]
    rate = metrics["intervals_per_s"]
    assert rate["parent"] == {"median": 100.0, "q1": 99.0, "q3": 101.0}
    assert rate["change"] == {"median": 100.0, "q1": 100.0, "q3": 103.0}
    assert (rate["wins"], rate["ties"], rate["pairs"]) == (4, 1, 5)
    assert rate["parent_iqr"] == 2.0
    assert not rate["beyond_parent_iqr"] and rate["within_bound"]
    unscaled = metrics["unscaled_intervals_per_s"]
    assert unscaled["parent"]["median"] == 200.0 and unscaled["wins"] == 4


def test_summary_of_a_lower_is_better_metric():
    summary = pairs.summarize(canned(), END_TO_END, claim="peak_rss_mb")
    rss = summary["metrics"]["peak_rss_mb"]
    assert rss["parent"]["median"] == 70.5 and rss["change"]["median"] == 66.0
    assert rss["parent_iqr"] == pytest.approx(0.2)
    assert rss["wins"] == 5 and rss["beyond_parent_iqr"]
    assert rss["worsening"] == pytest.approx(-4.5 / 70.5)
    assert summary["verdict"] == {"all_correct": True, "within_bounds": True,
                                  "claim": "peak_rss_mb", "claim_holds": True}


def test_a_claim_fails_on_a_lost_pair_or_an_incorrect_run():
    lost = pairs.summarize(canned(change_rss=(66.0, 66.1, 71.5, 66.2, 66.0)), END_TO_END,
                           claim="peak_rss_mb")
    assert lost["metrics"]["peak_rss_mb"]["wins"] == 4
    assert not lost["verdict"]["claim_holds"]
    wrong = pairs.summarize(canned(correct=False), END_TO_END, claim="peak_rss_mb")
    assert wrong["metrics"]["peak_rss_mb"]["wins"] == 5
    assert not wrong["verdict"]["claim_holds"] and not wrong["verdict"]["all_correct"]


def test_a_worsening_beyond_the_bound_is_flagged():
    runs = [run(i, side, 100.0 if side == "parent" else 70.0, 70.0)
            for i in range(3) for side in pairs.SIDES]
    summary = pairs.summarize(runs, END_TO_END)
    assert summary["metrics"]["intervals_per_s"]["worsening"] == pytest.approx(0.3)
    assert not summary["verdict"]["within_bounds"]
    assert "claim" not in summary["verdict"]


def test_a_rate_claim_must_hold_on_the_unscaled_rate_too():
    # the probe-scaled rate wins every pair, the unscaled one none
    runs = [run(i, side, 100.0 + 10 * (side == "change"), 70.0,
                unscaled=100.0 - (side == "change")) for i in range(3) for side in pairs.SIDES]
    summary = pairs.summarize(runs, END_TO_END, claim="intervals_per_s")
    assert summary["metrics"]["intervals_per_s"]["wins"] == 3
    assert summary["metrics"]["unscaled_intervals_per_s"]["wins"] == 0
    assert not summary["verdict"]["claim_holds"]


def test_tier1_stores_each_sides_wall_time_exit_code_and_summary(monkeypatch, tmp_path):
    calls = []

    def canned_pytest(cmd, cwd, env, capture_output, text):
        calls.append((cmd, cwd, env["PYTHONPATH"].split(os.pathsep)[0]))
        return subprocess.CompletedProcess(cmd, 1, stdout="..F.\n1 failed, 3 passed in 2.50s\n")

    monkeypatch.setattr(pairs.subprocess, "run", canned_pytest)
    result = pairs.run_tier1(tmp_path)
    assert calls == [(pairs.TIER1, tmp_path, "src")]
    assert "--continue-on-collection-errors" in pairs.TIER1
    assert result["returncode"] == 1 and result["summary"] == "1 failed, 3 passed in 2.50s"
    assert result["wall_s"] >= 0


def test_a_file_for_the_same_commits_keeps_its_tier1_entry(monkeypatch, tmp_path):
    end_to_end = json.loads((pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_extract(commit, dest):
        dest.mkdir(parents=True)
        return {"p": "a" * 40, "c": "b" * 40}[commit]

    def canned_bench(tree, workload, seconds, seed, env):
        metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in end_to_end}
        return {"lines": [json.dumps({"unscaled_intervals_per_s": 1.0}),
                          json.dumps({"correct": True, "metrics": metrics})]}

    tier1_runs = []
    monkeypatch.setattr(pairs, "extract", fake_extract)
    monkeypatch.setattr(pairs, "run_bench", canned_bench)
    monkeypatch.setattr(pairs, "run_tier1", lambda tree: tier1_runs.append(tree.name) or
                        {"wall_s": 90.0, "returncode": 0, "summary": "619 passed in 90.00s"})
    out = tmp_path / "BENCH.json"
    argv = ["--pairs", "2", "--seconds", "1", "--parent", "p", "--change", "c", "--out", str(out)]
    assert pairs.main(["--workload", "policy-large", *argv]) == 0
    assert tier1_runs == ["parent", "change"]
    first = json.loads(out.read_text())
    assert first["tier1"]["change"] == {"wall_s": 90.0, "returncode": 0,
                                        "summary": "619 passed in 90.00s"}
    assert pairs.main(["--workload", "train-default", *argv]) == 0
    assert tier1_runs == ["parent", "change"]       # not rerun
    second = json.loads(out.read_text())
    assert second["tier1"] == first["tier1"]
    assert set(second["runs"]) == {"policy-large", "train-default"}


def test_a_failed_run_is_kept_and_its_pair_left_out(monkeypatch, tmp_path):
    """One bench/run.py exits 1: the series goes on, the file is written, the run keeps
    its exit code and last stderr line, and its pair counts in no metric."""
    end_to_end = json.loads((pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    good = {}
    for r in canned():
        context, result = map(json.loads, r["lines"])
        result["metrics"] = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                             for m in end_to_end} | result["metrics"]
        good[r["pair"], r["side"]] = [json.dumps(context), json.dumps(result)]
    calls = []

    def canned_run(cmd, cwd, env, capture_output, text):
        pair, side = int(cmd[cmd.index("--seed") + 1]), cwd.name
        calls.append((pair, side))
        if (pair, side) == (3, "change"):
            return subprocess.CompletedProcess(cmd, 1, stdout="{}\n",
                                               stderr="Traceback ...\nMemoryError\n")
        stdout = "set-up\n" + "\n".join(good[pair, side]) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    def fake_extract(commit, dest):
        dest.mkdir(parents=True)
        return {"p": "a" * 40, "c": "b" * 40}[commit]

    monkeypatch.setattr(pairs.subprocess, "run", canned_run)
    monkeypatch.setattr(pairs, "extract", fake_extract)
    monkeypatch.setattr(pairs, "run_tier1", lambda tree: {})
    out = tmp_path / "BENCH.json"
    assert pairs.main(["--workload", "train-default", "--pairs", "5", "--seconds", "1",
                       "--parent", "p", "--change", "c", "--out", str(out),
                       "--claim", "peak_rss_mb"]) == 0
    assert len(calls) == 10
    series = json.loads(out.read_text())["runs"]["train-default"]
    failed = [r for r in series["runs"] if "lines" not in r]
    assert failed == [{"pair": 3, "seed": 3, "side": "change", "returncode": 1,
                       "stderr": "MemoryError"}]
    rss = series["metrics"]["peak_rss_mb"]
    assert rss["pairs"] == 4 and rss["wins"] == 4
    assert rss["parent"] == pytest.approx({"median": 70.55, "q1": 70.375, "q3": 70.7})
    assert series["verdict"]["all_correct"] is False
    assert series["verdict"]["claim_holds"] is False


def test_a_series_with_no_complete_pair_has_no_metric():
    runs = [{"pair": 0, "seed": 0, "side": "parent", "returncode": 1, "stderr": ""},
            *canned()[1:2]]
    summary = pairs.summarize(runs, END_TO_END, claim="peak_rss_mb")
    assert summary["metrics"] == {}
    assert summary["verdict"] == {"all_correct": False, "within_bounds": False,
                                  "claim": "peak_rss_mb", "claim_holds": False}
