"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its
unit, that the seed code passes every correctness check, and that the
benchmark refuses to run without the btem sources beside it.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layers import PER_LAYER
from run import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Descriptive end-to-end names, each reported by the workload that measures it.
NAMED = {
    "sweep": {"sweep_trials_per_s": "1/s", "sweep_trials_per_s_2t": "1/s",
              "sweep_success_rate": "ratio"},
    "fit-large": {"two_round_ms_p50": "ms", "two_round_ms_p90": "ms",
                  "standard_ms_p50": "ms", "standard_ms_p90": "ms",
                  "two_round_exact_rate": "ratio"},
    "cli-io": {"generate_s": "s", "fit_cli_s": "s"},
}
NAMED_EVERYWHERE = {"setup_s": "s", "peak_rss_mb": "MiB", "error_rate": "ratio"}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "1", "--seconds", "1",
         "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def assert_passed(result):
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_spec_matches_code():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == [tuple(m) for m in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        tuple(m[:3]) for m in PER_LAYER]
    assert sorted(WORKLOADS) == sorted(NAMED)


def test_all_workloads_untraced():
    combined = last_json(bench("--workload", "all", "--trace", "0"))
    assert_passed(combined)
    for name in WORKLOADS:
        report = json.loads(
            (HERE / "out" / f"report-{name}-seed1-trace0.json").read_text())
        assert_passed(report["result"])
        metrics = report["result"]["metrics"]
        for spec in SPEC["end_to_end"]:
            entry = metrics[spec["name"]]
            assert entry["unit"] == spec["unit"]
            assert math.isfinite(entry["value"]) and entry["value"] > 0
        expected = {**NAMED[name], **NAMED_EVERYWHERE}
        for key, unit in expected.items():
            assert combined["metrics"][f"{name}.{key}"]["unit"] == unit
        assert report["named"]["error_rate"]["value"] == 0
        assert report["machine"]["workload_seed"] == 1


@pytest.mark.parametrize("name", ["sweep", "fit-large", "cli-io"])
def test_traced_run_emits_every_layer_metric(name):
    result = last_json(bench("--workload", name, "--trace", "1"))
    assert_passed(result)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert (HERE / "out" / f"spans-{name}.jsonl.gz").stat().st_size > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "sweep", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
