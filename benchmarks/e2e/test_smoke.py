"""Smoke test for the served-path benchmark: ``pytest benchmarks/e2e``.

Outside tier-1 ``testpaths`` on purpose — it boots real servers and
takes about a minute.  It checks the contract, not the numbers:
``BENCHMARK.json`` agrees with the harness's own tables, plans are a
function of the seed, the driver line has exactly the promised keys
in both trace modes, and a ``--quick`` report is complete, correct,
marked, and refused by ``--compare``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def harness(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=300, check=check)


def test_contract_matches_the_harness_tables():
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert CONTRACT["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert CONTRACT["run_seconds"] == run.RUN_SECONDS
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] \
        == [(w.name, w.why) for w in WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in CONTRACT["per_layer"]] == list(layers.PER_LAYER)


def test_plan_is_a_function_of_the_seed():
    workload = WORKLOADS[0].scaled(run.QUICK_DIVISOR)
    same = [build_plan(workload, 5, run.QUICK_SECONDS).digest()
            for _ in range(2)]
    other = build_plan(workload, 6, run.QUICK_SECONDS).digest()
    assert same[0] == same[1] != other


def test_driver_line_has_exactly_the_contract_keys():
    for trace, table in ((0, CONTRACT["end_to_end"]),
                         (1, CONTRACT["per_layer"])):
        done = harness("--workload", "durable-churn-rh-n2000",
                       "--seed", "3", "--seconds", "2",
                       "--trace", str(trace))
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed",
                             "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {name: cell["unit"]
                for name, cell in line["metrics"].items()} \
            == {m["name"]: m["unit"] for m in table}
        assert all(isinstance(cell["value"], (int, float))
                   for cell in line["metrics"].values())


def test_quick_report_is_complete_and_refused_by_compare(tmp_path):
    out = tmp_path / "quick.json"
    harness("--quick", "--out", str(out))
    report = json.loads(out.read_text())
    assert report["quick"] is True and report["correct"] is True
    assert list(report)[-1] == "claim" and report["claim"] is None
    assert set(report["host"]) >= {"nproc", "python", "numpy",
                                   "git_commit", "loadavg_1m_start",
                                   "loadavg_1m_end", "noisy"}
    assert list(report["workloads"]) == [w.name for w in WORKLOADS]
    for name, cell in report["workloads"].items():
        assert cell["failed_share"] == 0, name
        assert set(cell["end_to_end"]) \
            == {m["name"] for m in CONTRACT["end_to_end"]}
        assert set(cell["per_layer"]) \
            == {m["name"] for m in CONTRACT["per_layer"]}
        durable = name == "durable-churn-rh-n2000"
        sharded = name == "sharded-batched-rh-n8000"
        layer = {key: value["value"]
                 for key, value in cell["per_layer"].items()}
        assert (layer["stream.journal.fsyncs"] > 0) == durable
        assert (layer["stream.snapshot.writes"] > 0) == durable
        assert (layer["runtime.rounds"] > 0) == sharded
        assert (layer["stream.batching.windows"] > 0) == sharded
        assert layer["obs.overhead_ratio"] > 0
        assert layer["layers.unexplained_ms"] is not None
    refused = harness("--compare", str(out), str(out), check=False)
    assert refused.returncode != 0 and "quick" in refused.stderr
