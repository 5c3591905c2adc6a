"""The committed ``BENCH_offline.json`` holds every claim its cells make.

``benchmarks/offline.py`` is the one offline benchmark driver: a
registry ``CELLS`` of ``run(quick)`` / ``check(result)`` pairs, each bar
stated once, in its cell's ``check`` — the driver's exit code and these
tests read it there.  The tests assert that every committed entry is
full size and passes its ``check``; that every ``check`` *detects* —
a copy of the committed entry pushed just past any one bar fails; that
the two-sided identity verdict sees accounts, not only records;
and that ``run`` feeds ``check`` end to end on one cheap cell.  No
wall-clock number is pinned here: the bars are the checks' own.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent


def _load_offline():
    spec = importlib.util.spec_from_file_location(
        "offline", REPO / "benchmarks" / "offline.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    return module


OFFLINE = _load_offline()
COMMITTED = json.loads((REPO / "BENCH_offline.json").read_text(
    encoding="utf-8"))


def test_committed_file_holds_exactly_the_registry():
    assert sorted(COMMITTED) == sorted(OFFLINE.CELLS)


@pytest.mark.parametrize("name", list(OFFLINE.CELLS))
def test_committed_cell_is_full_size_and_passes(name):
    entry = COMMITTED[name]
    assert entry["workload"]["quick"] is False
    assert OFFLINE.CELLS[name].check(entry) == []


# -- every bar detects ---------------------------------------------------

def _largest_n(rows) -> dict[str, int]:
    """method -> row index at the figure's largest n."""
    n = max(row["n"] for row in rows)
    return {row["method"]: index for index, row in enumerate(rows)
            if row["n"] == n}


def _one_more(value):
    return value + 1


def _one_fewer(value):
    return value - 1


def _bars(name: str, entry: dict) -> list[tuple[tuple, object]]:
    """(path, doctored value) pairs, each pushing one bar just past
    its threshold; a callable value maps the committed one."""
    rows = entry["rows"]
    flips = [(("rows", index, key), False)
             for index, row in enumerate(rows)
             for key in ("identical", "trace_schema_clean") if key in row]
    if name == "batch":
        return [(("summary", "identical"), False),
                (("summary", "speedup"), 1.99)]
    if name == "shards":
        top = max(index for index, row in enumerate(rows)
                  if row["method"] == "rh")
        return flips + [(("rows", top, "speedup_vs_1w"), 1.99),
                        (("rows", top, "leaves"), rows[top]["leaves"] - 1)]
    if name == "stream-churn":
        top = max(index for index, row in enumerate(rows)
                  if row["label"] == "churn")
        return flips + [(("rows", top, "speedup"), 1.19)] + [
            (("rows", index, "speedup"), 1.09)
            for index, row in enumerate(rows) if row["churn_rate"] > 0
        ] + [(("rows", len(rows) - 1, key), 0)
             for key in ("pauses", "resumes")]
    if name == "recovery":
        retain = entry["workload"]["retain"]
        return flips + [
            (("rows", index, "replayed_events"), _one_more)
            for index in range(len(rows))
        ] + [(("rows", index, "checkpoints_retained"), retain + 1)
             for index, row in enumerate(rows) if row["checkpoint_every"]]
    if name == "supervision":
        index = {row["label"]: i for i, row in enumerate(rows)}
        return flips + [
            (("rows", index["baseline"], "supervision",
              "worker_failures"), 1),
            (("rows", index["respawn"], "supervision", "reshards"), 1),
            (("rows", index["respawn"], "supervision",
              "mean_heal_seconds"), 0.0),
            (("rows", index["respawn"], "workers_at_end"), _one_fewer),
            (("rows", index["degraded"], "supervision", "respawns"), 1),
            (("rows", index["degraded"], "workers_at_end"), _one_more),
        ]
    if name == "obs":
        bound = entry["workload"]["bound"]
        return flips + [
            (("rows", index, key), value)
            for index, row in enumerate(rows)
            for key, value in (("root_spans", row["events"] - 1),
                               ("overhead_ratio", bound + 0.001))]
    at = _largest_n(rows)
    slow_to_fast = (("lp", "hungarian", "rh") if name == "fig12"
                    else ("rh", "rhtalu"))
    return [(("rows", at[fast], "total_ms"),
             rows[at[slow]]["total_ms"] * 1.001)
            for slow, fast in zip(slow_to_fast, slow_to_fast[1:])]


def _doctor(entry: dict, path: tuple, value) -> dict:
    doctored = copy.deepcopy(entry)
    *parents, leaf = path
    target = doctored
    for key in parents:
        target = target[key]
    target[leaf] = value(target[leaf]) if callable(value) else value
    return doctored


def _bar_params(name: str):
    """One test per bar, named by the doctored path (and by the value
    where two bars doctor the same path)."""
    bars = _bars(name, COMMITTED[name])
    paths = [path for path, _ in bars]
    for path, value in bars:
        bar_id = f"{name}:{'.'.join(map(str, path))}"
        if paths.count(path) > 1:
            bar_id += f"={value}"
        yield pytest.param(name, path, value, id=bar_id)


BARS = [bar for name in OFFLINE.CELLS for bar in _bar_params(name)]


def test_every_cell_has_a_bar():
    assert {bar.values[0] for bar in BARS} == set(OFFLINE.CELLS)


@pytest.mark.parametrize(("name", "path", "value"), BARS)
def test_bar_detects(name, path, value):
    doctored = _doctor(COMMITTED[name], path, value)
    assert OFFLINE.CELLS[name].check(doctored), \
        f"{name}: check passes with {path} doctored"


# -- the identity verdict and the run -> check wiring --------------------

def test_same_outcome_sees_accounts_not_only_records():
    def side():
        engine = OFFLINE.build_engine("rh", 30, 3, 2)
        return engine, engine.run(8)

    (left_engine, left_records), (right_engine, right_records) = \
        side(), side()
    left = OFFLINE.outcome(left_records, left_engine)
    assert OFFLINE.same_outcome(left, OFFLINE.outcome(right_records,
                                                      right_engine))
    winner = next(iter(right_engine.accounts.accounts))
    right_engine.accounts.accounts[winner].charged += 1e-9
    right = OFFLINE.outcome(right_records, right_engine)
    assert OFFLINE.diff_traces(left["records"],
                               right["records"]).identical
    assert not OFFLINE.same_outcome(left, right)
    assert not OFFLINE.same_outcome(left, dict(left, revenue=-1.0))


def test_recovery_cell_runs_into_its_check():
    cell = OFFLINE.CELLS["recovery"]
    result = cell.run(True)
    assert result["workload"]["quick"] is True
    assert len(result["rows"]) == len(result["workload"]["intervals"])
    assert cell.check(result) == []
