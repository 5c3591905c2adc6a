"""``run.py --compare A.json B.json``: did B regress against A?

One row per workload x end-to-end metric: both medians, B/A (the base
is always A), the metric's bound, and a verdict.

``within``
    B's median is not worse than A's by more than the bound.
``regressed``
    it is.
``unresolved``
    either side's own run-to-run spread — the distance between the
    quartiles of its ``--repeat`` values over their median, as
    ``statistics.quantiles(values, n=4)`` gives them — exceeds the
    bound, so the two sets cannot tell a change that size from noise.

``failed_share`` carries an absolute bound of 0: any rise regresses.
"""

from __future__ import annotations

import json
import statistics


def spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(a: list, b: list, better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base, new = statistics.median(a), statistics.median(b)
    worse = (new - base) / base if better == "lower" \
        else (base - new) / base
    return "regressed" if worse > bound else "within"


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("quick"):
        raise SystemExit(f"{path} is a --quick run: its phases are "
                         f"too short to compare")
    return report


def compare(path_a: str, path_b: str) -> tuple:
    """Returns ``(rows, ok)``; ``ok`` is False when any row is not
    ``within``."""
    a, b = load(path_a), load(path_b)
    rows = []
    for name, cell_a in a["workloads"].items():
        cell_b = b["workloads"].get(name)
        if cell_b is None:
            raise SystemExit(f"{path_b} has no workload {name!r}")
        for metric, spec in cell_a["end_to_end"].items():
            values_a = spec["values"]
            values_b = cell_b["end_to_end"][metric]["values"]
            base, new = (statistics.median(values_a),
                         statistics.median(values_b))
            rows.append({
                "workload": name, "metric": metric,
                "unit": spec["unit"], "a": base, "b": new,
                "ratio_b_over_a": new / base,
                "bound": spec["bound"],
                "verdict": verdict(values_a, values_b,
                                   spec["better"], spec["bound"]),
            })
        share_a, share_b = cell_a["failed_share"], cell_b["failed_share"]
        rows.append({
            "workload": name, "metric": "failed_share", "unit": "share",
            "a": share_a, "b": share_b,
            "ratio_b_over_a": None, "bound": 0.0,
            "verdict": "regressed" if share_b > share_a else "within",
        })
    return rows, all(row["verdict"] == "within" for row in rows)


def render(rows: list) -> str:
    lines = [f"{'workload':<26} {'metric':<15} {'A':>11} {'B':>11} "
             f"{'B/A':>7} {'bound':>6}  verdict"]
    for row in rows:
        share = "" if row["ratio_b_over_a"] is None \
            else f"{row['ratio_b_over_a']:.3f}"
        lines.append(
            f"{row['workload']:<26} {row['metric']:<15} "
            f"{row['a']:>11.4f} {row['b']:>11.4f} {share:>7} "
            f"{row['bound']:>6.2f}  {row['verdict']}")
    return "\n".join(lines)
