"""Judge set B of runs against set A.

    python benchmarks/e2e/compare.py A/results.json B/results.json [--markdown]

Each file is a result document of ``run.py`` (``--seeds 1,2,...`` makes a
set).  One row per (workload, end-to-end metric): both medians, the ratio
B / A with its base, each side's spread (distance between the first and
third quartile as a share of the median, as ``statistics.quantiles(n=4)``
gives them), the bound, and a verdict:

* ``ok``         B's median is not worse than A's by more than the bound;
* ``worse``      it is;
* ``unresolved`` a side's spread is wider than the bound, so the medians
                 cannot be told apart at that resolution;
* ``noisy``      fewer than 4 runs of a side survive the noise guard: a run
                 that ``run.py`` marked ``noisy`` (the host changed speed by
                 more than a quarter between its passes and set-ups) is
                 never judged.

The ``runs`` column says how many runs of each side were judged.

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import catalog  # noqa: E402

MIN_RUNS = 4


def spread(values: list[float]) -> float:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def load(path: Path) -> dict:
    """``{(workload, metric): [values]}`` over the untraced runs that are
    not marked noisy."""
    doc = json.loads(path.read_text())
    out: dict = {}
    for run in doc["runs"]:
        if run["trace"] or run["noisy"]:
            continue
        if not run["correct"]:
            raise SystemExit(f"{path}: {run['workload']} seed {run['seed']} has wrong answers")
        for name, metric in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(metric["value"])
    return out


def rows(a: dict, b: dict) -> list[dict]:
    table = []
    for workload in catalog.WORKLOAD_NAMES:
        for name, unit, better, bound in catalog.END_TO_END:
            va, vb = a.get((workload, name), []), b.get((workload, name), [])
            row = {"workload": workload, "metric": name, "unit": unit, "bound": bound,
                   "n": (len(va), len(vb))}
            if min(len(va), len(vb)) < MIN_RUNS:
                row["verdict"] = "noisy"
                table.append(row)
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            loss = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            row.update(a=ma, b=mb, ratio=mb / ma, spread_a=spread(va), spread_b=spread(vb))
            if max(row["spread_a"], row["spread_b"]) > bound:
                row["verdict"] = "unresolved"
            else:
                row["verdict"] = "worse" if loss > bound else "ok"
            table.append(row)
    return table


def render(table: list[dict], markdown: bool) -> str:
    head = ["workload", "metric", "A median", "B median", "B/A", "spread A", "spread B",
            "bound", "runs", "verdict"]
    lines = []
    for r in table:
        if "a" in r:
            cells = [r["workload"], r["metric"], f"{r['a']:.5g} {r['unit']}",
                     f"{r['b']:.5g} {r['unit']}", f"{r['ratio']:.3f} of {r['a']:.5g}",
                     f"{r['spread_a']:.1%}", f"{r['spread_b']:.1%}", f"{r['bound']:.0%}",
                     f"{r['n'][0]}+{r['n'][1]}", r["verdict"]]
        else:
            cells = [r["workload"], r["metric"], "-", "-", "-", "-", "-",
                     f"{r['bound']:.0%}", f"{r['n'][0]}+{r['n'][1]}", r["verdict"]]
        lines.append(cells)
    if markdown:
        out = ["| " + " | ".join(head) + " |", "|" + "---|" * len(head)]
        out += ["| " + " | ".join(cells) + " |" for cells in lines]
        return "\n".join(out)
    widths = [max(len(str(c[i])) for c in [head, *lines]) for i in range(len(head))]
    return "\n".join(
        "  ".join(str(c).ljust(w) for c, w in zip(cells, widths)) for cells in [head, *lines]
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--markdown", action="store_true")
    args = ap.parse_args(argv)
    table = rows(load(args.a), load(args.b))
    print(render(table, args.markdown))
    return 1 if any(r["verdict"] == "worse" for r in table) else 0


if __name__ == "__main__":
    sys.exit(main())
