"""Render ``benchmarks/trajectory.jsonl``: one line per performance
change.

    python benchmarks/render_trajectory.py [path]

Each line of the file is one JSON object: ``change`` (its number in
CHANGES.md), ``commit`` (``null`` until the change's commit exists),
``title``, ``claim`` (``{"workload", "metric"}``, or ``null`` for a
change that claims nothing), ``host_spin_ms`` (``null`` where the
change did not record it) and ``pairs``: the interleaved
``benchmarks/e2e/run.py`` pair sets the change reported, each with its
``workload``, ``metric``, ``seeds``, ``parent`` and ``change`` as
``[median, Q1, Q3]`` (``null`` where not reported), and ``wins`` (pairs
the change won, or ``null``) of ``n``.  The table printed has one row
per pair set, the claimed ones marked ``*``; a line that breaks the
shape is an error (exit 1).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PATH = Path(__file__).with_name("trajectory.jsonl")
KEYS = {"change", "commit", "title", "claim", "host_spin_ms", "pairs"}
PAIR_KEYS = {"workload", "metric", "seeds", "parent", "change", "wins", "n"}


def load(path: Path) -> list[dict]:
    """The file's lines, checked for shape."""
    rows = []
    for number, line in enumerate(path.read_text().splitlines(), 1):
        row = json.loads(line)
        if set(row) != KEYS or not row["pairs"]:
            raise ValueError(f"{path}:{number}: keys {sorted(row)}, want {sorted(KEYS)}")
        for pair in row["pairs"]:
            if set(pair) != PAIR_KEYS or not all(
                len(pair[side]) == 3 and pair[side][0] is not None
                for side in ("parent", "change")
            ):
                raise ValueError(f"{path}:{number}: malformed pair set {pair}")
        rows.append(row)
    return rows


def spread(values) -> str:
    median, q1, q3 = values
    if q1 is None:
        return f"{median:g}"
    return f"{median:g} [{q1:g}-{q3:g}]"


def render(rows) -> str:
    lines = [
        f"{'#':>4}  {'workload':<14} {'metric':<17} {'parent':>24} "
        f"{'change':>24} {'ratio':>6} {'won':>6}"
    ]
    for row in rows:
        claim = row["claim"] or {}
        for pair in row["pairs"]:
            mark = "*" if (pair["workload"], pair["metric"]) == (
                claim.get("workload"), claim.get("metric")
            ) else " "
            ratio = pair["change"][0] / pair["parent"][0]
            wins = "?" if pair["wins"] is None else pair["wins"]
            won = f"{wins}/{pair['n']}"
            lines.append(
                f"{row['change']:>4}{mark} {pair['workload']:<14} "
                f"{pair['metric']:<17} "
                f"{spread(pair['parent']):>24} {spread(pair['change']):>24} "
                f"{ratio:>6.3f} {won:>6}"
            )
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = Path(argv[0]) if argv else PATH
    try:
        rows = load(path)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(render(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
