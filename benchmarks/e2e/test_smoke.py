"""Smoke test of the benchmark itself: ``python -m pytest benchmarks/e2e -q``.

Runs every workload once at ``--smoke`` scale (both modes, < 60 s) and
checks the contract between ``BENCHMARK.json``, the catalogue and what the
harness prints — not the program's speed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import catalog  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_py(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e-out")
    done = run_py("--workload", "all", "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return out, json.loads((out / "results.json").read_text()), done.stdout


def test_benchmark_json_is_the_catalogue():
    assert DECLARED == catalog.benchmark_json()
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert "setup_s" in catalog.E2E_UNITS
    assert all(0 < bound <= 0.25 for bound in catalog.E2E_BOUND.values())


def test_every_declared_name_is_emitted_and_nothing_else(smoke):
    _out, doc, stdout = smoke
    by_mode = {False: {}, True: {}}
    for run in doc["runs"]:
        by_mode[run["trace"]][run["workload"]] = set(run["metrics"])
        for name in run["metrics"]:
            assert NAME.match(name), name
    for mode in by_mode.values():
        assert set(mode) == set(catalog.WORKLOAD_NAMES)
    # every workload reports every end-to-end metric, none of them zero
    for run in doc["runs"]:
        if not run["trace"]:
            assert set(run["metrics"]) == set(catalog.E2E_UNITS), run["workload"]
            assert all(m["value"] > 0 for m in run["metrics"].values()), run["workload"]
    # per-layer: nothing undeclared, and every declared one comes from somewhere
    emitted = set().union(*by_mode[True].values())
    assert emitted == set(catalog.LAYER_UNITS), emitted ^ set(catalog.LAYER_UNITS)
    # printed by name with its unit
    for name, unit in {**catalog.E2E_UNITS, **catalog.LAYER_UNITS}.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", stdout, re.M), name


def test_no_wrong_answers(smoke):
    _out, doc, _stdout = smoke
    assert doc["fingerprint"]["claim"] is None
    for run in doc["runs"]:
        assert run["correct"] and run["failed"] == 0, (run["workload"], run["wrong"])
        assert run["attempted"] >= run["samples"]["measured"] >= 1


def test_spans_form_a_forest(smoke):
    out, _doc, _stdout = smoke
    for workload in catalog.WORKLOAD_NAMES:
        spans = json.loads((out / f"trace-{workload}.json").read_text())["spans"]
        ids = {s["id"] for s in spans}
        assert len(ids) == len(spans) > 0
        roots = [s for s in spans if s["parent"] is None]
        assert roots
        for s in spans:
            assert s["parent"] is None or s["parent"] in ids
            assert s["end"] >= s["start"]


def test_driver_line(tmp_path):
    done = run_py("--workload", "rtree_engine", "--smoke", "--seed", "5", "--seconds", "10",
                  "--trace", "0", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == set(catalog.E2E_UNITS)
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == catalog.E2E_UNITS[name]


def test_fails_without_the_program(tmp_path):
    """In a directory that holds only BENCHMARK.json and the benchmark's
    own files there is nothing to measure: non-zero exit, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns(".cache", ".work", "out", "__pycache__"),
    )
    done = run_py("--workload", "rtree_engine", "--seed", "1", "--seconds", "10", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert not done.stdout.strip()
