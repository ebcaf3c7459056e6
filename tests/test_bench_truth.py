"""The end-to-end benchmark's committed truth tables still answer the
questions this build asks.

``benchmarks/e2e/truth.py`` keys each committed table by a fingerprint
of its query pool: a hash of every spec's ``cache_key()``.  When the
fingerprint of the pool a run builds differs, the harness does not fail
— it ignores the committed table and computes a fresh one, so a change
to the spec's wire form (a field dropped from ``QuerySpec.as_dict``,
say) would silently retire the frozen answers the benchmark checks
against.  This rebuilds the six pools exactly as ``run.py`` does,
reading the harness modules without touching them, and holds each
fingerprint to its committed table.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


catalog, inputs, truth = (_load(name) for name in ("catalog", "inputs", "truth"))


def committed_pools(workload: str, workdir: Path):
    """``(table name, specs)`` of each committed table of ``workload``,
    built the way ``run.py``'s ``prepare`` builds them at full scale."""
    size = inputs.sizes(workload, "full", catalog.RUN_SECONDS)
    seed = truth.DEFAULT_SEED
    if workload == "ingest_live":
        made = inputs.ingest_inputs(workload, seed, size, workdir)
        yield f"{workload}-full", made["pool"]
        for cp in made["checkpoints"]:
            yield f"{workload}-checkpoint-{cp['at']}-full", cp["specs"]
        return
    maker = inputs.serve_inputs if workload == "sharded_serve" else inputs.engine_inputs
    yield f"{workload}-full", maker(workload, seed, size, workdir)["pool"]


@pytest.mark.parametrize("workload", catalog.WORKLOAD_NAMES)
def test_committed_truth_fingerprints_unchanged(workload, tmp_path):
    checked = 0
    for name, specs in committed_pools(workload, tmp_path):
        committed = json.loads((E2E / "truth" / f"{name}.json").read_text())
        assert truth._fingerprint(specs) == committed["fingerprint"], name
        checked += 1
    assert checked == (3 if workload == "ingest_live" else 1)
