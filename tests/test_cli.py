"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def small_csv(tmp_path):
    path = tmp_path / "ds.csv"
    rc = main(
        ["generate", str(path), "--kind", "gstd", "--objects", "12",
         "--samples", "30", "--seed", "3"]
    )
    assert rc == 0
    return path


class TestGenerate:
    def test_generate_csv(self, small_csv, capsys):
        assert small_csv.exists()

    def test_generate_json_trucks(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        rc = main(
            ["generate", str(path), "--kind", "trucks", "--objects", "5",
             "--samples", "20"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "5 trajectories" in out


class TestBuildInfoQuery:
    def test_full_pipeline(self, small_csv, tmp_path, capsys):
        index_path = tmp_path / "idx.pages"
        rc = main(
            ["build", str(small_csv), str(index_path), "--tree", "tbtree"]
        )
        assert rc == 0
        assert index_path.exists()
        out = capsys.readouterr().out
        assert "built tbtree" in out

        rc = main(["info", str(index_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TBTree" in out
        assert "entries:     348" in out  # 12 * 29

        rc = main(
            ["query", str(index_path), str(small_csv), "--object", "3",
             "--window", "0.2", "--k", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "object 3" in out  # the source is its own best match
        assert "pruning power" in out

    def test_query_unknown_object(self, small_csv, tmp_path, capsys):
        index_path = tmp_path / "idx.pages"
        main(["build", str(small_csv), str(index_path)])
        capsys.readouterr()
        rc = main(
            ["query", str(index_path), str(small_csv), "--object", "999"]
        )
        assert rc == 2

    def test_build_missing_dataset(self, tmp_path):
        rc = main(["build", str(tmp_path / "nope.csv"), str(tmp_path / "i")])
        assert rc == 1

    def test_info_missing_index(self, tmp_path):
        rc = main(["info", str(tmp_path / "nope.pages")])
        assert rc == 1


class TestExperimentCommand:
    def test_q2_smoke(self, capsys):
        rc = main(
            ["experiment", "q2", "--scale", "0.15", "--queries", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 10 Q2" in out

    def test_q3_smoke(self, capsys):
        rc = main(
            ["experiment", "q3", "--scale", "0.15", "--queries", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 10 Q3" in out

    def test_quality_smoke(self, capsys):
        rc = main(
            ["experiment", "quality", "--trucks", "6", "--queries", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "DISSIM" in out


class TestShard:
    def test_build_inspect_query_stats(self, small_csv, tmp_path, capsys):
        directory = tmp_path / "shards"
        rc = main(
            ["shard", "build", str(small_csv), str(directory),
             "--shards", "3", "--partitioner", "hash",
             "--page-size", "1024"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "3x rtree" in out
        assert (directory / "manifest.json").exists()

        rc = main(["shard", "inspect", str(directory)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "3 shards" in out
        assert "shard 2:" in out

        rc = main(
            ["shard", "query", str(directory), str(small_csv),
             "--k", "3", "--seed", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "DISSIM=" in out
        assert "shards searched" in out

        out_path = tmp_path / "trace.json"
        rc = main(
            ["stats", str(directory), str(small_csv), "--k", "3",
             "--window", "0.3", "--seed", "2", "--output", str(out_path)]
        )
        assert rc == 0
        doc = json.loads(out_path.read_text())
        assert doc["query"]["window_fraction"] == 0.3
        assert len(doc["per_shard"]) == 3
        assert doc["shards_searched"] + doc["shards_pruned"] == 3

    def test_query_missing_directory(self, small_csv, tmp_path):
        rc = main(
            ["shard", "query", str(tmp_path / "nope"), str(small_csv)]
        )
        assert rc == 1


def test_one_kmst_verb_over_three_targets(small_csv, tmp_path, capsys):
    """``query``, ``shard query`` and ``ingest query`` are one verb:
    over the same points they print the same ranks, whatever tree,
    page size or partitioner holds them, and an unknown ``--object``
    is exit code 2 on each."""
    csv = str(small_csv)
    index, shards, store = (str(tmp_path / n) for n in ("idx", "sh", "st"))
    assert main(
        ["build", csv, index, "--tree", "tbtree", "--page-size", "1024"]
    ) == 0
    assert main(
        ["shard", "build", csv, shards, "--shards", "3", "--tree", "tbtree",
         "--partitioner", "temporal"]
    ) == 0
    assert main(
        ["ingest", "init", store, "--tree", "rtree", "--page-size", "1024"]
    ) == 0
    assert main(
        ["ingest", "feed", store, csv, "--sync-every", "16",
         "--compact-every", "200"]
    ) == 0
    capsys.readouterr()
    ranked = []
    for verb in (
        ["query", index, csv],
        ["shard", "query", shards, csv],
        ["ingest", "query", store],
    ):
        assert main(verb + ["--object", "999"]) == 2
        assert "999" in capsys.readouterr().err
        assert main(
            verb + ["--object", "3", "--window", "0.2", "--k", "4",
                    "--seed", "7"]
        ) == 0
        out = capsys.readouterr().out
        assert "pruning power" in out
        assert "20% slice of object 3" in out
        ranked.append([ln for ln in out.splitlines() if "DISSIM=" in ln])
    assert len(ranked[0]) == 4 and "object 3 " in ranked[0][0]
    assert ranked[0] == ranked[1] == ranked[2]


def test_batch_runs_serially(small_csv, tmp_path, capsys):
    index, out = str(tmp_path / "idx"), tmp_path / "batch.jsonl"
    assert main(["build", str(small_csv), index]) == 0
    assert main(
        ["batch", index, str(small_csv), "--queries", "3", "--window", "0.2",
         "--k", "2", "--seed", "4", "--output", str(out)]
    ) == 0
    assert "serial executor" in capsys.readouterr().out
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["type"] for r in rows] == ["query"] * 3 + ["batch"]
    assert all(len(r["matches"]) == 2 for r in rows[:3])


def test_unsigned_shards_are_served_unfiltered(small_csv, tmp_path, capsys):
    directory = tmp_path / "sh"
    assert main(
        ["shard", "build", str(small_csv), str(directory), "--shards", "2",
         "--no-signatures"]
    ) == 0
    assert not list(directory.glob("*.sig"))
    capsys.readouterr()
    assert main(
        ["shard", "query", str(directory), str(small_csv), "--object", "3"]
    ) == 0
    out = capsys.readouterr().out
    assert "object 3 " in out and "filter:" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "x", "--quota-rps", "5"],
        ["serve", "x", "--quota-burst", "5"],
        ["serve", "x", "--deadline-ms", "5"],
        ["serve", "x", "--max-deadline-ms", "5"],
        ["serve", "x", "--drain-grace", "5"],
        ["batch", "x", "y", "--executor", "thread"],
        ["batch", "x", "y", "--workers", "2"],
        ["shard", "query", "x", "y", "--executor", "thread"],
        ["shard", "query", "x", "y", "--workers", "2"],
        ["fsck", "x", "--verbose"],
    ],
    ids=lambda argv: argv[0] + argv[-2],
)
def test_retired_flags_are_usage_errors(argv, capsys):
    """Flags that nothing set are gone: naming one is exit code 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
