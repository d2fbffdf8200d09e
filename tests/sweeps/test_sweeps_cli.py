"""The ``python -m repro.sweeps`` run / merge / summarise CLI."""

from __future__ import annotations

import pytest

from repro.sweeps import index as sweep_index
from repro.sweeps.__main__ import _parse_shard, build_parser, main
from repro.sweeps.synth import write_synthetic_store


class TestListing:
    def test_list_prints_sweeps_and_corpora(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for name in ("smoke", "fig17-dse", "engines-suite", "rmat-sweep",
                     "suite-ladder", "density-sweep"):
            assert name in output

    def test_no_arguments_behaves_like_list(self, capsys):
        assert main([]) == 0
        assert "registered sweeps" in capsys.readouterr().out


class TestShardParsing:
    def test_valid_shard(self):
        assert _parse_shard("1/3") == (1, 3)

    @pytest.mark.parametrize("value", ["x", "3", "2/2", "-1/2", "0/0"])
    def test_invalid_shards_rejected(self, value):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_shard(value)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "smoke"])
        assert args.shard == (0, 1)
        assert args.store is None and args.cache_dir is None


class TestEndToEnd:
    def test_shard_run_merge_summarise(self, capsys, tmp_path):
        shard_paths = []
        for shard_index in (0, 1):
            path = tmp_path / f"shard{shard_index}.jsonl"
            assert main(["run", "smoke", "--store", str(path),
                         "--shard", f"{shard_index}/2",
                         "--max-rows", "64"]) == 0
            assert "executed" in capsys.readouterr().out
            shard_paths.append(path)

        merged = tmp_path / "merged.jsonl"
        assert main(["merge", "--out", str(merged),
                     *map(str, shard_paths)]) == 0
        assert "6 records" in capsys.readouterr().out

        # The merge is canonical: a single-shard reference merges to the
        # same bytes the two shard artifacts did.
        reference = tmp_path / "reference.jsonl"
        assert main(["run", "smoke", "--store", str(reference),
                     "--max-rows", "64"]) == 0
        reference_merged = tmp_path / "reference-merged.jsonl"
        assert main(["merge", "--out", str(reference_merged),
                     str(reference)]) == 0
        capsys.readouterr()
        assert merged.read_bytes() == reference_merged.read_bytes()

        assert main(["summarise", str(merged)]) == 0
        output = capsys.readouterr().out
        assert "sparch" in output and "mkl" in output

    def test_summarise_streams_the_same_tables_without_sqlite(
            self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        write_synthetic_store(path, 40, dirty=True)
        assert main(["summarise", str(path)]) == 0
        indexed = capsys.readouterr().out
        assert "(40 cells)" in indexed

        def unavailable(store_path):
            raise sweep_index.IndexUnavailable("no usable sqlite")

        monkeypatch.setattr(sweep_index, "ensure_index", unavailable)
        assert main(["summarise", str(path)]) == 0
        assert capsys.readouterr().out == indexed

    def test_resumed_run_reports_replayed_cells(self, capsys, tmp_path):
        store = tmp_path / "store.jsonl"
        assert main(["run", "smoke", "--store", str(store),
                     "--max-rows", "64", "--max-cells", "2"]) == 0
        assert "2 executed" in capsys.readouterr().out
        assert main(["run", "smoke", "--store", str(store),
                     "--max-rows", "64"]) == 0
        assert "2 replayed" in capsys.readouterr().out

    def test_unknown_sweep_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="unknown sweep"):
            main(["run", "not-a-sweep"])
