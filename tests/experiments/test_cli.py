"""Tests for the experiment command-line runner and the public import surface."""

from __future__ import annotations

import pytest

from repro.experiments.__main__ import build_parser, main
from repro.experiments.runner import ExperimentRunner


class TestCli:
    def test_list_option_prints_every_experiment(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("fig08", "fig11", "table2", "dram", "scheduler",
                              "workloads"):
            assert experiment_id in output

    def test_no_arguments_behaves_like_list(self, capsys):
        assert main([]) == 0
        assert "fig11" in capsys.readouterr().out

    def test_running_one_experiment(self, capsys):
        assert main(["fig08"]) == 0
        output = capsys.readouterr().out
        assert "354" in output and "228" in output

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["not-an-experiment"])

    def test_max_rows_override_is_forwarded(self, capsys):
        assert main(["dram", "--max-rows", "300"]) == 0
        assert "Geo Mean" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig11", "fig12"])
        assert args.experiments == ["fig11", "fig12"]
        assert args.max_rows is None
        assert args.json is None
        assert not args.list

    def test_reports_flag_prints_the_unified_cost_table(self, capsys):
        assert main(["table3", "--max-rows", "150", "--reports"]) == 0
        output = capsys.readouterr().out
        assert "cost reports" in output
        # The unified renderer covers both kinds in one table.
        assert "SpArch[" in output and "OuterSPACE[" in output

    def test_json_output_is_written(self, capsys, tmp_path):
        import json

        path = tmp_path / "results.json"
        assert main(["fig08", "--json", str(path)]) == 0
        capsys.readouterr()
        payload = json.loads(path.read_text())
        assert set(payload) == {"fig08"}
        assert payload["fig08"]["metrics"]
        assert payload["fig08"]["table"]["columns"]


class TestBackendNames:
    def test_runner_rejects_unknown_backend_naming_both(self):
        with pytest.raises(ValueError, match="'scalar', 'vectorized'"):
            ExperimentRunner(engine="streaming")

    @pytest.mark.parametrize("module_name,argv", [
        ("repro.experiments.__main__", ["fig08"]),
        ("repro.workloads.__main__", ["triangles"]),
        ("repro.sweeps.__main__", ["run", "smoke"]),
    ])
    def test_every_cli_rejects_streaming(self, module_name, argv, capsys):
        import importlib

        parser = importlib.import_module(module_name).build_parser()
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([*argv, "--engine", "streaming"])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err
        assert "invalid choice" in error
        assert "scalar" in error and "vectorized" in error
        for backend in ("scalar", "vectorized"):
            assert parser.parse_args([*argv, "--engine", backend]).engine \
                == backend


class TestPublicImportSurface:
    def test_top_level_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
        assert repro.__version__

    @pytest.mark.parametrize("module_name", [
        "repro.formats", "repro.matrices", "repro.hardware", "repro.memory",
        "repro.core", "repro.baselines", "repro.analysis", "repro.apps",
        "repro.experiments", "repro.utils", "repro.workloads",
        "repro.metrics", "repro.engines", "repro.corpus", "repro.sweeps",
    ])
    def test_subpackage_all_resolves(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert getattr(module, name) is not None
