"""Tests for the command-line interface (repro.experiments.cli)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.engine
from repro.experiments import cli

GOLDEN = Path(__file__).resolve().parent / "golden"


class TestParser:
    def test_list_flag(self):
        args = cli.build_parser().parse_args(["--list"])
        assert args.list
        assert args.experiments == []

    def test_experiment_arguments(self):
        args = cli.build_parser().parse_args(["table1", "fig7"])
        assert args.experiments == ["table1", "fig7"]


class TestListing:
    def test_every_experiment_listed(self):
        text = cli.list_experiments()
        for key in cli.EXPERIMENTS:
            assert key in text
        assert "all" in text

    def test_experiment_registry_covers_paper_evaluation(self):
        assert set(cli.EXPERIMENTS) == {
            "table1", "table2", "table3", "table4",
            "fig1", "fig7", "fig8", "fig9", "fig10",
            "sec6c", "sec6d",
        }


class TestRunExperiments:
    def test_runs_named_experiments(self, capsys):
        executed = cli.run_experiments(["table2", "table3"])
        assert executed == ["table2", "table3"]
        output = capsys.readouterr().out
        assert "Table II" in output
        assert "Table III" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            cli.run_experiments(["fig99"])


class TestStdoutGoldens:
    """``repro fig1`` and ``repro sec6c`` print their golden bytes.

    Both read the recipe handles' densities, and both print the same bytes
    with numpy's AVX2 and AVX512 loops disabled (``NPY_DISABLE_CPU_FEATURES``),
    so a runner without those features cannot fail them.
    """

    @pytest.mark.parametrize("name", ["fig1", "sec6c"])
    def test_stdout_matches_golden(self, name, capsys, monkeypatch):
        from repro.engine import SimulationEngine

        monkeypatch.setattr(
            repro.engine, "_default_engine", SimulationEngine(cache_dir=False)
        )
        assert cli.run_experiments([name]) == [name]
        lines = capsys.readouterr().out.splitlines(keepends=True)
        printed = "".join(
            line for line in lines if not line.startswith(f"[{name} completed in")
        )
        assert printed == (GOLDEN / f"{name}_stdout.txt").read_text()


class TestServiceDispatch:
    def test_serve_and_submit_route_to_the_service_cli(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.service.cli.serve_main", lambda argv: calls.append(("serve", argv)) or 0
        )
        monkeypatch.setattr(
            "repro.service.cli.submit_main", lambda argv: calls.append(("submit", argv)) or 0
        )
        assert cli.main(["serve", "--port", "8001"]) == 0
        assert cli.main(["submit", "network", "--param", "network=alexnet"]) == 0
        assert calls == [
            ("serve", ["--port", "8001"]),
            ("submit", ["network", "--param", "network=alexnet"]),
        ]

    def test_service_commands_are_not_experiment_ids(self):
        assert not set(cli.SERVICE_COMMANDS) & set(cli.EXPERIMENTS)


class TestCompareDispatch:
    def test_compare_routes_to_the_compare_cli(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.experiments.compare.compare_main",
            lambda argv: calls.append(argv) or 0,
        )
        assert cli.main(["compare", "--networks", "alexnet"]) == 0
        assert calls == [["--networks", "alexnet"]]

    def test_compare_is_not_an_experiment_id(self):
        assert cli.COMPARE_COMMAND not in cli.EXPERIMENTS

    def test_compare_list_flag(self, capsys):
        from repro.experiments.compare import compare_main

        assert compare_main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "SCNN-SparseW" in output
        assert "Section VI-C" in output

    def test_compare_list_names_every_architecture(self):
        from repro.arch.registry import default_registry
        from repro.experiments.compare import list_architectures

        text = list_architectures()
        for spec in default_registry():
            assert f"  {spec.name:14s} {spec.description}" in text.splitlines()
            if spec.paper_reference:
                assert f"[{spec.paper_reference}]" in text

    def test_compare_unknown_architecture_exit_code(self, capsys):
        from repro.experiments.compare import compare_main

        assert compare_main(["--architectures", "TPU"]) == 2
        assert "unknown architecture" in capsys.readouterr().err

    def test_compare_unknown_workload_exit_code(self, capsys):
        from repro.experiments.compare import compare_main

        assert compare_main(["--network", "lenet"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_compare_unknown_density_profile_exit_code(self, capsys):
        from repro.experiments.compare import compare_main

        assert (
            compare_main(["--network", "alexnet", "--density-profile", "nope"])
            == 2
        )
        assert "unknown density profile" in capsys.readouterr().err

    def test_compare_network_flags_replace_the_default_set(self):
        from repro.experiments.compare import build_compare_parser

        args = build_compare_parser().parse_args(
            ["--network", "plain-cnn-8", "--network", "alexnet"]
        )
        assert args.network == ["plain-cnn-8", "alexnet"]
        assert args.networks is None


class TestWorkloadsDispatch:
    def test_workloads_routes_to_the_workloads_cli(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "repro.experiments.workloads.workloads_main",
            lambda argv: calls.append(argv) or 0,
        )
        assert cli.main(["workloads", "--list"]) == 0
        assert calls == [["--list"]]

    def test_workloads_is_not_an_experiment_id(self):
        assert cli.WORKLOADS_COMMAND not in cli.EXPERIMENTS

    def test_workloads_list_and_profiles(self, capsys):
        from repro.experiments.workloads import workloads_main

        assert workloads_main(["--list", "--profiles"]) == 0
        output = capsys.readouterr().out
        assert "plain-cnn-8" in output
        assert "googlenet-stem" in output
        assert "decay-90-30" in output

    def test_workloads_list_reports_every_entry(self):
        """One catalogue line per workload: its conv layer count and the
        density profile its operands are drawn at."""
        from repro.experiments.workloads import list_workloads
        from repro.workloads.registry import default_registry

        # Entry lines are indented by two spaces, their description and
        # reference lines by more.
        entries = [
            line for line in list_workloads().splitlines()[1:] if line[2] != " "
        ]
        lines = {line.split()[0]: line for line in entries}
        assert list(lines) == default_registry().names()
        assert "  5 conv layers," in lines["alexnet"]
        assert lines["alexnet"].endswith("profile measured")
        assert lines["plain-cnn-8"].endswith("profile uniform-50")
        for spec in default_registry():
            assert lines[spec.name].endswith(f"profile {spec.density_profile}")

    def test_profiles_list_names_every_profile(self):
        from repro.experiments.workloads import list_profiles
        from repro.workloads.profiles import available_profiles, get_profile

        lines = list_profiles().splitlines()
        assert lines[0] == "Registered density profiles:"
        assert lines[1:] == [
            f"  {name:14s} {get_profile(name).description}"
            for name in available_profiles()
        ]

    def test_workloads_describe(self, capsys):
        from repro.experiments.workloads import workloads_main

        assert workloads_main(["--describe", "bottleneck-stack-4"]) == 0
        output = capsys.readouterr().out
        assert "block1/reduce" in output
        assert "[w 0.50 / a 0.50]" in output

    def test_workloads_describe_unknown_exit_code(self, capsys):
        from repro.experiments.workloads import workloads_main

        assert workloads_main(["--describe", "lenet"]) == 2
        assert "unknown workload" in capsys.readouterr().err


class TestMain:
    def test_list_exit_code(self, capsys):
        assert cli.main(["--list"]) == 0
        assert "table1" in capsys.readouterr().out

    def test_single_experiment_exit_code(self, capsys):
        assert cli.main(["table4"]) == 0
        assert "Table IV" in capsys.readouterr().out

    def test_unknown_experiment_exit_code(self, capsys):
        assert cli.main(["bogus"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    """numpy is the only numerical backend: neither start-up nor the
    analytical models (a Fig. 7 ladder, a DSE sweep) load scipy."""
    code = (
        "import sys, repro.experiments.cli\n"
        "from repro import get_network\n"
        "from repro.experiments import fig7_sensitivity\n"
        "from repro.timeloop import dse\n"
        "fig7_sensitivity.run((0.1, 0.5, 1.0), 'alexnet')\n"
        "dse.sweep(dse.default_candidates(), get_network('alexnet'))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_network_simulation_loads_no_numpy_ma():
    """A layer task imports nothing beyond its models: numpy 2.x's
    ``np.unique`` imports ``numpy.ma``, which a fresh pool worker would pay
    for on its first layer."""
    code = (
        "import sys\n"
        "from repro.engine import SimulationEngine\n"
        "SimulationEngine(cache_dir=False).run_network('alexnet')\n"
        "print('numpy.ma' in sys.modules)"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
