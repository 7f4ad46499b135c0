"""Smoke tests: every example script must run end to end.

The examples double as executable documentation; these tests import each one
and call its ``main()`` (except the full paper reproduction, which is covered
piecewise by the experiment tests and the benchmark harness).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_directory_contents(self):
        names = {path.stem for path in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart",
            "sparse_layer_anatomy",
            "end_to_end_inference",
            "design_space_exploration",
            "pruning_sensitivity",
            "reproduce_paper",
            "service_client",
            "compare_architectures",
            "workload_zoo",
        } <= names

    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        output = capsys.readouterr().out
        assert "Network speedup over DCNN" in output
        assert "conv5" in output

    def test_sparse_layer_anatomy(self, capsys):
        load_example("sparse_layer_anatomy").main()
        output = capsys.readouterr().out
        assert "Compressed-sparse storage" in output
        assert "max |simulated - reference|" in output

    def test_end_to_end_inference(self, capsys):
        load_example("end_to_end_inference").main()
        output = capsys.readouterr().out
        assert "TinyNet" in output
        assert "matched the dense reference" in output

    def test_pruning_sensitivity(self, capsys):
        load_example("pruning_sensitivity").main()
        output = capsys.readouterr().out
        assert "Weights kept" in output
        assert "100%" in output

    def test_design_space_exploration(self, capsys):
        load_example("design_space_exploration").main()
        output = capsys.readouterr().out
        assert "PE granularity" in output
        assert "Accumulator banking" in output

    def test_service_client(self, capsys):
        load_example("service_client").main()
        output = capsys.readouterr().out
        assert "Figure 8 via the service" in output
        assert "DSE sweep via the service" in output
        assert "cache hit-rate" in output

    def test_compare_architectures(self, capsys, monkeypatch):
        import repro.arch.registry
        from repro.arch import default_registry

        # The example registers SCNN-A64; give it a throwaway catalogue so the
        # process-wide one the later tests see keeps its seven built-ins.
        with monkeypatch.context() as patch:
            patch.setattr(repro.arch.registry, "_default_registry", None)
            load_example("compare_architectures").main()
        output = capsys.readouterr().out
        assert "Architecture registry catalogue" in output
        assert "SCNN-SparseW" in output
        assert "SCNN-A64" in output
        assert "one registration" in output
        assert "SCNN-A64" not in default_registry()

    def test_workload_zoo(self, capsys):
        from repro.workloads import default_registry
        from repro.workloads.profiles import unregister_profile

        try:
            load_example("workload_zoo").main()
        finally:
            default_registry().unregister("deep-thin-12")
            unregister_profile("uniform-33")
        output = capsys.readouterr().out
        assert "Registered 'deep-thin-12'" in output
        assert "Cross-architecture comparison" in output
        assert "density as a swept axis" in output

    def test_reproduce_paper_lists_every_experiment(self):
        module = load_example("reproduce_paper")
        titles = [title for title, _ in module.EXPERIMENTS]
        assert len(titles) == 12
        assert any("Figure 8" in title for title in titles)
        assert any("Table III" in title for title in titles)
        assert any("Cross-architecture comparison" in title for title in titles)
