"""The public API surface advertised in ``repro.__all__`` must exist and work."""

import importlib
import pkgutil

import pytest

import repro


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        major, *_ = repro.__version__.split(".")
        assert major.isdigit()

    def test_subpackage_alls_resolve(self):
        packages = [
            info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
        ]
        assert {"analysis", "arch", "devtools", "engine", "workloads"} <= set(packages)
        for package in packages:
            module = importlib.import_module(f"repro.{package}")
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_quickstart_snippet_from_readme(self):
        """The README quickstart must keep working verbatim."""
        from repro import get_network, simulate_network

        network = get_network("alexnet")
        result = simulate_network(network, seed=0)
        assert result.network_speedup > 1.0
        assert 0.0 < result.network_energy_ratio("SCNN") < 1.0

    def test_configs_exported(self):
        assert repro.SCNN_CONFIG.name == "SCNN"
        assert repro.DCNN_CONFIG.name == "DCNN"
        assert repro.DCNN_OPT_CONFIG.name == "DCNN-opt"

    def test_docstring_mentions_paper(self):
        assert "SCNN" in repro.__doc__
        assert "ISCA" in repro.__doc__

    def test_available_networks_exported(self):
        assert {"alexnet", "googlenet", "vggnet"} <= set(repro.available_networks())

    def test_workload_registry_exported(self):
        assert {"alexnet", "plain-cnn-8"} <= set(repro.available_workloads())
        assert repro.get_workload("alexnet").density_profile == "measured"
        assert "measured" in repro.available_profiles()
        assert repro.get_profile("dense").name == "dense"
        assert isinstance(repro.get_workload("vggnet"), repro.WorkloadSpec)
