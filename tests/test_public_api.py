"""The public API surface advertised in ``repro.__all__`` must exist and work."""

import importlib
import inspect
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

    def test_paper_constant_surfaces_take_no_trio_or_energy_parameters(self):
        """The trio configs, the energy table and the baseline are constants.

        Each surface's parameters are listed in full (48 besides ``self``),
        so a knob added back later shows up as a reviewed change to this list.
        """
        from repro.arch import compare
        from repro.engine import SimulationEngine
        from repro.experiments import fig7_sensitivity, table2_design_params
        from repro.grid import energy_grid, evaluate_grid
        from repro.scnn import simulator
        from repro.timeloop import dse
        from repro.timeloop.energy import layer_energy_from_densities

        expected = {
            SimulationEngine.run_network: ["self", "network", "seed", "sparsity"],
            SimulationEngine.sweep: ["self", "configs", "network", "sparsity"],
            simulator.simulate_layer: ["workload", "output_density"],
            simulator.simulate_network: ["network", "workloads", "seed"],
            compare.compare_network: [
                "network", "architectures", "seed", "density_profile", "engine",
            ],
            compare.compare_networks: [
                "networks", "architectures", "seed", "density_profile", "engine",
            ],
            dse.evaluate_configs: ["configs", "network", "sparsity"],
            dse.sweep: ["configs", "network"],
            evaluate_grid: [
                "specs", "configs", "weight_density", "activation_density",
                "output_density", "model",
            ],
            energy_grid: [
                "specs", "config", "weight_density", "activation_density",
                "output_density", "cycles",
            ],
            layer_energy_from_densities: [
                "spec", "config", "weight_density", "activation_density",
                "output_density", "cycles", "products", "weight_buffer_reads",
            ],
            fig7_sensitivity.run: ["densities", "network_name"],
            table2_design_params.run: [],
            table2_design_params.payload: [],
        }
        for surface, names in expected.items():
            assert list(inspect.signature(surface).parameters) == names, surface
        assert compare.BASELINE == "DCNN"

    def test_service_composition_surfaces(self):
        """The service's composition surfaces, parameter by parameter.

        The payload store is memory-only and the fast path always on, so a
        store root or a fast-path switch added back later shows up as a
        reviewed change to this list.
        """
        from repro.service import (
            CoalescingSink,
            PayloadStore,
            SimulationService,
            create_server,
        )

        expected = {
            SimulationService.__init__: [
                "self", "engine", "registry", "num_workers", "journal_dir",
                "mode", "max_queue_depth", "observability",
            ],
            create_server: [
                "host", "port", "engine", "registry", "num_workers",
                "journal_dir", "mode", "max_queue_depth", "verbose",
                "observability",
            ],
            PayloadStore.__init__: ["self"],
            CoalescingSink.__init__: ["self", "queue", "coalescer", "payloads"],
        }
        for surface, names in expected.items():
            assert list(inspect.signature(surface).parameters) == names, surface
        payloads = inspect.signature(CoalescingSink.__init__).parameters["payloads"]
        assert payloads.default is inspect.Parameter.empty  # the store is required
