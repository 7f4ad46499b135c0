"""The public API surface advertised in ``repro.__all__`` must exist and work."""

import importlib
import inspect
import pkgutil
from pathlib import Path

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

    def test_quickstart_snippet_from_readme(self, capsys):
        """The README quickstart, run verbatim from the README."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        quickstart = readme.split("## Quickstart", 1)[1]
        snippet = quickstart.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(snippet, "README.md", "exec"), namespace)
        comparison = namespace["comparison"]
        assert comparison.speedup("SCNN") > 1.0
        assert 0.0 < comparison.energy_ratio("SCNN") < 1.0
        assert "SCNN speedup over DCNN" in capsys.readouterr().out

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

    def test_workload_handle_is_the_one_workload_type(self):
        """``repro.engine`` re-exports the recipe type ``repro.nn.inference``
        defines, every layer of a network is one, and the raw-tensor
        workload type is gone from the public packages."""
        from repro import engine, nn
        from repro.engine.workloads import network_handles
        from repro.nn import inference

        assert engine.WorkloadHandle is inference.WorkloadHandle
        _, handles = network_handles(repro.alexnet(), seed=0)
        assert {type(handle) for handle in handles} == {inference.WorkloadHandle}
        for package in (repro, nn, engine, inference):
            assert not hasattr(package, "LayerWorkload"), package.__name__
        assert not hasattr(engine.core, "AnyWorkload")

    def test_paper_constant_surfaces_take_no_trio_or_energy_parameters(self):
        """The trio configs, the energy table and the baseline are constants,
        and so are the PE grid, the tiling plan, the Figure 1 densities and
        the engine the experiments share.

        Each surface's parameters are listed in full (60 besides ``self``),
        so a knob added back later shows up as a reviewed change to this list.
        """
        from repro.analysis.metrics import density_table
        from repro.arch import compare
        from repro.dataflow.tiling import plan_layer
        from repro.engine import SimulationEngine
        from repro.experiments import fig1_density, fig7_sensitivity, table2_design_params
        from repro.experiments.common import cached_simulation
        from repro.grid import energy_grid, evaluate_grid
        from repro.scnn.cycles import simulate_layer_cycles
        from repro.scnn.dcnn import simulate_dcnn_layer
        from repro.timeloop import dse
        from repro.timeloop.energy import layer_energy_from_densities

        expected = {
            SimulationEngine.run_network: ["self", "network", "seed", "sparsity"],
            SimulationEngine.sweep: ["self", "configs", "network", "sparsity"],
            compare.compare_network: [
                "network", "architectures", "seed", "density_profile", "engine",
            ],
            compare.compare_networks: [
                "networks", "architectures", "seed", "density_profile", "engine",
            ],
            compare.network_comparison: ["simulation", "architectures", "columns"],
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
            plan_layer: ["spec", "num_pes", "group_size"],
            simulate_layer_cycles: [
                "spec", "weights", "activations", "config", "integrals",
            ],
            simulate_dcnn_layer: ["spec", "config"],
            fig1_density.run: ["networks"],
            density_table: ["workloads"],
            cached_simulation: ["name", "seed"],
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
