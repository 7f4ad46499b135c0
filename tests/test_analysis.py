"""Tests for analysis helpers: metrics, aggregation and reporting."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.analysis.aggregate import geometric_mean
from repro.analysis.metrics import (
    average_work_reduction,
    density_table,
    network_characteristics,
)
from repro.analysis.reporting import format_table, format_value
from repro.analysis.serialization import design_point_payload, to_jsonable
from repro.arch import SCNN_CONFIG
from repro.nn.networks import alexnet, googlenet, vggnet


class TestNetworkCharacteristics:
    def test_alexnet_row_matches_paper(self):
        row = network_characteristics(alexnet())
        assert row.conv_layers == 5
        assert row.max_layer_weight_mb == pytest.approx(1.73, rel=0.05)
        assert row.max_layer_activation_mb == pytest.approx(0.31, rel=0.1)
        assert row.total_multiplies_billions == pytest.approx(0.69, rel=0.05)

    def test_vggnet_row_matches_paper(self):
        row = network_characteristics(vggnet())
        assert row.conv_layers == 13
        assert row.max_layer_weight_mb == pytest.approx(4.49, rel=0.05)
        assert row.max_layer_activation_mb == pytest.approx(6.12, rel=0.05)
        assert row.total_multiplies_billions == pytest.approx(15.3, rel=0.02)

    def test_googlenet_row(self):
        row = network_characteristics(googlenet())
        assert row.conv_layers == 54
        assert row.max_layer_weight_mb == pytest.approx(1.32, rel=0.05)
        assert 0.8 < row.total_multiplies_billions < 1.4


class TestDensityTable:
    def test_calibration_rows(self):
        rows = density_table(alexnet())
        assert [row.layer for row in rows] == ["conv1", "conv2", "conv3", "conv4", "conv5"]
        for row in rows:
            assert row.work_fraction == pytest.approx(
                row.weight_density * row.activation_density
            )
            assert row.work_reduction >= 1.0

    def test_measured_rows_from_workloads(self):
        from repro.nn.inference import build_network_workloads

        network = alexnet()
        workloads = build_network_workloads(network, seed=0)
        rows = density_table(network, workloads)
        for row, workload in zip(rows, workloads):
            assert row.weight_density == pytest.approx(workload.weight_density)

    def test_average_work_reduction_weighted_by_multiplies(self):
        network = alexnet()
        rows = density_table(network)
        reduction = average_work_reduction(rows, network)
        # Paper: typical layers reduce work by ~4x; AlexNet's conv1 is dense so
        # the multiply-weighted average sits a bit lower.
        assert 2.0 < reduction < 8.0


class TestAggregate:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, -1.0]) == 0.0


@dataclass
class _Record:
    name: str
    counts: np.ndarray
    scale: np.float64
    _tensors: object = None


class TestSerialization:
    def test_to_jsonable_reduces_numpy_and_dataclasses(self):
        value = {
            "record": _Record("r", np.array([[1, 2], [3, 4]]), np.float64(0.5), object()),
            3: (np.int64(7), None, True, [np.float32(0.25)]),
        }
        reduced = to_jsonable(value)
        # In-process fields (leading underscore) are dropped; keys become strings.
        assert reduced == {
            "record": {"name": "r", "counts": [[1, 2], [3, 4]], "scale": 0.5},
            "3": [7, None, True, [0.25]],
        }
        assert type(reduced["3"][0]) is int
        assert json.loads(json.dumps(reduced)) == reduced

    def test_to_jsonable_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="set"):
            to_jsonable({"values": {1, 2}})

    def test_design_point_payload(self):
        from repro.timeloop.dse import DesignPoint

        point = DesignPoint(
            config=SCNN_CONFIG, cycles=1234.0, energy=5.5e6, area_mm2=7.9
        )
        payload = design_point_payload(point)
        assert payload == {
            "name": "SCNN",
            "config": to_jsonable(SCNN_CONFIG),
            "cycles": 1234.0,
            "energy": 5.5e6,
            "area_mm2": 7.9,
            "energy_delay_product": 1234.0 * 5.5e6,
        }
        assert payload["config"]["dataflow"]["name"] == "PT-IS-CP-sparse"
        assert json.loads(json.dumps(payload)) == payload


class TestReporting:
    def test_format_value(self):
        assert format_value(3.14159) == "3.14"
        assert format_value(True) == "yes"
        assert format_value(0.0) == "0"
        assert format_value(1234567) == "1,234,567"
        assert format_value("text") == "text"

    def test_format_table_alignment(self):
        table = format_table(
            ["Name", "Value"],
            [("alpha", 1), ("beta", 22)],
            title="Demo",
        )
        lines = table.splitlines()
        assert lines[0] == "Demo"
        assert "Name" in lines[2]
        # All data rows share the header's column offset for the second column.
        offset = lines[2].index("Value")
        assert lines[4][offset:].startswith("1")
        assert lines[5][offset:].startswith("22")

    def test_format_table_without_title(self):
        table = format_table(["A"], [("x",)])
        assert table.splitlines()[0] == "A"
