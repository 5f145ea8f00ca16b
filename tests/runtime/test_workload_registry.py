"""Sweep workloads by name: name -> config -> SweepReport."""

import dataclasses

import pytest

from repro.runtime import (
    PooledCSPSweepConfig,
    SweepExecutor,
    SweepReport,
    run_sweep_workload,
    sweep_workloads,
)

pytestmark = pytest.mark.slow


class TestRegistryShape:
    def test_all_four_workloads_are_registered(self):
        assert sweep_workloads() == [
            "csp-portfolio",
            "pooled-csp",
            "pooled-sudoku",
            "serve-load",
        ]

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(KeyError, match="pooled-csp"):
            run_sweep_workload("nope")

    def test_config_builder_rejects_unknown_keys(self):
        with pytest.raises(TypeError):
            run_sweep_workload("pooled-csp", typo_key=1)

    def test_override_of_existing_config_uses_replace(self):
        base = PooledCSPSweepConfig(count=4)
        with pytest.raises(TypeError):
            run_sweep_workload("pooled-csp", base, typo_key=1)

    def test_wrong_config_type_rejected(self):
        with pytest.raises(TypeError, match="PooledSudokuSweepConfig"):
            run_sweep_workload("pooled-sudoku", PooledCSPSweepConfig())


class TestRegisteredWorkloads:
    def test_pooled_csp_returns_report_with_summary(self):
        report = run_sweep_workload(
            "pooled-csp", count=2, max_steps=60, scenario_params={"num_nodes": 6}
        )
        assert isinstance(report, SweepReport)
        assert report.mode == "serial"
        assert report.summary["num_instances"] == 2
        assert len(report.results) == 2
        assert len(report.records) == 2

    def test_pooled_csp_matches_direct_driver_call(self):
        from repro.runtime import pooled_csp_sweep

        kwargs = dict(count=2, max_steps=60, scenario_params={"num_nodes": 6})
        via_registry = run_sweep_workload("pooled-csp", **kwargs).summary
        direct = pooled_csp_sweep(PooledCSPSweepConfig(scenario="coloring", **kwargs)).summary
        assert via_registry == direct

    def test_pooled_csp_through_fabric_executor(self):
        serial = run_sweep_workload(
            "pooled-csp", count=3, max_steps=60, scenario_params={"num_nodes": 6}
        )
        fabric = run_sweep_workload(
            "pooled-csp",
            count=3,
            max_steps=60,
            scenario_params={"num_nodes": 6},
            executor=SweepExecutor(mode="process", max_workers=2),
        )
        assert fabric.mode == "process"
        assert fabric.summary == serial.summary

    def test_pooled_sudoku_smoke(self):
        report = run_sweep_workload("pooled-sudoku", count=1, max_steps=40)
        assert report.summary["num_puzzles"] == 1
        assert len(report.records) == 1

    def test_csp_portfolio_synthesized_report(self):
        report = run_sweep_workload(
            "csp-portfolio", count=2, max_steps=60, scenario_params={"num_nodes": 6}
        )
        assert report.mode == "batched"
        assert len(report.records) == len(report.results) == 2
        assert all(rec.worker == -1 for rec in report.records)
        assert report.summary["num_instances"] == 2

    def test_serve_load_synthesized_report(self):
        report = run_sweep_workload(
            "serve-load",
            num_clients=2,
            requests_per_client=2,
            unique_instances=2,
            max_steps=150,
            scenario_params={"num_nodes": 6},
        )
        assert report.mode == "serve"
        assert len(report.results) == len(report.records) == 4
        assert report.summary["num_requests"] == 4

    def test_configs_are_frozen_and_replaceable(self):
        config = PooledCSPSweepConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.count = 3
        assert dataclasses.replace(config, count=3).count == 3
