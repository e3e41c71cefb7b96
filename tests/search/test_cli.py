"""Tests for the ``python -m repro search`` subcommand."""

import json

import pytest

from repro.analysis.cli import main


def run(capsys, *argv):
    code = main(["search", "--model", "resnet18", "--population", "16",
                 "--iterations", "4", "--restarts", "1", *argv])
    out = capsys.readouterr().out
    return code, out


class TestSearchCLI:
    def test_scalar_objective(self, capsys):
        code, out = run(capsys, "--objective", "edp")
        assert code == 0
        assert "Design-space search" in out
        assert "edp-opt" in out
        assert "baseline (no epitome)" in out

    def test_pareto_objective(self, capsys):
        code, out = run(capsys, "--objective", "pareto")
        assert code == 0
        assert "front[0]" in out
        assert "*knee" in out

    def test_absolute_budget(self, capsys):
        code, out = run(capsys, "--budget", "300")
        assert code == 0
        assert "budget=300 XBs" in out

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        code, _ = run(capsys, "--objective", "pareto",
                      "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["model"] == "resnet18"
        assert payload["objective"] == "pareto"
        assert payload["feasible"] is True
        assert len(payload["best"]["genome"]) > 0
        assert payload["front"], "pareto mode must serialize the front"
        for point in payload["front"]:
            assert point["crossbars"] <= payload["budget"]

    def test_json_is_versioned_deployable_contract(self, capsys, tmp_path):
        """The --json payload is the schema-v1 artifact `repro serve
        --from-search` consumes (docs/search-to-serve.md)."""
        path = tmp_path / "design.json"
        code, _ = run(capsys, "--objective", "pareto",
                      "--weight-bits", "7", "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["schema"] == "repro-search-result"
        assert payload["schema_version"] == 1
        assert payload["precision"] == {"weight_bits": 7,
                                        "activation_bits": 9,
                                        "use_wrapping": True}
        assert len(payload["layers"]) == len(payload["best"]["genome"])
        for point in payload["front"]:
            assert len(point["genome"]) == len(payload["layers"])
        # and it parses on the serve side
        from repro.serve.deploy import load_search_result
        result = load_search_result(path)
        assert result.weight_bits == 7
        assert len(result.front) == len(payload["front"])

    def test_emit_deployment_writes_servable_manifest(self, capsys,
                                                      tmp_path):
        manifest_path = tmp_path / "deploy.json"
        code, out = run(capsys, "--objective", "latency",
                        "--emit-deployment", str(manifest_path))
        assert code == 0
        assert "wrote deployment manifest" in out
        from repro.serve import ServingEngine
        engine = ServingEngine.from_manifest(str(manifest_path))
        assert engine.report.num_crossbars > 0

    def test_invalid_config_exits_2(self, capsys):
        code = main(["search", "--model", "resnet18", "--population", "0"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("fraction", ["inf", "nan"])
    def test_non_finite_budget_fraction_exits_2(self, fraction, capsys):
        code = main(["search", "--model", "resnet18", "--no-cache",
                     "--budget-fraction", fraction])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: budget_fraction must be finite, "
                                f"got {fraction}\n")

    def test_invalid_objective_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["search", "--objective", "speed"])


class TestGridCacheCLI:
    def test_json_reports_grid_stats(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _ = run(capsys, "--cache-dir", str(tmp_path / "grids"),
                      "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["grid_build_s"] > 0
        assert payload["unique_signatures"] > 0
        cache = payload["grid_cache"]
        assert cache["enabled"] is True
        assert cache["dir"] == str(tmp_path / "grids")
        assert cache["hits"] == 0
        assert cache["misses"] == cache["sim_tasks_unique"]
        assert cache["sim_tasks_unique"] < cache["sim_tasks_total"]

    def test_warm_run_hits_and_matches_cold(self, capsys, tmp_path):
        cold_path, warm_path = tmp_path / "cold.json", tmp_path / "warm.json"
        argv = ["--cache-dir", str(tmp_path / "grids"), "--workers", "2"]
        code, cold_out = run(capsys, *argv, "--json", str(cold_path))
        assert code == 0
        code, warm_out = run(capsys, *argv, "--json", str(warm_path))
        assert code == 0
        cold = json.loads(cold_path.read_text())
        warm = json.loads(warm_path.read_text())
        assert warm["grid_cache"]["misses"] == 0
        assert warm["grid_cache"]["hits"] == \
            cold["grid_cache"]["sim_tasks_unique"]
        assert cold["best"] == warm["best"]
        # stdout (the rendered table + "wrote" line) is cache-agnostic
        # modulo the output path; CI diffs it across cold/warm runs.
        assert cold_out.replace("cold.json", "") \
            == warm_out.replace("warm.json", "")

    def test_no_cache_disables_store(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, _ = run(capsys, "--no-cache", "--cache-dir",
                      str(tmp_path / "grids"), "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["grid_cache"]["enabled"] is False
        assert payload["grid_cache"]["hits"] == 0
        assert not (tmp_path / "grids").exists()

    def test_grid_summary_on_stderr(self, capsys):
        code = main(["search", "--model", "resnet18", "--population", "16",
                     "--iterations", "4", "--restarts", "1"])
        assert code == 0
        err = capsys.readouterr().err
        assert "grid:" in err and "cache" in err
