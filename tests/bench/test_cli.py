"""CLI smoke tests: list, compare exit codes, parser wiring."""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main as repro_main
from repro.bench import cli as bench_cli
from repro.bench import runner as bench_runner
from repro.bench.registry import BenchmarkRegistry, Workload, benchmark
from repro.bench.results import BenchResult, BenchRun, write_run


def make_run_file(tmp_path, times_by_name, filename=None, fast=True):
    results = [BenchResult.from_times(name=name, suite=name.split(".")[0],
                                      times_ms=[t])
               for name, t in times_by_name.items()]
    run = BenchRun(results=results, created_at="2026-07-29T00:00:00",
                   git_sha=None, python="3.11", platform="Linux",
                   fast=fast, warmup=1, repeats=1)
    if filename is None:
        return write_run(run, tmp_path)
    path = tmp_path / filename
    path.write_text(json.dumps(run.to_dict()))
    return path


def test_bench_list_smoke(capsys):
    assert repro_main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in ["nn.matmul", "nn.train_step", "pim.simulate_network",
                 "pipeline.export_roundtrip", "serve.offered_load_sweep"]:
        assert name in out
    assert "registered benchmarks" in out


def test_bench_compare_file_vs_file(tmp_path, capsys):
    baseline = make_run_file(tmp_path, {"a.x": 10.0}, "baseline.json")
    same = make_run_file(tmp_path, {"a.x": 10.5}, "same.json")
    slow = make_run_file(tmp_path, {"a.x": 20.0}, "slow.json")

    assert repro_main(["bench", "compare", "--baseline", str(baseline),
                       "--run", str(same)]) == 0
    assert "within_tolerance" in capsys.readouterr().out

    assert repro_main(["bench", "compare", "--baseline", str(baseline),
                       "--run", str(slow)]) == 1
    assert "regression" in capsys.readouterr().out

    # tightened tolerance flips the near-identical run to a failure
    assert repro_main(["bench", "compare", "--baseline", str(baseline),
                       "--run", str(same), "--tolerance", "1"]) == 1


def test_bench_compare_warns_on_mode_mismatch(tmp_path, capsys):
    baseline = make_run_file(tmp_path, {"a.x": 10.0}, "baseline.json",
                             fast=True)
    full = make_run_file(tmp_path, {"a.x": 10.0}, "full.json", fast=False)
    assert repro_main(["bench", "compare", "--baseline", str(baseline),
                       "--run", str(full)]) == 0
    assert "not like-for-like" in capsys.readouterr().err


def test_bench_compare_accepts_run_directory(tmp_path):
    baseline = make_run_file(tmp_path, {"a.x": 10.0}, "baseline.json")
    run_dir = tmp_path / "runs"
    run_dir.mkdir()
    make_run_file(run_dir, {"a.x": 10.0})
    assert repro_main(["bench", "compare", "--baseline", str(baseline),
                       "--run", str(run_dir)]) == 0


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_bench_compare_rejects_a_non_finite_or_negative_tolerance(
        tmp_path, capsys, tolerance):
    """Every comparison with NaN is false, so a NaN band would pass any
    regression: the tolerance is checked before anything is compared."""
    baseline = make_run_file(tmp_path, {"a.x": 10.0}, "baseline.json")
    slow = make_run_file(tmp_path, {"a.x": 19.1}, "slow.json")
    assert repro_main(["bench", "compare", "--baseline", str(baseline),
                       "--run", str(slow), "--tolerance", tolerance]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: --tolerance must be a finite number >= 0")


def test_bench_run_requires_known_suite(capsys):
    assert repro_main(["bench", "run", "--fast", "--suite", "nope",
                       "--no-write"]) == 2
    assert "error: unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--repeats", "0", "repeats must be >= 1"),
    ("--rounds", "0", "rounds must be >= 1"),
    ("--warmup", "-1", "warmup must be >= 0"),
], ids=["repeats-0", "rounds-0", "warmup-minus-1"])
def test_bench_run_rejects_a_bad_runner_config(flag, value, message,
                                               capsys):
    assert repro_main(["bench", "run", "--fast", "--no-write",
                       flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_failing_gate_exits_1_naming_the_benchmark(tmp_path, monkeypatch,
                                                   capsys):
    """A gate's verdict is not a harness bug: `error: <benchmark>: ...`
    and exit 1, as `compare` gives a regression — never a traceback."""
    registry = BenchmarkRegistry()

    @benchmark("t.gate", suite="t", registry=registry, repeats=1,
               min_sample_ms=0.0)
    def factory(fast):
        def fn():
            raise AssertionError("overhead 6.30% lies wholly above budget")
        return Workload(fn=fn)

    for module in (bench_cli, bench_runner):
        monkeypatch.setattr(module, "load_suites", lambda: registry)
    baseline = make_run_file(tmp_path, {"t.gate": 1.0}, "baseline.json")
    for extra in (["run", "--no-write"],
                  ["compare", "--baseline", str(baseline)]):
        assert repro_main(["bench", *extra, "--fast",
                           "--name", "t.gate"]) == 1
        err = capsys.readouterr().err
        assert ("error: t.gate: overhead 6.30% lies wholly above budget"
                in err.splitlines())
        assert "Traceback" not in err


def test_bench_compare_bad_inputs_exit_2(tmp_path, capsys):
    assert repro_main(["bench", "compare", "--baseline",
                       str(tmp_path / "ghost.json")]) == 2
    assert "error:" in capsys.readouterr().err

    malformed = tmp_path / "bad.json"
    malformed.write_text("{\"schema_version\": 99}")
    assert repro_main(["bench", "compare", "--baseline",
                       str(malformed)]) == 2
    assert "error:" in capsys.readouterr().err

    malformed.write_text("[" * 200_000)
    assert repro_main(["bench", "compare", "--baseline",
                       str(malformed)]) == 2
    assert "JSON nesting too deep" in capsys.readouterr().err


def _slower_behind_nan_calibration(run):
    run["calibration_ms"] = float("nan")
    for result in run["results"]:
        result["wall_time_ms"] *= 10
        result["wall_times_ms"] = [10 * t for t in result["wall_times_ms"]]


@pytest.mark.parametrize("corrupt", [
    _slower_behind_nan_calibration,
    lambda d: d["results"][0].update(wall_time_ms=float("nan")),
    lambda d: d.update(calibration_ms="0.4"),
], ids=["slower-behind-nan-calibration", "nan-wall-time",
        "string-calibration"])
def test_bench_compare_rejects_non_finite_run(tmp_path, capsys, corrupt):
    baseline = json.loads(
        (Path(__file__).resolve().parents[2] / "benchmarks"
         / "baseline.json").read_text())
    base_path = tmp_path / "baseline.json"
    base_path.write_text(json.dumps(baseline))
    corrupt(baseline)
    run_path = tmp_path / "run.json"
    run_path.write_text(json.dumps(baseline))
    assert repro_main(["bench", "compare", "--baseline", str(base_path),
                       "--run", str(run_path)]) == 2
    captured = capsys.readouterr()
    assert "OK: no regressions" not in captured.out
    assert [line for line in captured.err.splitlines()
            if line.startswith("error: cannot load run")]
    assert "Traceback" not in captured.err


def test_bench_subcommand_is_wired_into_main_parser():
    with pytest.raises(SystemExit):
        repro_main(["bench"])           # missing sub-subcommand
    with pytest.raises(SystemExit):
        repro_main(["bench", "frobnicate"])
