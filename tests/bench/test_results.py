"""BENCH_*.json schema: round-trip, validation, trajectory files."""

import json

import pytest

from repro.bench.results import (
    BENCH_FILE_PREFIX,
    BenchResult,
    BenchRun,
    SCHEMA_VERSION,
    latest_run_path,
    load_run,
    validate_run_dict,
    write_run,
)


def make_run(names=("nn.matmul",), times=(1.0, 2.0, 3.0)):
    results = [BenchResult.from_times(name=n, suite=n.split(".")[0],
                                      times_ms=list(times), items=10.0,
                                      unit="iters", counters={"ops": 5},
                                      peak_rss_kb=1024, calls_per_repeat=7)
               for n in names]
    return BenchRun(results=results, created_at="2026-07-29T00:00:00",
                    git_sha="deadbeef", python="3.11.7", platform="Linux",
                    fast=True, warmup=1, repeats=len(times))


def test_from_times_headline_is_min_and_throughput():
    result = BenchResult.from_times("x.a", "x", [4.0, 2.0, 8.0], items=10.0)
    assert result.wall_time_ms == 2.0
    assert result.throughput == pytest.approx(10.0 / 0.002)


def test_round_trip_preserves_everything():
    run = make_run(names=("nn.matmul", "pim.simulate_network"))
    data = json.loads(json.dumps(run.to_dict()))    # through real JSON text
    rebuilt = BenchRun.from_dict(data)
    assert rebuilt == run
    assert rebuilt.result_by_name("nn.matmul").counters == {"ops": 5}
    assert rebuilt.results[0].calls_per_repeat == 7


def test_validate_rejects_bad_dicts():
    good = make_run().to_dict()
    validate_run_dict(good)

    for mutate, match in [
        (lambda d: d.pop("results"), "missing keys"),
        (lambda d: d.update(schema_version=SCHEMA_VERSION + 1),
         "schema_version"),
        (lambda d: d["results"][0].pop("wall_times_ms"), "missing keys"),
        (lambda d: d["results"][0].update(wall_times_ms=[]), "non-empty"),
        (lambda d: d["results"][0].update(wall_time_ms=-1.0), "negative"),
        (lambda d: d["results"].append(dict(d["results"][0])), "duplicate"),
        # json.load accepts NaN and Infinity, so a run file can carry them
        (lambda d: d["results"][0].update(wall_time_ms=float("nan")),
         "not a finite number"),
        (lambda d: d["results"][0].update(wall_times_ms=[1.0, float("inf")]),
         "not a finite number"),
        (lambda d: d["results"][0].update(wall_time_ms="2.0"),
         "not a finite number"),
        (lambda d: d["results"][0].update(wall_times_ms=[True]),
         "not a finite number"),
        (lambda d: d.update(calibration_ms=float("nan")), "calibration_ms"),
        (lambda d: d.update(calibration_ms=float("inf")), "calibration_ms"),
        (lambda d: d.update(calibration_ms="0.4"), "calibration_ms"),
        (lambda d: d.update(calibration_ms=True), "calibration_ms"),
        (lambda d: d.update(calibration_ms=0.0), "calibration_ms"),
        (lambda d: d.update(calibration_ms=-0.4), "calibration_ms"),
    ]:
        data = json.loads(json.dumps(good))
        mutate(data)
        with pytest.raises(ValueError, match=match):
            validate_run_dict(data)


def test_write_and_load_run(tmp_path):
    run = make_run()
    path = write_run(run, tmp_path)
    assert path.name.startswith(BENCH_FILE_PREFIX)
    assert path.suffix == ".json"
    assert load_run(path) == run


def test_latest_run_path_picks_newest(tmp_path):
    with pytest.raises(FileNotFoundError):
        latest_run_path(tmp_path)
    old = tmp_path / f"{BENCH_FILE_PREFIX}20250101_000000.json"
    new = tmp_path / f"{BENCH_FILE_PREFIX}20260101_000000.json"
    payload = json.dumps(make_run().to_dict())
    old.write_text(payload)
    new.write_text(payload)
    assert latest_run_path(tmp_path) == new


def test_result_by_name_raises_on_unknown():
    with pytest.raises(KeyError):
        make_run().result_by_name("ghost")

