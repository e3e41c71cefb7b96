"""End-to-end CLI checks: the determinism matrix and the input-reject table.

    PYTHONPATH=src python -m pytest tools/test_cli_matrix.py -q

Every command runs as a fresh ``python -m repro`` process of this
checkout's ``src/``, with ``PYTHONHASHSEED`` dropped from its
environment, so each run draws its own hash seed and the checks hold
end to end: argument parsing, trace synthesis, report rendering and
file export. The module sits outside ``testpaths``; CI runs it as one
step of the ``serve-smoke`` job with ``--basetemp cli-matrix``, which
keeps every command's files in a directory per cell or row, and uploads
that directory when the step fails.

``CELLS`` is the determinism matrix. Each cell runs its command twice,
both runs at once, and holds them to one rule: each exits 0; their
``--json`` blocks (the text from the last ``\\n{`` on) and every
artifact they write are byte-identical; ``repro obs validate`` passes on
every artifact; and the cell's own check holds.

- scenario cells, {steady-poisson, flash-crowd, chip-failure} x seeds
  {7, 11}: the same seed twice, writing a Chrome trace and Prometheus
  metrics (``docs/scenarios.md``). chip-failure is flash-crowd plus a
  mid-run chip kill, which must shed (availability < 1.0) and still
  complete.
- engine cells, the scenario catalog x seeds {3, 7, 11}: the scalar
  oracle against the vectorized engine on 2,000 requests
  (``docs/vectorized-replay.md``).
- chaos cells, seeds {3, 7}: the seeded resilience drill twice with no
  invariant problem, plus one resilience-armed flash-crowd run whose
  artifacts are validated and summarized (``docs/resilience.md``).

``REJECTS`` is the CLI's input-reject table: each row's bad input exits
with the row's status and prints the row's lines, leaves the files it
was given as they were, and no command prints a traceback. A CLI-facing
input fix adds a row here.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.serve.scenarios import list_scenarios

REPO = Path(__file__).resolve().parent.parent
BASELINE = str(REPO / "benchmarks" / "baseline.json")
ENV = {key: value for key, value in os.environ.items()
       if key != "PYTHONHASHSEED"}
ENV["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))


def repro_all(commands: Sequence[Sequence[str]],
              cwd: Path) -> List[subprocess.CompletedProcess]:
    """Run every command as its own process, all at once."""
    procs = [subprocess.Popen([sys.executable, "-m", "repro", *argv],
                              cwd=cwd, env=ENV, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for argv in commands]
    results = []
    for proc in procs:
        out, err = proc.communicate()
        results.append(subprocess.CompletedProcess(proc.args,
                                                   proc.returncode, out, err))
    return results


def saved(result: subprocess.CompletedProcess, cwd: Path,
          name: str) -> subprocess.CompletedProcess:
    """Keep a command's output next to its files, for the failure upload."""
    (cwd / f"{name}.out").write_text(result.stdout)
    (cwd / f"{name}.err").write_text(result.stderr)
    return result


def describe(result: subprocess.CompletedProcess) -> str:
    return (f"{' '.join(result.args)} exited {result.returncode}\n"
            f"--- stdout\n{result.stdout}--- stderr\n{result.stderr}")


# ----------------------------------------------------------------------
# The determinism matrix
# ----------------------------------------------------------------------

def _no_check(summary: dict, texts: Dict[str, str]) -> None:
    pass


@dataclass(frozen=True)
class Cell:
    """One command, run once per label in ``runs``; "{run}" in ``argv``
    and ``artifacts`` is the label."""

    id: str
    argv: Tuple[str, ...]
    runs: Tuple[str, str] = ("a", "b")
    artifacts: Tuple[str, ...] = ()
    # A further command, run next to the pair; its artifacts are
    # validated, not compared.
    extra: Tuple[str, ...] = ()
    extra_artifacts: Tuple[str, ...] = ()
    summarize: Optional[str] = None     # a metrics file to summarize
    check: Callable[[dict, Dict[str, str]], None] = _no_check


def fails_over(summary: dict, texts: Dict[str, str]) -> None:
    """The chip kill fired, and the spike on halved capacity shed."""
    assert summary["fault_events"] >= 1.0, summary
    assert summary["availability"] < 1.0, summary


def names_its_engine(summary: dict, texts: Dict[str, str]) -> None:
    for engine, text in texts.items():
        assert f"replay engine: {engine}" in text, (
            f"the {engine} run did not report the requested engine")
    assert summary["completed"] > 0, summary


def no_problems(payload: dict, texts: Dict[str, str]) -> None:
    assert payload["problems"] == [], payload["problems"]


def scenario_cell(scenario: str, seed: int) -> Cell:
    faults: Tuple[str, ...] = ()
    replayed = scenario
    if scenario == "chip-failure":
        replayed, faults = "flash-crowd", ("--faults", "chip-kill@t=0.5")
    return Cell(
        id=f"scenario-{scenario}-seed{seed}",
        argv=("serve", "--scenario", replayed, *faults, "--seed", str(seed),
              "--num-requests", "500", "--num-chips", "2",
              "--trace-out", "trace-{run}.json",
              "--metrics-out", "metrics-{run}.prom", "--json"),
        artifacts=("trace-{run}.json", "metrics-{run}.prom"),
        summarize="metrics-a.prom",
        check=fails_over if faults else _no_check)


def engine_cell(scenario: str, seed: int) -> Cell:
    return Cell(
        id=f"engine-{scenario}-seed{seed}",
        argv=("serve", "--scenario", scenario, "--engine", "{run}",
              "--seed", str(seed), "--num-requests", "2000",
              "--num-chips", "2", "--trace-out", "trace-{run}.json",
              "--json"),
        runs=("scalar", "vectorized"),
        artifacts=("trace-{run}.json",),
        check=names_its_engine)


def chaos_cell(seed: int) -> Cell:
    # `serve chaos` exits 1 on any invariant breach.
    return Cell(
        id=f"chaos-seed{seed}",
        argv=("serve", "chaos", "--seed", str(seed), "--json"),
        extra=("serve", "--scenario", "flash-crowd", "--seed", str(seed),
               "--num-requests", "500", "--num-chips", "2",
               "--resilience", "--resilience-seed", str(seed),
               "--faults", "chip-kill@t=0.5",
               "--trace-out", "chaos-trace.json",
               "--metrics-out", "chaos-metrics.prom"),
        extra_artifacts=("chaos-trace.json", "chaos-metrics.prom"),
        summarize="chaos-metrics.prom",
        check=no_problems)


CELLS = ([scenario_cell(scenario, seed)
          for scenario in ("steady-poisson", "flash-crowd", "chip-failure")
          for seed in (7, 11)]
         + [engine_cell(scenario, seed)
            for scenario in sorted(list_scenarios()) for seed in (3, 7, 11)]
         + [chaos_cell(seed) for seed in (3, 7)])


def json_block(text: str) -> str:
    assert "\n{" in text, "no --json block in the output"
    return text[text.rindex("\n{") + 1:]


def first_difference(a: bytes, b: bytes) -> Optional[int]:
    """The offset ``cmp`` reports, or None when the bytes are equal."""
    if a == b:
        return None
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y),
                min(len(a), len(b)))


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: cell.id)
def test_cell(cell: Cell, tmp_path_factory):
    cwd = tmp_path_factory.mktemp(cell.id, numbered=False)
    commands = [[arg.format(run=run) for arg in cell.argv]
                for run in cell.runs]
    names = list(cell.runs)
    if cell.extra:
        commands.append(list(cell.extra))
        names.append("extra")
    results = [saved(result, cwd, name) for result, name
               in zip(repro_all(commands, cwd), names)]
    for result in results:
        assert result.returncode == 0, describe(result)

    texts = {run: result.stdout for run, result in zip(cell.runs, results)}
    first, second = (json_block(text) for text in texts.values())
    assert first == second, f"runs {cell.runs} printed different --json"
    artifacts = []
    for template in cell.artifacts:
        a, b = (cwd / template.format(run=run) for run in cell.runs)
        offset = first_difference(a.read_bytes(), b.read_bytes())
        assert offset is None, f"{a.name} and {b.name} differ at byte {offset}"
        artifacts += [a.name, b.name]

    checks = [["obs", "validate", *artifacts, *cell.extra_artifacts]]
    if cell.summarize is not None:
        checks.append(["obs", "summarize", cell.summarize])
    for result in repro_all(checks, cwd):
        assert result.returncode == 0, describe(result)
    cell.check(json.loads(first), texts)


# ----------------------------------------------------------------------
# The input-reject table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Reject:
    """Bad input: exit ``status``, each pattern matches a line, and each
    of ``files`` still holds the bytes written to it before the run."""

    id: str
    argv: Tuple[str, ...]
    status: int
    stderr: Tuple[str, ...] = ()
    stdout: Tuple[str, ...] = ()
    files: Dict[str, bytes] = field(default_factory=dict)
    timeout: Optional[float] = None     # for an input that used to hang


ERROR = r"^error: "
# Nested past the JSON decoder's recursion limit.
DEEP = {"deep.json": b"[" * 200_000 + b"\n"}
# An integer literal one digit past the interpreter's limit, which the
# commands inherit through the environment.
INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
OVER_LIMIT = b"9" * (INT_LIMIT + 1)
needs_int_limit = pytest.mark.skipif(INT_LIMIT == 0,
                                     reason="integer digit limit is off")

REJECTS = [
    # Two requests sharing an id would share one retry-once slot on
    # failover.
    Reject("serve-duplicate-request-id",
           ("serve", "--requests", "dup-trace.json"), 2, (ERROR,),
           files={"dup-trace.json": b'{"requests": [{"id": 0, "arrival_ms": '
                  b'0.0}, {"id": 0, "arrival_ms": 1.0}]}\n'}),
    *(Reject(f"serve-{flag[2:]}-deep-json", ("serve", flag, "deep.json"), 2,
             (r"^error: .*nesting too deep",), files=DEEP)
      for flag in ("--requests", "--manifest", "--from-search")),
    Reject("obs-validate-deep-json-and-list-pid",
           ("obs", "validate", "deep.json", "list-pid.json"), 1,
           stdout=(r"line 1: not valid JSON \(nesting too deep\)",
                   r"event\[0\]: 'pid' must be a number or string"),
           files={**DEEP, "list-pid.json": (
               b'{"traceEvents": [{"ph": "X", "ts": 1.0, "dur": 1.0, '
               b'"pid": [1], "tid": 0, "name": "a"}]}\n')}),
    # A file that is not UTF-8 is INVALID; the files after it still
    # validate.
    Reject("obs-validate-undecodable-file",
           ("obs", "validate", "bom.json", "ok.jsonl"), 1,
           stdout=(r"^bom\.json: INVALID \(unreadable\)",
                   r"^ok\.jsonl: ok \(jsonl\)"),
           files={"bom.json": b"\xff\xfe{}",
                  "ok.jsonl": b'{"name": "a", "type": "counter", '
                              b'"value": 1}\n'}),
    # An over-limit integer raised ValueError past the JSON error
    # handlers; a .json file falls back to line-by-line reading.
    pytest.param(Reject(
        "obs-validate-over-limit-integer",
        ("obs", "validate", "big.jsonl", "big.json"), 1,
        stdout=(r"^big\.jsonl: INVALID \(jsonl\)",
                r"^  - line 2: not valid JSON \(Exceeds the limit",
                r"^big\.json: INVALID \(jsonl\)",
                r"^  - line 1: not valid JSON \(Exceeds the limit"),
        files={"big.jsonl": b'{"a": 1}\n{"n": ' + OVER_LIMIT + b"}\n",
               "big.json": b'{"traceEvents": [{"ph": "X", "ts": 1.0, '
                           b'"dur": 1.0, "name": "a", "pid": ' + OVER_LIMIT
                           + b"}]}\n"}), marks=needs_int_limit),
    pytest.param(Reject(
        "obs-summarize-over-limit-integer",
        ("obs", "summarize", "big.jsonl"), 2,
        (r"^error: big\.jsonl failed validation \(jsonl\): line 1: not "
         r"valid JSON \(Exceeds the limit",),
        files={"big.jsonl": b'{"name": "a", "type": "counter", "value": '
                            + OVER_LIMIT + b"}\n"}), marks=needs_int_limit),
    # A mistyped input flag once matched an output flag by prefix:
    # `--trace` wrote spans over the file as `--trace-out`. `serve`
    # takes a subcommand, so argparse reports the stray value.
    Reject("serve-trace-is-no-trace-out", ("serve", "--trace", "t.json"), 2,
           (r"error: argument \{scenarios,chaos\}: invalid choice: "
            r"'t\.json'",),
           files={"t.json": b'{"requests": [{"id": 0, "arrival_ms": '
                  b'0.0}]}\n'}),
    Reject("search-trace-is-no-trace-out", ("search", "--trace", "t.json"), 2,
           (r"error: unrecognized arguments: --trace t\.json$",),
           files={"t.json": b"{}\n"}),
    Reject("obs-summarize-non-object-line",
           ("obs", "summarize", "list.jsonl"), 2, (ERROR,),
           files={"list.jsonl": b"[1]\n"}),
    # Span JSONL is valid JSONL; it read as one "?" metric per span.
    Reject("obs-summarize-span-jsonl",
           ("obs", "summarize", "spans.jsonl"), 2,
           (r"^error: spans\.jsonl line 1: 'type' must be counter, gauge "
            r"or histogram, got None$",),
           files={"spans.jsonl": b'{"name": "request", "cat": '
                  b'"serve.request", "track": "requests", "start_ms": 0.0, '
                  b'"end_ms": 1.5, "dur_ms": 1.5, "args": {"id": 0}}\n'}),
    # A non-finite batching window would hold the last partial batch
    # forever; an infinite offered rate would put every arrival at 0.
    *(Reject(f"serve-{flag[2:]}-{value}",
             ("serve", "--num-requests", "21", flag, value), 2, (ERROR,),
             timeout=60)
      for flag in ("--window-ms", "--rate-fps") for value in ("inf", "nan")),
    Reject("figure3-resnet18", ("figure3", "--model", "resnet18"), 2,
           (ERROR,)),
    Reject("figure3-resnet34", ("figure3", "--model", "resnet34"), 2,
           (r"^error: layer4\.2\.conv1 is a 3x3 512->512 conv in ResNet34, "
            r"not the 1x1 2048->512 conv of ResNet50",)),
    # A NaN tolerance would pass every regression.
    Reject("bench-compare-nan-tolerance",
           ("bench", "compare", "--baseline", BASELINE, "--run", BASELINE,
            "--tolerance", "nan"), 2, (ERROR,)),
    Reject("serve-negative-resilience-seed",
           ("serve", "--num-requests", "10", "--resilience",
            "--resilience-seed", "-3"), 2,
           (r"^error: resilience seed must be a non-negative integer, "
            r"got -3$",)),
    # A NaN floor compares false, so the drill's floor check never fired.
    Reject("serve-chaos-nan-availability-floor",
           ("serve", "chaos", "--availability-floor", "nan"), 2,
           (r"^error: availability_floor must be a finite number in "
            r"\[0, 1\], got nan$",)),
    Reject("serve-chaos-negative-seed", ("serve", "chaos", "--seed", "-3"),
           2, (r"^error: chaos seed must be a non-negative integer, "
               r"got -3$",)),
    *(Reject(f"search-budget-fraction-{value}",
             ("search", "--model", "resnet18", "--no-cache",
              "--budget-fraction", value), 2,
             (rf"^error: budget_fraction must be finite, got {value}$",))
      for value in ("inf", "nan")),
    Reject("bench-run-zero-repeats",
           ("bench", "run", "--no-write", "--repeats", "0"), 2,
           (r"^error: repeats must be >= 1$",)),
]


@pytest.mark.parametrize("row", REJECTS, ids=lambda row: row.id)
def test_reject(row: Reject, tmp_path_factory):
    cwd = tmp_path_factory.mktemp(f"reject-{row.id}", numbered=False)
    for name, content in row.files.items():
        (cwd / name).write_bytes(content)
    result = saved(subprocess.run(
        [sys.executable, "-m", "repro", *row.argv], cwd=cwd, env=ENV,
        capture_output=True, text=True, timeout=row.timeout), cwd, "run")
    assert result.returncode == row.status, describe(result)
    for stream, patterns in ((result.stderr, row.stderr),
                             (result.stdout, row.stdout)):
        for pattern in patterns:
            assert re.search(pattern, stream, re.MULTILINE), (
                f"no line matches {pattern!r}\n{describe(result)}")
    assert "Traceback" not in result.stdout + result.stderr, describe(result)
    for name, content in row.files.items():
        assert (cwd / name).read_bytes() == content, (
            f"{name} was rewritten\n{describe(result)}")
