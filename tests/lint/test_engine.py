"""Engine semantics: baseline lifecycle, CLI exit-code contract,
fingerprint stability, reporters."""

import argparse
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint.baseline import Baseline
from repro.lint.config import LintConfig
from repro.lint.cli import add_lint_parser, run_lint_cli
from repro.lint.engine import LintError, run_lint
from repro.lint.report import render

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = """
    import numpy as np
    def jitter(n):
        return np.random.rand(n)
"""


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def make_config(root, **kw):
    kw.setdefault("select", ("D",))
    kw.setdefault("baseline_path", None)
    return LintConfig(root=root, paths=("src",), **kw)


def parse_cli(*argv):
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    add_lint_parser(sub)
    return parser.parse_args(["lint", *argv])


# ---------------------------------------------------------------------
# baseline lifecycle
# ---------------------------------------------------------------------

def test_baselined_finding_does_not_fail_the_run(tmp_path):
    write_tree(tmp_path, {"src/pkg/mod.py": VIOLATION})
    first = run_lint(make_config(tmp_path))
    assert first.exit_code == 1
    Baseline.from_findings(first.findings).write(
        tmp_path / "lint-baseline.json")

    second = run_lint(make_config(tmp_path,
                                  baseline_path="lint-baseline.json"))
    assert second.exit_code == 0
    assert second.findings == []
    assert [f.rule for f in second.baselined] == ["D101"]


def test_fingerprint_survives_line_shift(tmp_path):
    write_tree(tmp_path, {"src/pkg/mod.py": VIOLATION})
    before = run_lint(make_config(tmp_path))
    shifted = "# a new header comment\n\n" + textwrap.dedent(VIOLATION)
    (tmp_path / "src/pkg/mod.py").write_text(shifted)
    after = run_lint(make_config(tmp_path))
    assert before.findings[0].line != after.findings[0].line
    assert before.findings[0].fingerprint == after.findings[0].fingerprint


def test_duplicate_violations_get_distinct_stable_fingerprints(tmp_path):
    write_tree(tmp_path, {"src/pkg/mod.py": """
        import numpy as np
        def jitter(n):
            a = np.random.rand(n)
            b = np.random.rand(n)
            return a, b
    """})
    result = run_lint(make_config(tmp_path))
    fp = [f.fingerprint for f in result.findings]
    assert len(fp) == 2 and fp[0] != fp[1]
    again = run_lint(make_config(tmp_path))
    assert [f.fingerprint for f in again.findings] == fp


def test_baseline_version_mismatch_is_a_config_error(tmp_path):
    write_tree(tmp_path, {"src/pkg/mod.py": "x = 1\n"})
    (tmp_path / "lint-baseline.json").write_text('{"version": 99}')
    with pytest.raises(LintError):
        run_lint(make_config(tmp_path, baseline_path="lint-baseline.json"))


def test_update_baseline_records_and_prunes(tmp_path, capsys):
    write_tree(tmp_path, {"src/pkg/mod.py": VIOLATION})
    args = parse_cli("--root", str(tmp_path), "--select", "D",
                     "--update-baseline")
    assert run_lint_cli(args) == 0
    baseline = Baseline.load(tmp_path / "lint-baseline.json")
    assert len(baseline) == 1

    # Fix the violation; updating again prunes the stale entry.
    (tmp_path / "src/pkg/mod.py").write_text(
        "import numpy as np\n\ndef jitter(rng, n):\n"
        "    return rng.random(n)\n")
    assert run_lint_cli(args) == 0
    assert len(Baseline.load(tmp_path / "lint-baseline.json")) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------
# CLI exit-code contract: 0 clean, 1 findings, 2 config error
# ---------------------------------------------------------------------

def test_cli_exit_zero_when_clean(tmp_path, capsys):
    write_tree(tmp_path, {"src/pkg/mod.py": "x = 1\n"})
    args = parse_cli("--root", str(tmp_path), "--select", "D")
    assert run_lint_cli(args) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_exit_one_on_findings(tmp_path, capsys):
    write_tree(tmp_path, {"src/pkg/mod.py": VIOLATION})
    args = parse_cli("--root", str(tmp_path), "--select", "D")
    assert run_lint_cli(args) == 1
    assert "D101" in capsys.readouterr().out


def test_cli_exit_two_on_missing_path(tmp_path, capsys):
    args = parse_cli("--root", str(tmp_path), "no-such-dir")
    assert run_lint_cli(args) == 2
    assert "error" in capsys.readouterr().err


def test_cli_exit_two_on_syntax_error(tmp_path, capsys):
    write_tree(tmp_path, {"src/pkg/mod.py": "def broken(:\n"})
    args = parse_cli("--root", str(tmp_path))
    assert run_lint_cli(args) == 2
    capsys.readouterr()


def test_cli_list_rules(tmp_path, capsys):
    assert run_lint_cli(parse_cli("--list-rules")) == 0
    out = capsys.readouterr().out
    for rule_id in ("D101", "M201", "H301", "C402"):
        assert rule_id in out


# ---------------------------------------------------------------------
# reporters
# ---------------------------------------------------------------------

def _one_finding_result(tmp_path):
    write_tree(tmp_path, {"src/pkg/mod.py": VIOLATION})
    return run_lint(make_config(tmp_path))


def test_jsonl_reporter_emits_findings_and_summary(tmp_path):
    import io
    stream = io.StringIO()
    render(_one_finding_result(tmp_path), "jsonl", stream)
    lines = [json.loads(l) for l in stream.getvalue().splitlines()]
    assert lines[0]["rule"] == "D101"
    assert lines[-1] == {"summary": True, "findings": 1, "baselined": 0,
                         "suppressed": 0, "files_checked": 1}


def test_github_reporter_escapes_and_anchors(tmp_path):
    import io
    stream = io.StringIO()
    render(_one_finding_result(tmp_path), "github", stream)
    out = stream.getvalue()
    assert out.startswith("::error file=src/pkg/mod.py,line=4,")
    assert "title=reprolint D101" in out


# ---------------------------------------------------------------------
# self-application: the gate holds over this repository
# ---------------------------------------------------------------------

def test_repo_src_is_lint_clean():
    result = run_lint(LintConfig(root=REPO_ROOT))
    locations = [f"{f.location()} {f.rule} {f.message}"
                 for f in result.findings]
    assert locations == []
    assert result.files_checked > 100


@pytest.mark.parametrize("family,source,relpath", [
    ("D", VIOLATION, "src/pkg/serve/mod.py"),
    ("M", """
        def publish(registry):
            registry.counter("not.a.namespace").inc()
     """, "src/pkg/serve/mod.py"),
    ("H", """
        import numpy as np
        # reprolint: hot-loop
        def dispatch(events):
            for event in events:
                buf = np.zeros(4)
     """, "src/pkg/serve/mod.py"),
    ("C", """
        from repro.bench.registry import Workload, benchmark
        @benchmark("s.lazy", suite="s")
        def bench_lazy(fast):
            return Workload(fn=lambda: None)
     """, "benchmarks_pkg/src/bench_mod.py"),
])
def test_each_rule_family_fails_the_gate(tmp_path, family, source, relpath):
    write_tree(tmp_path, {relpath: source})
    config = LintConfig(root=tmp_path, paths=(str(Path(relpath).parts[0]),),
                        select=(family,), baseline_path=None)
    result = run_lint(config)
    assert result.exit_code == 1
    assert all(f.rule.startswith(family) for f in result.findings)
