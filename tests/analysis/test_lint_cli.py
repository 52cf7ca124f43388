"""CLI surface: exit codes, --strict, --baseline, output formats, and
the ``repro lint`` subcommand wired through the main parser."""

import json

import pytest

from repro.analysis.lint import main as lint_main
from repro.cli import main as repro_main

ERROR_SOURCE = "bad = x == 4.0\n"
#: REP013 is warning severity; the core/ path makes it fire.
WARNING_SOURCE = ("from concurrent.futures import ProcessPoolExecutor\n"
                  "def fan_out(work, items):\n"
                  "    with ProcessPoolExecutor() as pool:\n"
                  "        return list(pool.map(work, items))\n")


@pytest.fixture
def tree(tmp_path):
    core = tmp_path / "src" / "repro" / "core"
    core.mkdir(parents=True)
    (core / "bad.py").write_text(ERROR_SOURCE)
    (core / "fanout.py").write_text(WARNING_SOURCE)
    (core / "ok.py").write_text("def f(x=None):\n    return x\n")
    return core


def test_exit_codes(tree, capsys):
    assert lint_main([str(tree / "ok.py")]) == 0
    assert "clean" in capsys.readouterr().out

    assert lint_main([str(tree / "bad.py")]) == 1
    out = capsys.readouterr().out
    assert "REP002" in out and "1 error(s)" in out

    # Warnings gate only under --strict.
    assert lint_main([str(tree / "fanout.py")]) == 0
    assert lint_main([str(tree / "fanout.py"), "--strict"]) == 1
    capsys.readouterr()


def test_usage_errors_exit_2(tree):
    with pytest.raises(SystemExit) as excinfo:
        lint_main([])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        lint_main([str(tree), "--select", "REP999"])
    assert excinfo.value.code == 2


def test_unparsable_file_exits_1(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def broken(:\n")
    assert lint_main([str(broken)]) == 1
    assert "error:" in capsys.readouterr().out


def test_select_limits_rules(tree, capsys):
    assert lint_main([str(tree), "--select", "REP001", "--strict"]) == 0
    assert lint_main([str(tree), "--ignore", "REP002"]) == 0
    capsys.readouterr()


def test_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("REP001", "REP007", "REP012"):
        assert code in out
    assert "# lint: rng-ok" in out


def test_sarif_output_file(tree, tmp_path, capsys):
    sarif_path = tmp_path / "lint.sarif"
    rc = lint_main([str(tree), "--format", "sarif",
                    "--output", str(sarif_path)])
    assert rc == 1
    # The human verdict still lands on stdout for the CI log.
    assert "error(s)" in capsys.readouterr().out
    document = json.loads(sarif_path.read_text())
    assert document["version"] == "2.1.0"
    assert any(result["ruleId"] == "REP002"
               for result in document["runs"][0]["results"])


def test_baseline_workflow(tree, tmp_path, capsys):
    baseline = tmp_path / "lint-baseline.json"
    assert lint_main([str(tree), "--write-baseline", str(baseline)]) == 0
    assert baseline.exists()
    # With the debt frozen, the same tree gates clean even on --strict.
    assert lint_main([str(tree), "--baseline", str(baseline),
                      "--strict"]) == 0
    # A new finding is not masked by the baseline.
    (tree / "new.py").write_text("worse = y == 2.5\n")
    assert lint_main([str(tree), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    assert "new.py" in out and "bad.py" not in out


def test_repro_lint_subcommand(tree, capsys):
    assert repro_main(["lint", str(tree / "ok.py")]) == 0
    assert "clean" in capsys.readouterr().out
    assert repro_main(["lint", str(tree / "bad.py"), "--strict"]) == 1
    capsys.readouterr()


def test_repro_analyze_lint_passthrough_still_works(tree, capsys):
    rc = repro_main(["analyze", "--skip-strategies",
                     "--lint", str(tree / "ok.py")])
    assert rc == 0
    assert "clean" in capsys.readouterr().out
