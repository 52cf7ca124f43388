"""Engine behaviour: symbol table resolution, suppression windows,
REP012 staleness, rule selection, baselines, and the gate that keeps
the shipped source tree clean."""

import ast
from pathlib import Path

import pytest

from repro.analysis.lint import (RULES, apply_baseline, lint_paths,
                                 lint_source, load_baseline,
                                 select_codes, write_baseline)
from repro.analysis.lint.model import ModuleModel
from repro.analysis.lint.symbols import SymbolTable

CORE = "src/repro/core/x.py"


def codes(violations):
    return {violation.code for violation in violations}


# ---------------------------------------------------------------------
# Symbol table
# ---------------------------------------------------------------------

def resolve_last_call(source):
    model = ModuleModel(source, CORE)
    calls = list(model.calls())
    assert calls, "fixture needs a call"
    return model.resolve_call(calls[-1])


def test_symbols_import_forms():
    assert resolve_last_call(
        "import numpy.random as npr\nnpr.uniform()\n"
    ) == "numpy.random.uniform"
    assert resolve_last_call(
        "from random import shuffle as sh\nsh([])\n"
    ) == "random.shuffle"
    assert resolve_last_call(
        "import numpy.random\nnumpy.asarray([1])\n"
    ) == "numpy.asarray"


def test_symbols_assignment_alias_chain():
    source = ("import numpy as np\n"
              "a = np.random\n"
              "b = a\n"
              "b.uniform()\n")
    assert resolve_last_call(source) == "numpy.random.uniform"


def test_symbols_conflicting_rebind_degrades_to_local():
    source = ("import numpy as np\n"
              "gen = np.random\n"
              "gen = something_else\n"
              "gen.uniform()\n")
    assert resolve_last_call(source) is None


def test_symbols_class_scope_invisible_to_methods():
    # ``random`` bound in the class body is not visible inside the
    # method (Python scoping), so the call resolves to the module.
    source = ("import random\n"
              "class C:\n"
              "    random = object()\n"
              "    def pick(self, xs):\n"
              "        return random.choice(xs)\n")
    assert resolve_last_call(source) == "random.choice"


def test_symbols_unbound_name_falls_back_to_itself():
    tree = ast.parse("value = PERF.snapshot()\n")
    table = SymbolTable(tree)
    assert table.resolve_name("PERF", table.module_scope) == "PERF"


# ---------------------------------------------------------------------
# Suppression mechanics + REP012
# ---------------------------------------------------------------------

def test_marker_suppresses_same_line_and_line_below_only():
    same = "bad = x == 4.0  # lint: exact-float (why)\n"
    assert lint_source(same, path=CORE) == []
    above = "# lint: exact-float (why)\nbad = x == 4.0\n"
    assert lint_source(above, path=CORE) == []
    too_far = "# lint: exact-float (why)\nother = 1\nbad = x == 4.0\n"
    found = lint_source(too_far, path=CORE)
    assert "REP002" in codes(found) and "REP012" in codes(found)


def test_marker_in_docstring_is_inert():
    source = ('def f():\n'
              '    """Mentions # lint: exact-float in prose."""\n'
              '    return 1\n')
    assert lint_source(source, path=CORE) == []


def test_rep012_unknown_marker():
    found = lint_source("x = 1  # lint: no-such-marker\n", path=CORE)
    assert codes(found) == {"REP012"}
    assert "unknown" in found[0].message


def test_rep012_stale_marker():
    found = lint_source("x = 1  # lint: exact-float (stale)\n", path=CORE)
    assert codes(found) == {"REP012"}
    assert "stale" in found[0].message


def test_rep012_not_raised_when_rule_not_selected():
    source = "x = 1  # lint: exact-float (stale)\n"
    only_rep1 = lint_source(source, path=CORE,
                            codes={"REP001", "REP012"})
    assert only_rep1 == []


def test_wrong_marker_does_not_suppress_other_rule():
    source = "bad = x == 4.0  # lint: rng-ok (wrong marker)\n"
    found = lint_source(source, path=CORE)
    assert "REP002" in codes(found) and "REP012" in codes(found)


# ---------------------------------------------------------------------
# Rule selection
# ---------------------------------------------------------------------

def test_select_and_ignore():
    assert select_codes(["REP001"], None) == {"REP001"}
    everything = select_codes(None, None)
    assert everything == set(RULES)
    assert "REP003" not in select_codes(None, ["REP003"])
    with pytest.raises(ValueError, match="REP999"):
        select_codes(["REP999"], None)
    with pytest.raises(ValueError, match="REP999"):
        select_codes(None, ["REP999"])


def test_registry_is_complete():
    # REP005 (scalar-fit-in-loop) is retired; codes are never reused.
    assert sorted(RULES) == [f"REP{i:03d}" for i in range(1, 14)
                             if i != 5]
    for code, registered in RULES.items():
        assert registered.summary and registered.scope
        assert registered.docs_url.endswith(
            f"#{code.lower()}-{registered.name}")
        if code == "REP012":
            assert registered.marker is None  # hygiene is not waivable
        else:
            assert registered.marker


# ---------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------

def test_baseline_roundtrip_suppresses_known_findings(tmp_path):
    src = tmp_path / "src" / "repro" / "core" / "x.py"
    src.parent.mkdir(parents=True)
    src.write_text("bad = x == 4.0\n")
    violations, errors = lint_paths([src])
    assert errors == [] and len(violations) == 1

    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, violations)
    known = load_baseline(baseline_file)
    assert apply_baseline(violations, known) == []

    # Line drift does not resurface a baselined finding...
    src.write_text("\n\nbad = x == 4.0\n")
    drifted, _ = lint_paths([src])
    assert apply_baseline(drifted, known) == []
    # ...but a second instance of the same finding does.
    src.write_text("bad = x == 4.0\nworse = y == 4.0\n")
    doubled, _ = lint_paths([src])
    assert len(apply_baseline(doubled, known)) == 1


def test_baseline_rejects_malformed_files(tmp_path):
    from repro.analysis.lint.baseline import BaselineError
    bad = tmp_path / "baseline.json"
    bad.write_text("[]")
    with pytest.raises(BaselineError):
        load_baseline(bad)
    with pytest.raises(BaselineError):
        load_baseline(tmp_path / "missing.json")


# ---------------------------------------------------------------------
# The gate: shipped source and tests stay clean
# ---------------------------------------------------------------------

def test_source_tree_is_clean():
    src = Path(__file__).resolve().parents[2] / "src"
    assert src.is_dir()
    violations, errors = lint_paths([src])
    assert errors == []
    assert violations == [], "\n".join(str(v) for v in violations)


def test_test_tree_is_clean_for_rep001():
    tests = Path(__file__).resolve().parents[1]
    violations, errors = lint_paths([tests], codes={"REP001"})
    assert errors == []
    assert violations == [], "\n".join(str(v) for v in violations)
