"""Property test: the engine never crashes, never lies about
positions, and is deterministic on arbitrary syntactically valid
modules.

Free-form text almost never parses, so the strategy assembles modules
from a grammar of statement templates instantiated with drawn
identifiers — heavy on the constructs the rules care about (imports,
aliases, comprehensions, async functions, class bodies, markers) so
shrunk counterexamples stay readable.
"""

import ast
import keyword

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.lint import LintViolation, lint_source

identifiers = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True) \
    .filter(lambda name: not keyword.iskeyword(name))

PATHS = ("src/repro/core/x.py", "src/repro/flow/x.py",
         "src/repro/sim/x.py", "src/repro/core/dp.py",
         "src/repro/core/context.py", "tests/core/test_x.py", "x.py")

TEMPLATES = (
    "import {a}",
    "import {a}.{b} as {c}",
    "from {a} import {b} as {c}",
    "import random",
    "import numpy.random as {a}",
    "from random import shuffle",
    "{a} = {b}",
    "{a} = {b}.{c}",
    "{a} = {{}}",
    "{a} = set()",
    "{a}: dict = {{}}",
    "{a} = {a}",
    "{a} = {b}(4.0)",
    "{a} = {b} == 4.0",
    "{a} = next({b})",
    "def {a}({b}=[], *, {c}=None):\n    return {b}",
    "def {a}({b}):\n    for {c} in {b}:\n        {b}.append({c})",
    "def {a}({b}):\n    return [{c} for {c} in set({b})]",
    "def {a}({b}):\n    {b}[0] = 1\n    global {c}\n    {c} = 2",
    "async def {a}({b}):\n    time.sleep({b})",
    "async def {a}({b}):\n    await {b}()",
    "class {a}:\n    {b} = {{}}\n    def {c}(self):\n        self.{b}.clear()",
    "class {a}:\n    def __init__(self):\n        self._fit_cache = dict()",
    "def {a}(context):\n    return context._gap_tables.get({b})",
    "def {a}(rows):\n    for row in rows:\n        row.calendar.earliest_fit(5)",
    "def {a}():\n    PERF.incr('{b}_hits')",
    "{a} = 1  # lint: {b}",
    "{a} = 2  # lint: exact-float",
    "for {a} in {{'x', 'y'}}:\n    print({a})",
    "try:\n    {a} = 1\nexcept Exception as {b}:\n    {a} = {b}",
    "with open('{a}') as {b}:\n    {a} = {b}",
)

statements = st.tuples(
    st.sampled_from(TEMPLATES), identifiers, identifiers, identifiers,
).map(lambda drawn: drawn[0].format(a=drawn[1], b=drawn[2], c=drawn[3]))

modules = st.lists(statements, min_size=0, max_size=12) \
    .map(lambda body: "\n".join(body) + "\n")


@settings(max_examples=200, deadline=None)
@given(source=modules, path=st.sampled_from(PATHS))
def test_engine_never_crashes_and_is_deterministic(source, path):
    try:
        compile(source, path, "exec", flags=ast.PyCF_ONLY_AST)
    except SyntaxError:
        return  # template collision produced invalid code; not our bug
    first = lint_source(source, path=path)
    second = lint_source(source, path=path)
    assert first == second
    line_count = source.count("\n") + 1
    for violation in first:
        assert isinstance(violation, LintViolation)
        assert violation.path == path
        assert 0 <= violation.line <= line_count
        assert violation.col >= 0
        assert violation.code in {f"REP{i:03d}" for i in range(1, 13)}
        assert violation.message
