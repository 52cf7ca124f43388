"""The rule set (pass 3): REP001–REP004, REP006–REP011, REP013 checkers.

Each checker receives one :class:`~repro.analysis.lint.model.
ModuleModel` and yields raw findings; suppression markers, baselines,
and rule selection are applied by the engine.  REP012
(stale/unknown suppression markers) is implemented in the engine
itself because it needs the *other* rules' raw findings.

Rule semantics are documented in the catalog table in ``DESIGN.md``
(and summarized by ``repro lint --list-rules``); the docstrings here
note only the implementation subtleties.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set

from .model import ModuleModel
from .registry import LintViolation, Severity, register_meta_rule, rule
from .symbols import Scope

__all__ = ["load_rules"]

# ---------------------------------------------------------------------------
# Shared constants
# ---------------------------------------------------------------------------

#: Dotted call prefixes that consume global random state (REP001).
_RANDOM_PREFIXES = ("random.", "numpy.random.")

#: Constructors that are *explicitly seeded* when called with at least
#: one argument (``default_rng(seed)``); zero-argument calls draw their
#: seed from OS entropy and stay violations.
_SEEDED_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng", "numpy.random.SeedSequence",
    "numpy.random.Generator", "numpy.random.PCG64",
    "numpy.random.Philox", "numpy.random.SFC64", "numpy.random.MT19937",
    "numpy.random.RandomState",
})

#: Dotted calls that read the host wall clock (REP003).
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.monotonic", "time.perf_counter",
    "time.process_time", "time.time_ns", "time.monotonic_ns",
    "time.perf_counter_ns", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: Packages in which REP003 applies — the DES clock owns time in the
#: kernel and the flow layer too, not just the simulator package.
_WALL_CLOCK_SCOPE = ("sim", "core", "flow", "perf")

#: Constructors whose call produces a fresh mutable object (REP004).
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})

#: Container factories REP006/REP007 treat as mutable shared storage.
_CONTAINER_FACTORIES = frozenset({
    "dict", "set", "list", "collections.OrderedDict",
    "collections.defaultdict", "collections.deque",
    "collections.Counter", "weakref.WeakKeyDictionary",
    "weakref.WeakValueDictionary",
})

#: Mutable-cursor factories: not containers, but module-level instances
#: are shared mutable state all the same (REP007).
_CURSOR_FACTORIES = frozenset({"itertools.count"})

#: Method calls that mutate a container in place (REP007).
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
    "appendleft", "extendleft", "popleft",
})

#: Lowercase substrings that make a name "cache-named" (REP006).
_CACHE_NAME_HINTS = ("cache", "memo", "_tables", "_stacks", "matrices")

#: SchedulingContext caches whose keys embed a calendar content version
#: or a domain epoch slice; reads must visibly involve one (REP008).
_VERSIONED_CACHES = frozenset({"plans", "_gap_tables"})

#: Identifier substrings that count as a version/epoch guard (REP008).
_GUARD_TOKENS = ("version", "epoch")

#: Caches of the plan cache kind: keys lead with the job's structural
#: hash and end in an epoch slice, so reads must visibly involve BOTH a
#: structure token and a version/epoch token (REP008).  A read guarded
#: on epochs alone can still alias plans of structurally different
#: jobs; a read guarded on structure alone serves plans across calendar
#: drift.
_STRUCT_KEYED_CACHES = frozenset({"plans"})

#: Identifier substrings that count as a structure guard (REP008).
_STRUCT_TOKENS = ("struct",)

#: Method names that read an entry out of a cache (REP008); plain
#: mapping caches expose ``get``, the plan cache ``lookup``.
_CACHE_READ_METHODS = frozenset({"get", "lookup"})

#: Order-free consumers: passing a set to these is not an ordered
#: iteration (REP009).
_ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set",
    "frozenset",
})

#: Iteration-forcing builtins that preserve (arbitrary) order (REP009).
_ORDERING_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})

#: Set-producing methods (receiver must itself be a set) (REP009).
_SET_METHODS = frozenset({"union", "intersection", "difference",
                          "symmetric_difference", "copy"})

#: Blocking calls that stall an event loop inside ``async def``
#: (REP010).
_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "os.popen", "os.wait", "os.waitpid",
    "socket.create_connection", "urllib.request.urlopen",
    "open", "input",
})
_BLOCKING_PREFIXES = ("subprocess.", "requests.", "shutil.")

#: Counter-name suffixes reserved for context-owned caches (REP011).
_PAIRED_SUFFIXES = ("_hits", "_misses", "_evictions")

#: Attribute names holding per-shard collections (REP007/REP008): a
#: subscript into one of these selects ONE shard's private state
#: (its planner, context, replica calendars).  Mutating or cache-reading
#: through such a subscript outside the merge/arbitration seam is how
#: shard isolation silently breaks.
_SHARD_COLLECTIONS = frozenset({
    "shards", "planners", "shard_planners", "replicas",
    "shard_contexts",
})

#: Mutating method names for the shard-crossing check (REP007): the
#: container mutators plus the domain mutators of calendars, plan
#: caches, and perf registries.
_SHARD_MUTATOR_METHODS = _MUTATOR_METHODS | frozenset({
    "reserve", "release", "release_tag", "release_prefix",
    "store", "incr", "adopt", "merge",
})

#: Function-name substrings that mark the sanctioned seam (REP007/
#: REP008): commit/merge/arbitration/sync functions own cross-shard
#: state by design.
_SHARD_SEAM_TOKENS = ("commit", "merge", "arbitrat", "sync", "seam")


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

def _finding(model: ModuleModel, node: ast.AST, code: str, name: str,
             severity: Severity, message: str) -> LintViolation:
    return LintViolation(
        path=model.display_path, line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0), code=code, message=message,
        severity=severity, rule_name=name)


def _is_cache_name(name: str) -> bool:
    lowered = name.lower()
    return any(hint in lowered for hint in _CACHE_NAME_HINTS)


def _is_container_value(model: ModuleModel, node: ast.expr,
                        scope: Scope) -> bool:
    """True when the expression builds a mutable container."""
    if isinstance(node, (ast.Dict, ast.Set, ast.List, ast.DictComp,
                         ast.SetComp, ast.ListComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = model.symbols.resolve(node.func, scope)
        if dotted is None:
            return False
        return (dotted in _CONTAINER_FACTORIES
                or dotted.split(".")[-1] in _CONTAINER_FACTORIES)
    return False


def _is_cursor_value(model: ModuleModel, node: ast.expr,
                     scope: Scope) -> bool:
    if isinstance(node, ast.Call):
        dotted = model.symbols.resolve(node.func, scope)
        return dotted in _CURSOR_FACTORIES
    return False


def _module_level_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Module-body statements, looking through top-level If/Try."""
    stack: list = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        if isinstance(stmt, ast.If):
            stack = list(stmt.body) + list(stmt.orelse) + stack
        elif isinstance(stmt, ast.Try):
            bodies = (list(stmt.body) + list(stmt.orelse)
                      + list(stmt.finalbody)
                      + [s for handler in stmt.handlers
                         for s in handler.body])
            stack = bodies + stack
        else:
            yield stmt


def load_rules() -> None:
    """Import-time hook: registration happens via decorators below."""


# ---------------------------------------------------------------------------
# REP001 unseeded-random
# ---------------------------------------------------------------------------

@rule("REP001", "unseeded-random", Severity.ERROR,
      "call into global random.*/numpy.random.* state outside "
      "repro.sim.rng (explicitly seeded constructors are allowed)",
      marker="rng-ok", scope="every module except repro/sim/rng.py")
def check_unseeded_random(model: ModuleModel) -> Iterator[LintViolation]:
    if model.is_module("sim", "rng.py"):
        return
    for node in model.calls():
        dotted = model.resolve_call(node)
        if dotted is None:
            continue
        if not any(dotted == prefix[:-1] or dotted.startswith(prefix)
                   for prefix in _RANDOM_PREFIXES) \
                and dotted != "random.Random":
            continue
        if dotted in _SEEDED_CONSTRUCTORS and (node.args or node.keywords):
            continue  # explicitly seeded: reproducible by construction
        yield _finding(
            model, node, "REP001", "unseeded-random", Severity.ERROR,
            f"unseeded global randomness `{dotted}`; draw from a named "
            f"repro.sim.rng.RandomStreams stream instead")


# ---------------------------------------------------------------------------
# REP002 float-equality
# ---------------------------------------------------------------------------

@rule("REP002", "float-equality", Severity.ERROR,
      "== / != against a float literal breeds off-by-one reservations",
      marker="exact-float", scope="every module")
def check_float_equality(model: ModuleModel) -> Iterator[LintViolation]:
    for node in ast.walk(model.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, (left, right) in zip(node.ops,
                                     zip(operands, operands[1:])):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            for side in (left, right):
                if isinstance(side, ast.Constant) and \
                        isinstance(side.value, float):
                    yield _finding(
                        model, node, "REP002", "float-equality",
                        Severity.ERROR,
                        f"exact float comparison against {side.value!r}; "
                        f"use repro.core.units.EPSILON or math.isclose")
                    break


# ---------------------------------------------------------------------------
# REP003 wall-clock
# ---------------------------------------------------------------------------

@rule("REP003", "wall-clock", Severity.ERROR,
      "host-clock read where the DES clock owns time "
      "(sim, core, flow, perf)",
      marker="perf-timer", scope="sim/, core/, flow/, perf/ packages")
def check_wall_clock(model: ModuleModel) -> Iterator[LintViolation]:
    if not model.in_packages(_WALL_CLOCK_SCOPE):
        return
    for node in model.calls():
        dotted = model.resolve_call(node)
        if dotted in _WALL_CLOCK_CALLS:
            yield _finding(
                model, node, "REP003", "wall-clock", Severity.ERROR,
                f"wall-clock read `{dotted}`; simulated components use "
                f"the discrete-event clock (Environment.now) — real "
                f"measurement code carries `# lint: perf-timer`")


# ---------------------------------------------------------------------------
# REP004 mutable-default
# ---------------------------------------------------------------------------

@rule("REP004", "mutable-default", Severity.ERROR,
      "mutable default argument aliases state across calls",
      marker="shared-default", scope="every module")
def check_mutable_default(model: ModuleModel) -> Iterator[LintViolation]:
    for node in ast.walk(model.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        scope = model.scope_of(node)
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if not mutable and isinstance(default, ast.Call):
                dotted = model.symbols.resolve(default.func, scope)
                mutable = dotted in _MUTABLE_FACTORIES
            if mutable:
                yield _finding(
                    model, node, "REP004", "mutable-default",
                    Severity.ERROR,
                    "mutable default argument; default to None (or a "
                    "dataclasses.field factory) and build inside")


# ---------------------------------------------------------------------------
# REP006 stray-cache
# ---------------------------------------------------------------------------

def _in_cache_scope(model: ModuleModel) -> bool:
    return (model.in_packages(("core", "flow"), require_repro=True)
            and model.path.parts[-1] != "context.py")


@rule("REP006", "stray-cache", Severity.WARNING,
      "cache state outside SchedulingContext (module/class container, "
      "self attribute, threaded parameter, __setattr__ smuggling)",
      marker="context-cache",
      scope="repro/core/ and repro/flow/ except context.py")
def check_stray_cache(model: ModuleModel) -> Iterator[LintViolation]:
    if not _in_cache_scope(model):
        return

    def stray(node: ast.AST, what: str) -> LintViolation:
        return _finding(
            model, node, "REP006", "stray-cache", Severity.WARNING,
            f"{what}; kernel caches belong on "
            "repro.core.context.SchedulingContext (or mark a sanctioned "
            "exception with `# lint: context-cache`)")

    for node in ast.walk(model.tree):
        scope = model.scope_of(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            arguments = node.args
            for argument in (list(arguments.posonlyargs)
                             + list(arguments.args)
                             + list(arguments.kwonlyargs)):
                if _is_cache_name(argument.arg):
                    yield stray(
                        argument,
                        f"cache-named parameter `{argument.arg}` threads "
                        f"cache state through a signature")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if value is None or not _is_container_value(model, value,
                                                        scope):
                continue
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            top_level = model.enclosing_function(node) is None
            for target in targets:
                if isinstance(target, ast.Name) and top_level \
                        and _is_cache_name(target.id):
                    yield stray(
                        node,
                        f"module/class-level cache container "
                        f"`{target.id}`")
                elif isinstance(target, ast.Attribute) \
                        and isinstance(target.value, ast.Name) \
                        and target.value.id == "self" \
                        and _is_cache_name(target.attr):
                    yield stray(
                        node,
                        f"cache container assigned to `self.{target.attr}`")
        elif isinstance(node, ast.Call):
            dotted = model.resolve_call(node)
            if dotted != "object.__setattr__" or len(node.args) != 3:
                continue
            attr = node.args[1]
            if isinstance(attr, ast.Constant) \
                    and isinstance(attr.value, str) \
                    and _is_cache_name(attr.value) \
                    and _is_container_value(model, node.args[2], scope):
                yield stray(
                    node,
                    f"object.__setattr__ smuggles cache container "
                    f"`{attr.value}` onto a frozen object")


# ---------------------------------------------------------------------------
# REP007 shared-mutable-state
# ---------------------------------------------------------------------------

def _shard_subscript_base(expr: ast.expr) -> Optional[str]:
    """Shard-collection name a receiver chain subscripts, if any.

    ``self.planners[i].context.plans`` → ``"planners"``; chains that
    never index a :data:`_SHARD_COLLECTIONS` attribute return None.
    """
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        if isinstance(expr, ast.Subscript):
            base = expr.value
            if isinstance(base, ast.Attribute) and \
                    base.attr in _SHARD_COLLECTIONS:
                return base.attr
            if isinstance(base, ast.Name) and \
                    base.id in _SHARD_COLLECTIONS:
                return base.id
            expr = base
        else:
            expr = expr.value
    return None


def _in_shard_seam(model: ModuleModel, node: ast.AST) -> bool:
    """True inside a function whose name marks the sanctioned seam."""
    function = model.enclosing_function(node)
    if function is None:
        return False
    # Lambdas are anonymous: never a seam by name.
    name = getattr(function, "name", "").lower()
    return any(token in name for token in _SHARD_SEAM_TOKENS)


@rule("REP007", "shared-mutable-state", Severity.ERROR,
      "module/class-level mutable state mutated from function scope "
      "breaks process-pool shareability; shard-owned state mutated "
      "outside the merge/arbitration seam breaks shard isolation",
      marker="shared-state", scope="repro/core/ and repro/flow/ packages")
def check_shared_mutable_state(model: ModuleModel
                               ) -> Iterator[LintViolation]:
    if not model.in_packages(("core", "flow"), require_repro=True):
        return
    module_scope = model.symbols.module_scope

    # Shard-isolation pass: state selected through a per-shard
    # collection subscript (``planners[i].context...``, ``replicas[s]
    # ...``) is one shard's private world; mutating it from a function
    # outside the commit/merge/arbitration/sync seam means two shards
    # can observe each other mid-window — the exact coupling the
    # sharded engine's bit-identity depends on never happening.
    def crossing(node: ast.AST, collection: str, how: str
                 ) -> LintViolation:
        return _finding(
            model, node, "REP007", "shared-mutable-state", Severity.ERROR,
            f"{how} shard-owned state through `{collection}[...]` "
            f"outside the merge/arbitration seam; shards must stay "
            f"isolated between merges — move this into a function "
            f"named for the seam ({', '.join(_SHARD_SEAM_TOKENS)}) or "
            f"mark `# lint: shared-state` with a justification")

    for node in ast.walk(model.tree):
        if model.enclosing_function(node) is None \
                or _in_shard_seam(model, node):
            continue
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _SHARD_MUTATOR_METHODS:
            collection = _shard_subscript_base(node.func.value)
            if collection is not None:
                yield crossing(node, collection,
                               f"mutating call `.{node.func.attr}(...)` on")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            shard_targets = (node.targets if not isinstance(
                node, ast.AugAssign) else [node.target])
            for target in shard_targets:
                if not isinstance(target, (ast.Subscript, ast.Attribute)):
                    continue
                collection = _shard_subscript_base(target)
                if collection is not None:
                    yield crossing(node, collection, "write to")

    # Pass A: module-level mutable declarations (containers + cursors).
    containers: dict = {}
    cursors: dict = {}
    class_attrs: dict = {}
    for stmt in _module_level_statements(model.tree):
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            if value is None:
                continue
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                if _is_container_value(model, value, module_scope):
                    containers[target.id] = stmt.lineno
                elif _is_cursor_value(model, value, module_scope):
                    cursors[target.id] = stmt.lineno
        elif isinstance(stmt, ast.ClassDef):
            attrs: dict = {}
            assigned_on_self: Set[str] = set()
            for body_stmt in stmt.body:
                if isinstance(body_stmt, (ast.Assign, ast.AnnAssign)):
                    value = body_stmt.value
                    if value is None:
                        continue
                    targets = (body_stmt.targets
                               if isinstance(body_stmt, ast.Assign)
                               else [body_stmt.target])
                    for target in targets:
                        if isinstance(target, ast.Name) and \
                                _is_container_value(model, value,
                                                    module_scope):
                            attrs[target.id] = body_stmt.lineno
            # ``self.X = ...`` anywhere in the class shadows the class
            # attribute per instance; mutation through self is then
            # instance state, not shared state.
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    node_targets = (node.targets
                                    if isinstance(node, ast.Assign)
                                    else [node.target])
                    for target in node_targets:
                        if isinstance(target, ast.Attribute) \
                                and isinstance(target.value, ast.Name) \
                                and target.value.id == "self":
                            assigned_on_self.add(target.attr)
            live = {name: line for name, line in attrs.items()
                    if name not in assigned_on_self}
            if live:
                class_attrs[stmt] = live
    if not containers and not cursors and not class_attrs:
        return

    def refers_to_module_global(name_node: ast.Name,
                                registry: dict) -> bool:
        if name_node.id not in registry:
            return False
        scope = model.scope_of(name_node)
        owner = model.symbols.binding_scope(name_node.id, scope)
        return owner is module_scope or owner is None

    def shared(node: ast.AST, name: str, line: int,
               how: str) -> LintViolation:
        return _finding(
            model, node, "REP007", "shared-mutable-state", Severity.ERROR,
            f"{how} `{name}` (declared at line {line}) from function "
            f"scope; module/class state is not shareable across worker "
            f"processes — move it onto SchedulingContext or pass it "
            f"explicitly (or mark `# lint: shared-state` with a "
            f"justification)")

    decl_lines = dict(containers)
    decl_lines.update(cursors)

    for node in ast.walk(model.tree):
        if model.enclosing_function(node) is None:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            # container.mutator(...)
            if isinstance(func, ast.Attribute) \
                    and func.attr in _MUTATOR_METHODS:
                receiver = func.value
                if isinstance(receiver, ast.Name) and \
                        refers_to_module_global(receiver, containers):
                    yield shared(node, receiver.id,
                                 containers[receiver.id],
                                 "in-place mutation of module-level "
                                 "container")
                elif isinstance(receiver, ast.Attribute) \
                        and isinstance(receiver.value, ast.Name) \
                        and receiver.value.id == "self":
                    owner_class = model.enclosing_class(node)
                    live = class_attrs.get(owner_class, {})
                    if receiver.attr in live:
                        yield shared(node, receiver.attr,
                                     live[receiver.attr],
                                     "in-place mutation of class-level "
                                     "container")
            # next(cursor)
            elif isinstance(func, ast.Name) and func.id == "next" \
                    and node.args \
                    and isinstance(node.args[0], ast.Name) \
                    and refers_to_module_global(node.args[0], cursors):
                cursor = node.args[0]
                yield shared(node, cursor.id, cursors[cursor.id],
                             "advance of module-level cursor")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            if isinstance(node, ast.Assign):
                targets: Sequence[ast.expr] = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                targets = node.targets
            for target in targets:
                base: Optional[ast.expr] = None
                if isinstance(target, ast.Subscript):
                    base = target.value
                elif isinstance(target, ast.Name) and \
                        isinstance(node, (ast.Assign, ast.AugAssign)):
                    # Plain rebinding only mutates module state under a
                    # ``global`` declaration.
                    scope = model.scope_of(target)
                    if target.id in scope.globals and \
                            target.id in decl_lines:
                        yield shared(node, target.id,
                                     decl_lines[target.id],
                                     "rebinding of module-level state")
                    continue
                if isinstance(base, ast.Name) and \
                        refers_to_module_global(base, containers):
                    yield shared(node, base.id, containers[base.id],
                                 "subscript write to module-level "
                                 "container")
                elif isinstance(base, ast.Attribute) \
                        and isinstance(base.value, ast.Name) \
                        and base.value.id == "self":
                    owner_class = model.enclosing_class(node)
                    live = class_attrs.get(owner_class, {})
                    if base.attr in live:
                        yield shared(node, base.attr, live[base.attr],
                                     "subscript write to class-level "
                                     "container")


# ---------------------------------------------------------------------------
# REP008 unguarded-cache-read
# ---------------------------------------------------------------------------

@rule("REP008", "unguarded-cache-read", Severity.ERROR,
      "read of a version-keyed context cache in a function that never "
      "touches a calendar version or epoch; cache reads crossing into "
      "another shard's context outside the merge/arbitration seam",
      marker="epoch-keyed", scope="repro/core/ and repro/flow/ packages")
def check_unguarded_cache_read(model: ModuleModel
                               ) -> Iterator[LintViolation]:
    if not model.in_packages(("core", "flow"), require_repro=True):
        return

    def is_versioned_cache(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Attribute) and \
                expr.attr in _VERSIONED_CACHES:
            return expr.attr
        if isinstance(expr, ast.Name) and expr.id in _VERSIONED_CACHES:
            return expr.id
        return None

    guarded_functions: dict = {}

    def guarded(node: ast.AST, tokens: tuple) -> bool:
        function = model.enclosing_function(node)
        root = function if function is not None else model.tree
        key = (root, tokens)
        cached = guarded_functions.get(key)
        if cached is None:
            cached = any(
                guard_token in identifier.lower()
                for identifier in model.identifier_tokens(root)
                for guard_token in tokens)
            guarded_functions[key] = cached
        return cached

    for node in ast.walk(model.tree):
        cache_name: Optional[str] = None
        site: Optional[ast.AST] = None
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in _CACHE_READ_METHODS:
            cache_name = is_versioned_cache(node.func.value)
            site = node
            # Shard-isolation extension: a cache read whose receiver
            # chain subscripts a per-shard collection reaches into one
            # shard's private caches; outside the merge/arbitration
            # seam that lets one shard's planning observe another's
            # session state mid-window.
            crossed = _shard_subscript_base(node.func.value)
            if crossed is not None and not _in_shard_seam(model, node):
                yield _finding(
                    model, node, "REP008", "unguarded-cache-read",
                    Severity.ERROR,
                    f"cross-shard cache read `.{node.func.attr}(...)` "
                    f"through `{crossed}[...]` outside the "
                    f"merge/arbitration seam; a shard may only consult "
                    f"its own context between merges — route this "
                    f"through a seam function "
                    f"({', '.join(_SHARD_SEAM_TOKENS)}) or mark "
                    f"`# lint: epoch-keyed` with a justification")
                continue
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Load):
            cache_name = is_versioned_cache(node.value)
            site = node
        if cache_name is None or site is None:
            continue
        if not guarded(site, _GUARD_TOKENS):
            yield _finding(
                model, site, "REP008", "unguarded-cache-read",
                Severity.ERROR,
                f"read of version-keyed cache `{cache_name}` in a "
                f"function that never references a calendar version or "
                f"epoch — a stale entry would be served silently; key "
                f"the lookup on the content version / epoch slice (or "
                f"mark `# lint: epoch-keyed` with the guard's location)")
            continue
        if cache_name in _STRUCT_KEYED_CACHES and \
                not guarded(site, _STRUCT_TOKENS):
            yield _finding(
                model, site, "REP008", "unguarded-cache-read",
                Severity.ERROR,
                f"read of structure-keyed plan cache `{cache_name}` in a "
                f"function that references an epoch/version but never a "
                f"structural hash — the lookup could alias plans of "
                f"structurally different jobs; key it on the job's "
                f"structural hash as well (or mark "
                f"`# lint: epoch-keyed` with the guard's location)")


# ---------------------------------------------------------------------------
# REP009 nondeterministic-iteration
# ---------------------------------------------------------------------------

_SET_ANNOTATIONS = ("set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                    "MutableSet")


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant) and \
            isinstance(annotation.value, str):
        text = annotation.value.strip()
        return any(text == name or text.startswith(f"{name}[")
                   for name in _SET_ANNOTATIONS)
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    if isinstance(target, ast.Name):
        return target.id in _SET_ANNOTATIONS
    if isinstance(target, ast.Attribute):
        return target.attr in _SET_ANNOTATIONS
    return False


def _is_set_expr(model: ModuleModel, expr: ast.expr, scope: Scope,
                 depth: int = 0) -> bool:
    """Conservative local inference: True only when the expression is
    provably an unordered set."""
    if depth > 6:
        return False
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        dotted = model.symbols.resolve(func, scope)
        if dotted in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and \
                func.attr in _SET_METHODS:
            return _is_set_expr(model, func.value, scope, depth + 1)
        return False
    if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return (_is_set_expr(model, expr.left, scope, depth + 1)
                or _is_set_expr(model, expr.right, scope, depth + 1))
    if isinstance(expr, ast.Name):
        owner = model.symbols.binding_scope(expr.id, scope)
        if owner is None:
            return False
        annotation = owner.annotations.get(expr.id)
        if annotation is not None and _is_set_annotation(annotation):
            return True
        values = owner.assignments.get(expr.id)
        if values:
            return all(_is_set_expr(model, value, owner, depth + 1)
                       for value in values)
        return False
    return False


@rule("REP009", "nondeterministic-iteration", Severity.ERROR,
      "ordered iteration over an unordered set feeds schedule/merge/"
      "tie-break order",
      marker="order-free", scope="repro/core/, repro/flow/, repro/sim/")
def check_nondeterministic_iteration(model: ModuleModel
                                     ) -> Iterator[LintViolation]:
    if not model.in_packages(("core", "flow", "sim"), require_repro=True):
        return

    def flag(node: ast.AST, what: str) -> LintViolation:
        return _finding(
            model, node, "REP009", "nondeterministic-iteration",
            Severity.ERROR,
            f"{what} iterates an unordered set: string/tuple hashes "
            f"vary per process (PYTHONHASHSEED), so anything fed by "
            f"this order diverges across runs and workers — iterate "
            f"`sorted(...)` with a total key (or mark "
            f"`# lint: order-free` if order provably cannot escape)")

    for node in ast.walk(model.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(model, node.iter, model.scope_of(node.iter)):
                yield flag(node, "for-loop")
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            if isinstance(node, ast.SetComp):
                continue  # set -> set keeps the result unordered anyway
            for comp in node.generators:
                if _is_set_expr(model, comp.iter,
                                model.scope_of(comp.iter)):
                    yield flag(node, "comprehension")
        elif isinstance(node, ast.Call):
            dotted = model.resolve_call(node)
            if dotted in _ORDERING_CONSUMERS and len(node.args) >= 1 \
                    and not node.keywords:
                if _is_set_expr(model, node.args[0],
                                model.scope_of(node)):
                    yield flag(node, f"{dotted}(...) materialization")


# ---------------------------------------------------------------------------
# REP010 blocking-call-in-async
# ---------------------------------------------------------------------------

@rule("REP010", "blocking-call-in-async", Severity.ERROR,
      "synchronous sleep/IO inside `async def` stalls the event loop",
      marker="blocking-ok", scope="every module")
def check_blocking_in_async(model: ModuleModel) -> Iterator[LintViolation]:
    for node in model.calls():
        function = model.enclosing_function(node)
        if not isinstance(function, ast.AsyncFunctionDef):
            continue
        dotted = model.resolve_call(node)
        if dotted is None:
            continue
        blocking = (dotted in _BLOCKING_CALLS
                    or any(dotted.startswith(prefix)
                           for prefix in _BLOCKING_PREFIXES))
        if not blocking:
            continue
        hint = ("await asyncio.sleep(...)" if dotted == "time.sleep"
                else "an executor (loop.run_in_executor / asyncio.to_thread)")
        yield _finding(
            model, node, "REP010", "blocking-call-in-async",
            Severity.ERROR,
            f"blocking call `{dotted}` inside `async def "
            f"{function.name}` stalls every other coroutine on the "
            f"loop; use {hint} (or mark `# lint: blocking-ok`)")


# ---------------------------------------------------------------------------
# REP011 counter-discipline
# ---------------------------------------------------------------------------

def _perf_incr_literals(model: ModuleModel) -> Set[str]:
    names: Set[str] = set()
    for node in model.calls():
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr == "incr" \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "PERF" and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            names.add(node.args[0].value)
    return names


@rule("REP011", "counter-discipline", Severity.WARNING,
      "perf counters must be static literals, and *_hits/*_misses/"
      "*_evictions pairs must be complete per module",
      marker="counter-ok", scope="src/repro/ packages")
def check_counter_discipline(model: ModuleModel
                             ) -> Iterator[LintViolation]:
    if "repro" not in model.path.parts:
        return
    literals = _perf_incr_literals(model)
    for node in model.calls():
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "incr"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "PERF"):
            continue
        if not node.args:
            continue
        name_arg = node.args[0]
        if not (isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)):
            yield _finding(
                model, node, "REP011", "counter-discipline",
                Severity.WARNING,
                "dynamic counter name passed to PERF.incr; counter "
                "names must be static string literals so the "
                "*_hits/*_misses registry convention stays auditable "
                "(or mark `# lint: counter-ok`)")
            continue
        name = name_arg.value
        suffix = next((s for s in _PAIRED_SUFFIXES
                       if name.endswith(s)), None)
        if suffix is None:
            continue
        base = name[: -len(suffix)]
        if suffix == "_evictions":
            required = f"{base}_hits"
        else:
            required = base + ("_misses" if suffix == "_hits" else "_hits")
        if required not in literals:
            yield _finding(
                model, node, "REP011", "counter-discipline",
                Severity.WARNING,
                f"counter `{name}` has no `{required}` partner in this "
                f"module; the {suffix} suffix is reserved for complete "
                f"cache pairs owned by the SchedulingContext (rename "
                f"the counter or add the partner; see "
                f"repro.perf.registry)")


# ---------------------------------------------------------------------------
# REP013 ad-hoc-study-plumbing
# ---------------------------------------------------------------------------

def _is_study_entry(function: ast.AST) -> bool:
    """True for the experiment entry points REP013 audits: ``run*``
    functions and ``*_study`` drivers.  Cell workers and private
    helpers keep returning plain payload dicts by design — that is the
    store's record format."""
    name = getattr(function, "name", "")
    return name.startswith("run") or name.endswith("_study")


@rule("REP013", "ad-hoc-study-plumbing", Severity.WARNING,
      "direct ProcessPoolExecutor construction in experiments/, core/ "
      "or flow/, or a raw result-dict returned from a run*/*_study "
      "entry point in experiments/",
      marker="platform-ok",
      scope="repro/experiments/, core/ and flow/ packages (result "
            "dicts: experiments/ only)")
def check_ad_hoc_study_plumbing(model: ModuleModel
                                ) -> Iterator[LintViolation]:
    if not model.in_packages(("experiments", "core", "flow"),
                             require_repro=True):
        return
    for node in model.calls():
        dotted = model.resolve_call(node)
        if dotted is not None and \
                dotted.split(".")[-1] == "ProcessPoolExecutor":
            yield _finding(
                model, node, "REP013", "ad-hoc-study-plumbing",
                Severity.WARNING,
                "direct ProcessPoolExecutor construction outside "
                "repro.platform; fan work out through the study "
                "platform (StudyGrid.run / repro.platform.fanout_map) "
                "so worker clamping, in-order merge, and the result "
                "store stay in one place (or mark "
                "`# lint: platform-ok`)")
    if not model.in_packages(("experiments",), require_repro=True):
        return
    for node in ast.walk(model.tree):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        function = model.enclosing_function(node)
        if function is None or not _is_study_entry(function):
            continue
        value = node.value
        ad_hoc = isinstance(value, (ast.Dict, ast.DictComp))
        if not ad_hoc and isinstance(value, ast.Call):
            ad_hoc = model.resolve_call(value) == "dict"
        if ad_hoc:
            yield _finding(
                model, node, "REP013", "ad-hoc-study-plumbing",
                Severity.WARNING,
                f"ad-hoc result dict returned from study entry point "
                f"`{getattr(function, 'name', '<lambda>')}`; return a "
                f"typed result (platform Results, an ExperimentTable, "
                f"or rows folded through to_row/from_row) so exports "
                f"stay schema-versioned (or mark `# lint: platform-ok`)")


# ---------------------------------------------------------------------------
# REP012 stale-suppression (engine-implemented meta rule)
# ---------------------------------------------------------------------------

register_meta_rule(
    "REP012", "stale-suppression", Severity.WARNING,
    "a `# lint: <marker>` comment that suppresses nothing (or names no "
    "known marker) is dead sanction debt",
    scope="every module")
