"""Golden fixtures per rule: a violating and a sanctioned snippet pair
for every rule REP001–REP004 and REP006–REP013, plus the regression
cases the engine rebuild was meant to catch (aliased imports, scope shadowing, the
REP003 scope extension to core/flow)."""

from repro.analysis.lint import lint_source

CORE = "src/repro/core/x.py"
FLOW = "src/repro/flow/x.py"


def codes(violations):
    return {violation.code for violation in violations}


def run(source, path=CORE, only=None):
    found = lint_source(source, path=path)
    if only is not None:
        found = [v for v in found if v.code == only]
    return found


# ---------------------------------------------------------------------
# REP001 unseeded-random
# ---------------------------------------------------------------------

def test_rep001_global_draws_caught():
    source = ("import random\n"
              "import numpy as np\n"
              "def pick(xs):\n"
              "    np.random.shuffle(xs)\n"
              "    return random.choice(xs)\n")
    found = run(source, only="REP001")
    assert len(found) == 2
    assert any("random.choice" in v.message for v in found)
    assert any("numpy.random.shuffle" in v.message for v in found)


def test_rep001_aliased_from_import_caught():
    # The pre-engine lint only matched dotted ``random.*`` prefixes, so
    # ``from random import shuffle`` escaped entirely.
    source = ("from random import shuffle\n"
              "def mix(xs):\n"
              "    shuffle(xs)\n")
    assert len(run(source, only="REP001")) == 1


def test_rep001_aliased_module_import_caught():
    source = ("import numpy.random as npr\n"
              "x = npr.uniform()\n")
    assert len(run(source, only="REP001")) == 1
    source = ("from numpy import random as nprand\n"
              "x = nprand.uniform()\n")
    assert len(run(source, only="REP001")) == 1


def test_rep001_assignment_alias_caught():
    source = ("from random import shuffle as sh\n"
              "mix = sh\n"
              "def scramble(xs):\n"
              "    mix(xs)\n")
    assert len(run(source, only="REP001")) == 1


def test_rep001_plain_submodule_import_does_not_poison_root():
    # ``import numpy.random`` must not rebind ``numpy`` itself: the old
    # lint mapped ``numpy -> numpy.random`` and then flagged unrelated
    # ``np.asarray``-style calls resolved through it.
    source = ("import numpy.random\n"
              "import numpy\n"
              "y = numpy.asarray([1])\n"
              "x = numpy.random.uniform()\n")
    found = run(source, only="REP001")
    assert len(found) == 1
    assert "numpy.random.uniform" in found[0].message


def test_rep001_local_shadowing_suppresses():
    source = ("def pick(random, xs):\n"
              "    return random.choice(xs)\n")
    assert run(source, only="REP001") == []


def test_rep001_seeded_constructors_allowed():
    source = ("import random\n"
              "import numpy as np\n"
              "a = np.random.default_rng(7)\n"
              "b = random.Random(11)\n"
              "c = np.random.SeedSequence([1, 2])\n")
    assert run(source, only="REP001") == []


def test_rep001_unseeded_constructors_still_caught():
    source = ("import numpy as np\n"
              "a = np.random.default_rng()\n")
    assert len(run(source, only="REP001")) == 1


def test_rep001_rng_sanctuary_and_marker():
    source = ("import numpy as np\n"
              "rng = np.random.default_rng()\n")
    assert lint_source(source, path="src/repro/sim/rng.py") == []
    sanctioned = ("import numpy as np\n"
                  "rng = np.random.default_rng()  # lint: rng-ok (test)\n")
    assert run(sanctioned, only="REP001") == []


# ---------------------------------------------------------------------
# REP002 float-equality
# ---------------------------------------------------------------------

def test_rep002_pair():
    assert len(run("bad = x == 4.0\n", only="REP002")) == 1
    assert run("ok = x == 4\n", only="REP002") == []
    sanctioned = "bad = x == 4.0  # lint: exact-float (sentinel)\n"
    assert run(sanctioned, only="REP002") == []


def test_rep002_chained_comparison():
    found = run("flag = 0.5 == load != 0.25\n", only="REP002")
    assert len(found) == 2


# ---------------------------------------------------------------------
# REP003 wall-clock
# ---------------------------------------------------------------------

def test_rep003_scope_covers_core_and_flow():
    # The DES clock owns time everywhere the kernel runs now, not just
    # inside ``sim`` — the scope extension is the regression under test.
    source = ("import time\n"
              "def stamp():\n"
              "    return time.monotonic()\n")
    for path in ("src/repro/sim/engine.py", CORE, FLOW,
                 "src/repro/perf/bench.py"):
        assert len(run(source, path=path, only="REP003")) == 1, path
    assert run(source, path="src/repro/io.py", only="REP003") == []


def test_rep003_pair():
    source = ("from datetime import datetime\n"
              "now = datetime.now()\n")
    assert len(run(source, only="REP003")) == 1
    sanctioned = ("import time\n"
                  "t = time.perf_counter()  # lint: perf-timer (bench)\n")
    assert run(sanctioned, only="REP003") == []


# ---------------------------------------------------------------------
# REP004 mutable-default
# ---------------------------------------------------------------------

def test_rep004_pair():
    assert len(run("def f(xs=[]):\n    return xs\n", only="REP004")) == 1
    assert len(run("def f(xs=dict()):\n    return xs\n",
                   only="REP004")) == 1
    assert run("def f(xs=None):\n    return xs\n", only="REP004") == []
    sanctioned = ("# lint: shared-default (intentional accumulator)\n"
                  "def f(xs=[]):\n"
                  "    return xs\n")
    assert run(sanctioned, only="REP004") == []


# ---------------------------------------------------------------------
# REP006 stray-cache (core/flow except context.py)
# ---------------------------------------------------------------------

STRAY_MODULE_CACHE = "_PLAN_CACHE = {}\n_PLAN_CACHE_LIMIT = 64\n"


def test_rep006_module_and_self_and_param_and_setattr():
    found = run(STRAY_MODULE_CACHE, only="REP006")
    assert len(found) == 1 and "_PLAN_CACHE" in found[0].message
    assert "SchedulingContext" in found[0].message

    self_cache = ("class S:\n"
                  "    def __init__(self):\n"
                  "        self._fit_cache = dict()\n")
    assert len(run(self_cache, only="REP006")) == 1

    params = "def allocate(chain, fit_cache=None, transfer_matrices=None):\n    return chain\n"
    assert len(run(params, only="REP006")) == 2

    smuggled = ("class Job:\n"
                "    def __post_init__(self):\n"
                "        object.__setattr__(self, '_duration_cache', {})\n")
    assert len(run(smuggled, only="REP006")) == 1


def test_rep006_sanction_and_exemptions():
    sanctioned = "_RANK_MEMO = {}  # lint: context-cache (value-keyed)\n"
    assert run(sanctioned, only="REP006") == []
    assert lint_source(STRAY_MODULE_CACHE,
                       path="src/repro/core/context.py") == []
    for path in ("src/repro/analysis/verify.py", "tests/core/test_dp.py"):
        assert run(STRAY_MODULE_CACHE, path=path, only="REP006") == []
    local = ("def rank(job):\n"
             "    memo = {}\n"
             "    memo[job] = 1\n"
             "    return memo\n")
    assert run(local, only="REP006") == []
    view = "def f(self):\n    self._fit_cache = make_view()\n"
    assert run(view, only="REP006") == []


# ---------------------------------------------------------------------
# REP007 shared-mutable-state (core/flow)
# ---------------------------------------------------------------------

def test_rep007_module_container_mutation_caught():
    source = ("_SEEN = {}\n"
              "def record(job):\n"
              "    _SEEN[job.name] = job\n")
    found = run(source, only="REP007")
    assert len(found) == 1
    assert "_SEEN" in found[0].message and "line 1" in found[0].message

    method = ("_QUEUE = []\n"
              "def push(job):\n"
              "    _QUEUE.append(job)\n")
    assert len(run(method, only="REP007")) == 1


def test_rep007_cursor_and_global_rebind_caught():
    cursor = ("import itertools\n"
              "_CLOCK = itertools.count(1)\n"
              "def tick():\n"
              "    return next(_CLOCK)\n")
    assert len(run(cursor, only="REP007")) == 1

    rebind = ("_STATE = {}\n"
              "def reset():\n"
              "    global _STATE\n"
              "    _STATE = {}\n")
    assert len(run(rebind, only="REP007")) == 1


def test_rep007_class_level_container_mutation_caught():
    source = ("class Planner:\n"
              "    seen = set()\n"
              "    def mark(self, job):\n"
              "        self.seen.add(job)\n")
    assert len(run(source, only="REP007")) == 1


def test_rep007_instance_state_is_fine():
    source = ("class Planner:\n"
              "    seen = set()\n"
              "    def __init__(self):\n"
              "        self.seen = set()\n"
              "    def mark(self, job):\n"
              "        self.seen.add(job)\n")
    assert run(source, only="REP007") == []


def test_rep007_reads_locals_and_other_packages_are_fine():
    read_only = ("_TABLE = {'a': 1}\n"
                 "def look(key):\n"
                 "    return _TABLE.get(key)\n")
    assert run(read_only, only="REP007") == []

    shadowed = ("_SEEN = {}\n"
                "def record(job):\n"
                "    _SEEN = {}\n"
                "    _SEEN[job.name] = job\n")
    assert run(shadowed, only="REP007") == []

    mutated = ("_SEEN = {}\n"
               "def record(job):\n"
               "    _SEEN[job.name] = job\n")
    assert run(mutated, path="src/repro/workload/x.py",
               only="REP007") == []


def test_rep007_sanction_at_declaration_or_mutation():
    source = ("_SEEN = {}\n"
              "def record(job):\n"
              "    # lint: shared-state (process-local audit trail)\n"
              "    _SEEN[job.name] = job\n")
    assert run(source, only="REP007") == []


# ---------------------------------------------------------------------
# REP008 unguarded-cache-read (core/flow)
# ---------------------------------------------------------------------

def test_rep008_unguarded_read_caught():
    source = ("def lookup(context, key):\n"
              "    return context._gap_tables.get(key)\n")
    found = run(source, only="REP008")
    assert len(found) == 1 and "_gap_tables" in found[0].message

    subscript = ("def lookup(context, key):\n"
                 "    return context.plans[key]\n")
    assert len(run(subscript, only="REP008")) == 1


def test_rep008_version_or_epoch_guard_passes():
    guarded = ("def lookup(context, node, key):\n"
               "    version = node.calendar_version\n"
               "    return context._gap_tables.get((key, version))\n")
    assert run(guarded, only="REP008") == []
    epoch = ("def lookup(context, grid, job, key):\n"
             "    epochs = grid.epoch_slice(key)\n"
             "    struct = job.structural_hash\n"
             "    cached = context.plans.get((struct, key, epochs))\n"
             "    return cached\n")
    assert run(epoch, only="REP008") == []


def test_rep008_plan_reads_need_struct_and_epoch_tokens():
    """`plans` reads must reference a structural-hash token AND an
    epoch/version token; either alone is an error."""
    epoch_only = ("def lookup(context, grid, key):\n"
                  "    epochs = grid.epoch_slice(key)\n"
                  "    return context.plans.lookup(key, epochs)\n")
    found = run(epoch_only, only="REP008")
    assert len(found) == 1 and "structural hash" in found[0].message
    struct_only = ("def lookup(context, job, key):\n"
                   "    struct = job.structural_hash\n"
                   "    return context.plans.lookup(struct, key)\n")
    found = run(struct_only, only="REP008")
    assert len(found) == 1 and "epoch" in found[0].message
    both = ("def lookup(context, grid, job, key):\n"
            "    epochs = grid.epoch_slice(key)\n"
            "    return context.plans.lookup(job.structural_hash, key,\n"
            "                                epochs)\n")
    assert run(both, only="REP008") == []
    # Only a `struct` token guards the structure key; `shape` does not.
    shape = ("def lookup(context, grid, job, key):\n"
             "    epochs = grid.epoch_slice(key)\n"
             "    shape = job.digest\n"
             "    return context.plans.lookup(shape, key, epochs)\n")
    assert len(run(shape, only="REP008")) == 1
    # Plain mapping caches are unaffected by the structure requirement.
    gaps = ("def lookup(context, node, key):\n"
            "    version = node.calendar_version\n"
            "    return context._gap_tables.lookup((key, version))\n")
    assert run(gaps, only="REP008") == []


def test_rep008_scope_writes_and_marker():
    write = ("def store(context, key, value):\n"
             "    context._gap_tables[key] = value\n")
    assert run(write, only="REP008") == []
    other_cache = ("def lookup(context, key):\n"
                   "    return context.results.get(key)\n")
    assert run(other_cache, only="REP008") == []
    sanctioned = ("def lookup(context, key):\n"
                  "    # lint: epoch-keyed (key embeds the version)\n"
                  "    return context._gap_tables.get(key)\n")
    assert run(sanctioned, only="REP008") == []


# ---------------------------------------------------------------------
# REP009 nondeterministic-iteration (core/flow/sim)
# ---------------------------------------------------------------------

def test_rep009_set_iteration_caught():
    loop = ("def order(jobs):\n"
            "    pending = set(jobs)\n"
            "    for job in pending:\n"
            "        yield job\n")
    found = run(loop, only="REP009")
    assert len(found) == 1 and "sorted" in found[0].message

    literal = ("for tag in {'a', 'b'}:\n"
               "    print(tag)\n")
    assert len(run(literal, only="REP009")) == 1

    comp = ("def names(jobs):\n"
            "    return [j.name for j in set(jobs)]\n")
    assert len(run(comp, only="REP009")) == 1

    materialize = ("def names(jobs):\n"
                   "    return list(set(jobs))\n")
    assert len(run(materialize, only="REP009")) == 1


def test_rep009_annotation_and_setop_inference():
    annotated = ("from typing import Set\n"
                 "def order(pending: Set[str]):\n"
                 "    for name in pending:\n"
                 "        yield name\n")
    assert len(run(annotated, only="REP009")) == 1
    binop = ("def order(a, b):\n"
             "    for name in set(a) | set(b):\n"
             "        yield name\n")
    assert len(run(binop, only="REP009")) == 1


def test_rep009_order_free_consumption_is_fine():
    source = ("def stats(jobs):\n"
              "    pending = set(jobs)\n"
              "    total = len(pending)\n"
              "    ordered = sorted(pending)\n"
              "    still = {j for j in pending}\n"
              "    return total, ordered, still\n")
    assert run(source, only="REP009") == []
    lists = ("def order(jobs):\n"
             "    for job in list(jobs):\n"
             "        yield job\n")
    assert run(lists, only="REP009") == []


def test_rep009_scope_and_marker():
    loop = ("for tag in {'a', 'b'}:\n"
            "    print(tag)\n")
    assert run(loop, path="src/repro/analysis/verify.py",
               only="REP009") == []
    sanctioned = ("total = 0\n"
                  "for tag in {'a', 'b'}:  # lint: order-free (sum)\n"
                  "    total += len(tag)\n")
    assert run(sanctioned, only="REP009") == []


# ---------------------------------------------------------------------
# REP010 blocking-call-in-async
# ---------------------------------------------------------------------

def test_rep010_pair():
    source = ("import time\n"
              "async def poll(queue):\n"
              "    time.sleep(1)\n")
    found = run(source, only="REP010")
    assert len(found) == 1 and "asyncio.sleep" in found[0].message

    ok = ("import asyncio\n"
          "async def poll(queue):\n"
          "    await asyncio.sleep(1)\n")
    assert run(ok, only="REP010") == []

    sync = ("import time\n"
            "def poll(queue):\n"
            "    time.sleep(1)\n")
    assert run(sync, only="REP010") == []

    sanctioned = ("import time\n"
                  "async def poll(queue):\n"
                  "    time.sleep(0)  # lint: blocking-ok (yield hint)\n")
    assert run(sanctioned, only="REP010") == []


def test_rep010_subprocess_and_io_caught():
    source = ("import subprocess\n"
              "async def deploy():\n"
              "    subprocess.run(['true'])\n"
              "    handle = open('x')\n"
              "    return handle\n")
    assert len(run(source, only="REP010")) == 2


# ---------------------------------------------------------------------
# REP011 counter-discipline
# ---------------------------------------------------------------------

def test_rep011_unpaired_and_dynamic_names_caught():
    unpaired = ("def f():\n"
                "    PERF.incr('dp.fit_cache_hits')\n")
    found = run(unpaired, only="REP011")
    assert len(found) == 1 and "dp.fit_cache_misses" in found[0].message

    evictions = ("def f():\n"
                 "    PERF.incr('placement.gap_table_evictions')\n")
    assert len(run(evictions, only="REP011")) == 1

    dynamic = ("def f(name):\n"
               "    PERF.incr(f'{name}_evictions')\n")
    found = run(dynamic, only="REP011")
    assert len(found) == 1 and "dynamic" in found[0].message


def test_rep011_complete_pairs_and_plain_names_are_fine():
    paired = ("def f(hit):\n"
              "    if hit:\n"
              "        PERF.incr('dp.fit_cache_hits')\n"
              "    else:\n"
              "        PERF.incr('dp.fit_cache_misses')\n")
    assert run(paired, only="REP011") == []
    plain = "def f():\n    PERF.incr('dp.expansions')\n"
    assert run(plain, only="REP011") == []
    sanctioned = ("def f(name):\n"
                  "    # lint: counter-ok (per-cache template)\n"
                  "    PERF.incr(f'{name}_evictions')\n")
    assert run(sanctioned, only="REP011") == []


# ---------------------------------------------------------------------
# REP007/REP008 shard-isolation extension (flow)
# ---------------------------------------------------------------------

def test_rep007_shard_crossing_mutation_caught():
    source = ("class Engine:\n"
              "    def route(self, i, entry):\n"
              "        self.planners[i].context.plans.store(entry)\n")
    found = run(source, path=FLOW, only="REP007")
    assert len(found) == 1
    assert "planners" in found[0].message and "seam" in found[0].message

    write = ("class Engine:\n"
             "    def route(self, i, cal):\n"
             "        self.replicas[i].calendars[3] = cal\n")
    assert len(run(write, path=FLOW, only="REP007")) == 1

    reserve = ("def steal(shards, i, start, end):\n"
               "    shards[i].calendar.reserve(start, end)\n")
    assert len(run(reserve, path=FLOW, only="REP007")) == 1


def test_rep007_shard_mutation_in_seam_is_fine():
    seam = ("class Engine:\n"
            "    def _commit_window(self, i, entry):\n"
            "        self.planners[i].context.plans.store(entry)\n"
            "    def _merge_results(self, i, delta):\n"
            "        self.planners[i].context.plans.adopt(delta)\n"
            "    def _sync_replica(self, i, cal):\n"
            "        self.replicas[i].calendars[3] = cal\n")
    assert run(seam, path=FLOW, only="REP007") == []


def test_rep007_shard_reads_and_other_collections_are_fine():
    read = ("class Engine:\n"
            "    def shard_domains(self, i):\n"
            "        return self.planners[i].domains\n")
    assert run(read, path=FLOW, only="REP007") == []
    # Subscripts into ordinary collections are not shard state.
    other = ("class Engine:\n"
             "    def note(self, i, entry):\n"
             "        self.offers[i].variants.append(entry)\n")
    assert run(other, path=FLOW, only="REP007") == []


def test_rep007_shard_marker_sanctions_the_line():
    marked = ("class Engine:\n"
              "    def route(self, i, entry):\n"
              "        # lint: shared-state (window-local scratch)\n"
              "        self.planners[i].context.plans.store(entry)\n")
    assert run(marked, path=FLOW, only="REP007") == []


def test_rep008_cross_shard_cache_read_caught():
    source = ("class Engine:\n"
              "    def peek(self, i, key):\n"
              "        return self.planners[i].context.plans.get(key)\n")
    found = run(source, path=FLOW, only="REP008")
    assert len(found) == 1
    assert "cross-shard" in found[0].message
    assert "planners" in found[0].message


def test_rep008_cross_shard_read_in_seam_is_fine():
    """Inside the seam the cross-shard finding is waived; the base
    guard requirement (structure + epoch tokens for `plans`) still
    holds."""
    seam = ("class Engine:\n"
            "    def _merge_stats(self, i, grid, job, key):\n"
            "        epochs = grid.epoch_slice(key)\n"
            "        struct = job.structural_hash\n"
            "        return self.planners[i].context.plans.get(\n"
            "            (struct, key, epochs))\n")
    assert run(seam, path=FLOW, only="REP008") == []


# ---------------------------------------------------------------------
# REP013 ad-hoc-study-plumbing (experiments; pools also core/flow)
# ---------------------------------------------------------------------

EXP = "src/repro/experiments/x.py"


def test_rep013_pool_and_dict_returns_caught():
    source = ("from concurrent.futures import ProcessPoolExecutor\n"
              "def run_study(cells):\n"
              "    with ProcessPoolExecutor(4) as pool:\n"
              "        rows = list(pool.map(work, cells))\n"
              "    return {cell: row for cell, row in zip(cells, rows)}\n")
    found = run(source, path=EXP, only="REP013")
    assert len(found) == 2
    assert any("ProcessPoolExecutor" in v.message for v in found)
    assert any("run_study" in v.message for v in found)

    aliased = ("import concurrent.futures as cf\n"
               "def fan_out(cells):\n"
               "    with cf.ProcessPoolExecutor() as pool:\n"
               "        return list(pool.map(work, cells))\n")
    assert len(run(aliased, path=EXP, only="REP013")) == 1

    dict_call = ("def coordinated_study(rows):\n"
                 "    return dict(rows)\n")
    assert len(run(dict_call, path=EXP, only="REP013")) == 1


def test_rep013_scope_helpers_and_sanctions_are_fine():
    # Entry points returning folded/typed results comply.
    ok = ("def coordinated_flow_study(config):\n"
          "    results = grid(config).run()\n"
          "    return _fold_rows(results)\n")
    assert run(ok, path=EXP, only="REP013") == []
    # Cell workers return payload dicts by design (the store's record
    # format) — only run*/_study entry points are audited.
    cell = ("def cell(config):\n"
            "    return {'expense': 1}\n")
    assert run(cell, path=EXP, only="REP013") == []
    # Process fan-out lives in repro.platform only: a pool in core/ or
    # flow/ is caught, while the raw-dict check stays experiments-only.
    pool = ("from concurrent.futures import ProcessPoolExecutor\n"
            "def run_bench():\n"
            "    return {'pool': ProcessPoolExecutor()}\n")
    for path in (CORE, FLOW):
        found = run(pool, path=path, only="REP013")
        assert len(found) == 1, path
        assert "ProcessPoolExecutor" in found[0].message
    assert run(pool, path="src/repro/platform/pool.py",
               only="REP013") == []
    # The standard escape hatch sanctions a line.
    sanctioned = ("def run_probe():\n"
                  "    # lint: platform-ok (diagnostic payload)\n"
                  "    return {'raw': 1}\n")
    assert run(sanctioned, path=EXP, only="REP013") == []
