"""StudyGrid pipeline: enumeration, resume, invalidation, concurrency."""

import asyncio

import pytest

from repro.platform import (ProgressEvent, ResultStore, StudyGrid,
                            StudyReporter)

RUNNER = "tests.platform.gridtoys:square_cell"


def toy_grid(offset: int = 0, xs=(0, 1, 2), kinds=("a", "b")) -> StudyGrid:
    return StudyGrid(
        study="toy",
        runner=RUNNER,
        axes={"kind": list(kinds), "x": list(xs)},
        base={"offset": offset},
    )


# ---------------------------------------------------------------------
# Enumeration and keys
# ---------------------------------------------------------------------

def test_cells_enumerate_in_axis_order():
    cells = list(toy_grid().cells())
    assert len(cells) == len(toy_grid()) == 6
    assert [cell.coords for cell in cells[:3]] == [
        (("kind", "a"), ("x", 0)),
        (("kind", "a"), ("x", 1)),
        (("kind", "a"), ("x", 2)),
    ]
    assert [cell.index for cell in cells] == list(range(6))
    # Resolved config = base + coords, axis values shadowing base keys.
    assert cells[0].config == {"offset": 0, "kind": "a", "x": 0}


def test_keys_depend_on_config_not_axis_listing():
    full = {cell.coords: cell.key for cell in toy_grid().cells()}
    subset = {cell.coords: cell.key
              for cell in toy_grid(xs=(1,), kinds=("b",)).cells()}
    for coords, key in subset.items():
        assert full[coords] == key


def test_key_changes_with_schema_version_and_runner():
    grid = toy_grid()
    cell = next(grid.cells())
    bumped = StudyGrid(study=grid.study, runner=grid.runner,
                       axes=grid.axes, base=grid.base, schema_version=2)
    assert next(bumped.cells()).key != cell.key


def test_bad_runner_paths_rejected():
    with pytest.raises(ValueError, match="module:function"):
        StudyGrid(study="x", runner="no-colon", axes={"x": [1]}).run()
    with pytest.raises(TypeError, match="not callable"):
        StudyGrid(study="x", runner="tests.platform.gridtoys:__doc__",
                  axes={"x": [1]}).run()


# ---------------------------------------------------------------------
# Cold → warm resume (satellite 3 acceptance behaviors)
# ---------------------------------------------------------------------

def test_cold_then_warm_is_bit_identical_full_cache_hit(tmp_path):
    store = ResultStore(tmp_path)
    cold = toy_grid().run(store=store)
    warm = toy_grid().run(store=store)
    assert cold.meta["computed"] == 6 and cold.meta["cached"] == 0
    assert warm.meta["computed"] == 0 and warm.meta["cached"] == 6
    assert warm.rows == cold.rows
    # Payload keys read back in canonical (sorted) order on both paths.
    assert warm.columns == cold.columns == ("kind", "x", "label", "square")


def test_grown_axis_computes_only_new_cells(tmp_path):
    store = ResultStore(tmp_path)
    toy_grid().run(store=store)
    grown = toy_grid(xs=(0, 1, 2, 3)).run(store=store)
    assert grown.meta["total"] == 8
    assert grown.meta["cached"] == 6 and grown.meta["computed"] == 2


def test_changed_base_parameter_invalidates_every_cell(tmp_path):
    store = ResultStore(tmp_path)
    toy_grid(offset=0).run(store=store)
    changed = toy_grid(offset=5).run(store=store)
    assert changed.meta["cached"] == 0 and changed.meta["computed"] == 6
    # ...and the original slice is still served untouched.
    again = toy_grid(offset=0).run(store=store)
    assert again.meta["cached"] == 6


def test_corrupted_cell_recomputed_identically(tmp_path):
    store = ResultStore(tmp_path)
    cold = toy_grid().run(store=store)
    victim = list(toy_grid().cells())[3]
    path = store.path_for(victim.key)
    path.write_text(path.read_text()[: len(path.read_text()) // 2])

    repaired = toy_grid().run(store=store)
    assert repaired.meta["corrupt"] == 1
    assert repaired.meta["computed"] == 1
    assert repaired.meta["cached"] == 5
    assert repaired.rows == cold.rows
    # The repaired record now verifies again.
    assert store.get(victim.key) is not None


def test_no_resume_recomputes_but_refreshes_store(tmp_path):
    store = ResultStore(tmp_path)
    toy_grid().run(store=store)
    forced = toy_grid().run(store=store, resume=False)
    assert forced.meta["computed"] == 6 and forced.meta["cached"] == 0
    warm = toy_grid().run(store=store)
    assert warm.meta["cached"] == 6


# ---------------------------------------------------------------------
# Concurrency and normalization
# ---------------------------------------------------------------------

def test_parallel_run_is_bit_identical_to_sequential(tmp_path):
    sequential = toy_grid().run()
    parallel = toy_grid().run(workers=3)
    assert parallel.rows == sequential.rows
    assert parallel.meta["computed"] == 6


def test_parallel_cold_run_populates_store(tmp_path):
    store = ResultStore(tmp_path)
    toy_grid().run(store=store, workers=2)
    warm = toy_grid().run(store=store)
    assert warm.meta["cached"] == 6


def test_tuple_payloads_normalize_identically_cold_and_warm(tmp_path):
    grid = StudyGrid(study="tuples",
                     runner="tests.platform.gridtoys:tuple_cell",
                     axes={"x": [1, 2]})
    store = ResultStore(tmp_path)
    cold = grid.run(store=store)
    warm = grid.run(store=store)
    assert cold.rows == warm.rows == [
        {"x": 1, "pair": [1, 2]}, {"x": 2, "pair": [2, 3]}]


def test_non_mapping_payload_lands_under_value_column():
    grid = StudyGrid(study="scalars",
                     runner="tests.platform.gridtoys:scalar_cell",
                     axes={"x": [3, 4]})
    results = grid.run()
    assert results.columns == ("x", "value")
    assert results.rows == [{"x": 3, "value": 30}, {"x": 4, "value": 40}]


# ---------------------------------------------------------------------
# Progress streaming and wrappers
# ---------------------------------------------------------------------

def test_progress_events_stream_and_finish_complete(tmp_path):
    store = ResultStore(tmp_path)
    events: list[ProgressEvent] = []
    toy_grid().run(store=store, progress=events.append)
    assert len(events) == 6
    assert [event.done for event in events] == list(range(1, 7))
    final = events[-1]
    assert final.total == 6 and final.computed == 6 and final.cached == 0
    assert final.fraction == 1.0

    reporter = StudyReporter()
    toy_grid().run(store=store, progress=reporter)
    assert reporter.last is not None
    assert reporter.last.cached == 6 and reporter.last.computed == 0
    assert reporter.last.eta_seconds is None  # nothing was computed


def test_run_async_directly_and_run_grid_wrapper():
    async def drive():
        return await toy_grid().run_async()

    direct = asyncio.run(drive())
    wrapped = toy_grid().run()
    assert wrapped.rows == direct.rows
    assert wrapped.meta["grid_schema"] == 1
