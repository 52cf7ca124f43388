"""Declarative study grids with an async, resumable run pipeline.

A :class:`StudyGrid` names a cell runner (as an importable
``"module:function"`` path so cells pickle cheaply to worker
processes), a base config, and an ordered mapping of axes; the cross
product of the axes is the cell list, enumerated in axis order so cell
index — and therefore row order — is a pure function of the spec.

:meth:`StudyGrid.run_async` is the pipeline: probe the store for every
cell, fan the misses out over a :class:`ProcessPoolExecutor` through
the event loop, stream a :class:`~repro.platform.progress.ProgressEvent`
per completion (in completion order, for liveness), then merge payloads
into a :class:`~repro.platform.results.Results` strictly in cell order
(for determinism).  Cell runners are pure functions of their config —
all randomness forked from ``(seed, stream name, index)`` — so any
worker count, and any cached/computed split, yields bit-identical rows.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from .pool import effective_workers
from .progress import ProgressEvent
from .results import Results
from .store import STORE_SCHEMA_VERSION, ResultStore, content_key, normalize

__all__ = ["GridCell", "StudyGrid"]


@dataclass(frozen=True)
class GridCell:
    """One point of the cross product: coordinates, resolved config,
    and the content key its result is stored under."""

    index: int
    coords: "tuple[tuple[str, Any], ...]"
    config: "dict[str, Any]"
    key: str


def _resolve_runner(path: str) -> Callable[[dict[str, Any]], Any]:
    """``"pkg.module:function"`` → the function object."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"runner must be 'module:function', got {path!r}")
    runner = getattr(import_module(module_name), attr)
    if not callable(runner):
        raise TypeError(f"runner {path!r} is not callable")
    return runner


def _run_cell(runner_path: str, config: "dict[str, Any]") -> Any:
    """Execute one cell in a worker process (module-level: picklable)."""
    return _resolve_runner(runner_path)(config)


@dataclass
class StudyGrid:
    """A declarative grid spec: study name, runner path, axes, base.

    ``axes`` maps axis name → candidate values; insertion order defines
    the enumeration order (last axis varies fastest).  ``base`` holds
    parameters common to every cell.  Axis values shadow base keys of
    the same name in the resolved cell config.  ``schema_version`` is
    the *study's* own version stamp — bump it when the cell runner's
    output layout changes, and every old cached cell silently misses.
    """

    study: str
    runner: str
    axes: "Mapping[str, Sequence[Any]]"
    base: "dict[str, Any]" = field(default_factory=dict)
    schema_version: int = 1
    #: Export column order; defaults to axis names + sorted payload keys.
    columns: "tuple[str, ...]" = ()

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------

    def cells(self) -> "Iterator[GridCell]":
        names = list(self.axes)
        values = [list(self.axes[name]) for name in names]
        for index, combo in enumerate(itertools.product(*values)):
            coords = tuple(zip(names, combo))
            config = dict(self.base)
            config.update(coords)
            yield GridCell(index=index, coords=coords, config=config,
                           key=self.cell_key(config))

    def cell_key(self, config: "Mapping[str, Any]") -> str:
        """The content address of one resolved cell config.

        Includes the runner path and both schema versions: a changed
        runner, store layout, or payload layout must never serve stale
        records, while a grown axis (new values appended) leaves every
        existing cell's key — and cache entry — untouched.
        """
        return content_key({
            "study": self.study,
            "runner": self.runner,
            "store_schema": STORE_SCHEMA_VERSION,
            "schema": self.schema_version,
            "config": dict(config),
        })

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    # ------------------------------------------------------------------
    # Run pipeline
    # ------------------------------------------------------------------

    def run(self, *, workers: "Optional[int]" = 1,
            store: "Optional[ResultStore]" = None,
            resume: bool = True,
            progress: "Optional[Callable[[ProgressEvent], None]]" = None,
            ) -> Results:
        """Synchronous wrapper around :meth:`run_async`."""
        return asyncio.run(self.run_async(
            workers=workers, store=store, resume=resume,
            progress=progress))

    async def run_async(self, *, workers: "Optional[int]" = 1,
                        store: "Optional[ResultStore]" = None,
                        resume: bool = True,
                        progress: "Optional[Callable[[ProgressEvent], None]]"
                        = None) -> Results:
        """Run the grid: serve cached cells, compute the rest, merge.

        With ``resume`` and a store, each cell is first probed by key;
        verified records are served without recomputation (corrupt ones
        read as misses and are recomputed — the store counts them).
        Pending cells run inline when the effective worker count is 1,
        otherwise on a process pool driven through the event loop so
        progress streams as cells finish.  The final merge is by cell
        index, so results are identical for any concurrency.
        """
        cells = list(self.cells())
        started = time.monotonic()
        payloads: "dict[int, Any]" = {}
        cached = corrupt = computed = 0
        done = 0

        def emit(cell: GridCell) -> None:
            if progress is None:
                return
            elapsed = time.monotonic() - started
            eta: "Optional[float]" = None
            if computed:
                pending = len(cells) - done
                eta = (elapsed / computed) * pending
            progress(ProgressEvent(
                study=self.study, done=done, total=len(cells),
                computed=computed, cached=cached, corrupt=corrupt,
                elapsed_seconds=elapsed, eta_seconds=eta,
                coords=cell.coords))

        pending: "list[GridCell]" = []
        if store is not None and resume:
            for cell in cells:
                existed = store.path_for(cell.key).exists()
                body = store.get(cell.key)
                if body is None:
                    if existed:
                        corrupt += 1
                    pending.append(cell)
                    continue
                payloads[cell.index] = body
                cached += 1
                done += 1
                emit(cell)
        else:
            pending = cells

        def record(cell: GridCell, payload: Any) -> None:
            nonlocal computed, done
            payload = normalize(payload)
            payloads[cell.index] = payload
            computed += 1
            done += 1
            if store is not None:
                store.put(cell.key, payload, study=self.study,
                          coords=cell.coords)
            emit(cell)

        count = effective_workers(workers, len(pending))
        if pending and count <= 1:
            runner = _resolve_runner(self.runner)
            for cell in pending:
                record(cell, runner(cell.config))
                await asyncio.sleep(0)
        elif pending:
            loop = asyncio.get_running_loop()
            with ProcessPoolExecutor(max_workers=count) as executor:
                async def compute(cell: GridCell) -> "tuple[GridCell, Any]":
                    payload = await loop.run_in_executor(
                        executor, _run_cell, self.runner, cell.config)
                    return cell, payload

                tasks = [compute(cell) for cell in pending]
                for finished in asyncio.as_completed(tasks):
                    cell, payload = await finished
                    record(cell, payload)

        rows = self._merge(cells, payloads)
        columns = self.columns or self._infer_columns(rows)
        return Results(
            study=self.study,
            columns=columns,
            rows=rows,
            meta={
                "total": len(cells),
                "computed": computed,
                "cached": cached,
                "corrupt": corrupt,
                "grid_schema": self.schema_version,
                "elapsed_seconds": time.monotonic() - started,
            },
        )

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------

    def _merge(self, cells: "Sequence[GridCell]",
               payloads: "Mapping[int, Any]") -> "list[dict[str, Any]]":
        """Rows in cell order: coordinates first, then payload fields.

        Coordinates pass through the same JSON normalization as
        payloads so a row never mixes a tuple coordinate (cold run)
        with a list one (warm run).
        """
        rows: "list[dict[str, Any]]" = []
        for cell in cells:
            row: "dict[str, Any]" = {
                axis: normalize(value) for axis, value in cell.coords}
            payload = payloads[cell.index]
            if isinstance(payload, Mapping):
                for key, value in payload.items():
                    row[key] = value
            else:
                row["value"] = payload
            rows.append(row)
        return rows

    def _infer_columns(self,
                       rows: "Sequence[Mapping[str, Any]]",
                       ) -> "tuple[str, ...]":
        names = list(self.axes)
        seen = set(names)
        for row in rows:
            for key in row:
                if key not in seen:
                    seen.add(key)
                    names.append(key)
        return tuple(names)
