"""The experiment platform: declarative study grids with resumable,
content-addressed results.

The paper's evidence is a grid of simulation studies (workload ×
strategy family × local policy × seed); this package turns that grid
into a first-class object instead of a hand-rolled loop per script:

* :class:`~repro.platform.grid.StudyGrid` — a declarative cell grid
  with an async :meth:`~repro.platform.grid.StudyGrid.run` pipeline
  that fans cells out over a process pool (the same fork-stream
  seeding seam the PR-2 study runner introduced), streams progress,
  and merges results in cell order — bit-identical for any worker
  count.
* :class:`~repro.platform.store.ResultStore` — a content-addressed,
  corruption-detecting on-disk cache: each cell is keyed by a stable
  hash of its resolved config plus the study's schema version, so
  re-runs skip already-computed cells and a changed parameter
  recomputes exactly the affected slice.
* :class:`~repro.platform.results.Results` — typed per-cell rows,
  queryable (``filter`` / ``group_by``) and exportable (CSV / Parquet /
  JSON) under a versioned schema.
* :func:`~repro.platform.pool.fanout_map` — the one process-pool
  fan-out + in-order-merge helper shared by the grid runner and any
  remaining direct study lanes.

Experiment modules declare grids (see ``repro.experiments``) and the
``repro study`` CLI drives them (``run`` / ``ls`` / ``export`` /
``clean``, ``--resume``, ``--workers``, ``--format``).
"""

from .grid import GridCell, StudyGrid
from .pool import effective_workers, fanout_map
from .progress import ProgressEvent, StudyReporter
from .results import RESULTS_SCHEMA_VERSION, Results
from .store import STORE_SCHEMA_VERSION, ResultStore, content_key

__all__ = [
    "StudyGrid",
    "GridCell",
    "Results",
    "RESULTS_SCHEMA_VERSION",
    "ResultStore",
    "STORE_SCHEMA_VERSION",
    "content_key",
    "ProgressEvent",
    "StudyReporter",
    "effective_workers",
    "fanout_map",
]
