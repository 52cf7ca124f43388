"""Export of experiment tables and study rows.

Experiment tables become plain JSON dictionaries for external tooling
(``repro run fig3a --json out.json``); study rows export as CSV or,
when pyarrow is installed, Parquet (``repro study export``).
"""

from __future__ import annotations

import csv
import importlib.util
import json
from typing import Any, Mapping, Optional, Sequence

from .experiments.common import ExperimentTable

__all__ = [
    "table_to_dict",
    "dump_json",
    "dump_csv", "dump_parquet", "PARQUET_AVAILABLE",
]

#: Parquet export needs pyarrow, which this environment may not ship;
#: the capability is probed without importing (imports cost ~100ms).
PARQUET_AVAILABLE = importlib.util.find_spec("pyarrow") is not None


# ----------------------------------------------------------------------
# Experiment tables
# ----------------------------------------------------------------------

def table_to_dict(table: ExperimentTable) -> dict[str, Any]:
    """Experiment output as JSON (one-way: tables are results)."""
    return {
        "experiment_id": table.experiment_id,
        "title": table.title,
        "columns": list(table.columns),
        "rows": [dict(row) for row in table.rows],
        "notes": list(table.notes),
    }


# ----------------------------------------------------------------------
# File helpers
# ----------------------------------------------------------------------

def dump_json(payload: Mapping[str, Any], path: str) -> None:
    """Write a payload as pretty-printed JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _flat_cell(value: Any) -> Any:
    """A CSV-safe cell: scalars pass through, containers become JSON."""
    if isinstance(value, (list, dict, tuple)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return value


def dump_csv(columns: Sequence[str], rows: Sequence[Mapping[str, Any]],
             path: str,
             schema_header: Optional[Mapping[str, str]] = None) -> None:
    """Write rows as CSV in the given column order.

    ``schema_header`` renders as one leading ``# key=value ...``
    comment line (the versioned-schema tag study exports carry);
    list/dict cells are embedded as compact JSON so the file stays one
    value per cell.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if schema_header:
            handle.write("# " + " ".join(
                f"{key}={value}"
                for key, value in schema_header.items()) + "\n")
        writer = csv.DictWriter(handle, fieldnames=list(columns),
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({column: _flat_cell(row.get(column, ""))
                             for column in columns})


def dump_parquet(columns: Sequence[str],
                 rows: Sequence[Mapping[str, Any]], path: str,
                 metadata: Optional[Mapping[str, str]] = None) -> None:
    """Write rows as Parquet (schema metadata carries the version tag).

    Raises RuntimeError when pyarrow is not installed — Parquet is an
    optional export; CSV and JSON always work.
    """
    if not PARQUET_AVAILABLE:
        raise RuntimeError(
            "Parquet export requires pyarrow, which is not installed; "
            "use --format csv or --format json instead")
    import pyarrow as pa
    import pyarrow.parquet as pq

    table = pa.table({column: [_flat_cell(row.get(column))
                               for row in rows]
                      for column in columns})
    if metadata:
        table = table.replace_schema_metadata(
            {str(key): str(value) for key, value in metadata.items()})
    pq.write_table(table, path)
