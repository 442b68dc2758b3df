"""Experiment result containers, table formatting, and result diffing."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = [
    "ExperimentResult",
    "format_table",
    "results_to_json_doc",
    "diff_result_docs",
]


def format_table(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render rows of dicts as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    table = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in table))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in table
    )
    return f"{header}\n{rule}\n{body}"


@dataclass
class ExperimentResult:
    """The regenerated rows of one paper table/figure."""

    experiment: str  # e.g. "fig9"
    title: str
    rows: list[dict]
    notes: str = ""
    columns: list[str] | None = None
    extra: dict = field(default_factory=dict)

    def to_table(self) -> str:
        parts = [f"== {self.experiment}: {self.title} =="]
        parts.append(format_table(self.rows, self.columns))
        if self.notes:
            parts.append(f"note: {self.notes}")
        return "\n".join(parts)

    def to_json(self) -> str:
        """Machine-readable form (rows + metadata) for downstream tooling."""

        def clean(value):
            if isinstance(value, float):
                return value if value == value else None  # NaN -> null
            return value

        payload = {
            "experiment": self.experiment,
            "title": self.title,
            "notes": self.notes,
            "rows": [
                {key: clean(value) for key, value in row.items()}
                for row in self.rows
            ],
        }
        return json.dumps(payload, indent=2)


def results_to_json_doc(results: list[ExperimentResult]) -> str:
    """All results as one JSON array document (the ``--json`` format)."""
    return "[\n" + ",\n".join(result.to_json() for result in results) + "\n]\n"


def _cell_matches(expected, actual, rel_tol: float, abs_tol: float) -> bool:
    if isinstance(expected, float) or isinstance(actual, float):
        if expected is None or actual is None:  # to_json maps NaN -> null
            return expected is None and actual is None
        try:
            return math.isclose(
                float(expected), float(actual), rel_tol=rel_tol, abs_tol=abs_tol
            )
        except (TypeError, ValueError):
            return False
    return expected == actual


def diff_result_docs(
    expected: list[dict],
    actual: list[dict],
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-12,
) -> list[str]:
    """Human-readable mismatches between two parsed ``--json`` documents.

    Used by the golden regression test: numeric cells compare within
    tolerance (so a numpy upgrade's last-ulp noise doesn't fail the
    build), everything else compares exactly.  Returns [] when the
    documents agree.
    """
    problems: list[str] = []
    expected_ids = [doc.get("experiment") for doc in expected]
    actual_ids = [doc.get("experiment") for doc in actual]
    if expected_ids != actual_ids:
        return [f"experiment list changed: {expected_ids!r} -> {actual_ids!r}"]
    for exp_doc, act_doc in zip(expected, actual):
        name = exp_doc["experiment"]
        exp_rows, act_rows = exp_doc.get("rows", []), act_doc.get("rows", [])
        if len(exp_rows) != len(act_rows):
            problems.append(
                f"{name}: row count changed {len(exp_rows)} -> {len(act_rows)}"
            )
            continue
        for index, (exp_row, act_row) in enumerate(zip(exp_rows, act_rows)):
            if sorted(exp_row) != sorted(act_row):
                problems.append(
                    f"{name} row {index}: columns changed "
                    f"{sorted(exp_row)!r} -> {sorted(act_row)!r}"
                )
                continue
            for key, value in exp_row.items():
                if not _cell_matches(value, act_row[key], rel_tol, abs_tol):
                    problems.append(
                        f"{name} row {index} [{key}]: {value!r} -> {act_row[key]!r}"
                    )
    return problems
