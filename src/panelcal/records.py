"""JSONL record loading for review panels and calibration pools.

One JSON object per line.  Panel lines look like

    {"id": "p1", "label": true,
     "reviews": [{"reviewer": "r1", "rubric": [6, 7], "flag": false,
                  "feedback": "..."}]}

where "label" and "feedback" are optional and a review may carry a
scalar "overall" instead of a "rubric" (it becomes a one-criterion
rubric).  Calibration lines look like

    {"id": "c1", "score": 6.5, "accept": true, "status": "accept"}

Malformed input raises RecordError naming the file, line, and field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from .core import CalibrationRecord, ReviewPanel, ReviewRecord, RubricVector

__all__ = [
    "RecordError",
    "PanelRecord",
    "load_panel_records",
    "load_calibration_records",
    "load_config",
    "read_text",
]


class RecordError(ValueError):
    """Malformed record file; message carries file and line context."""


@dataclass(frozen=True)
class PanelRecord:
    """One panel line as loaded; reviews may be empty (prior-only rows)."""

    submission_id: str
    reviews: tuple[ReviewRecord, ...]
    fabrication_label: bool | None = None

    def to_panel(self) -> ReviewPanel:
        """Promote to a validated ReviewPanel; requires at least one review."""
        return ReviewPanel(
            submission_id=self.submission_id,
            reviews=self.reviews,
            fabrication_label=self.fabrication_label,
        )


def _context(path: str | Path, line_no: int, message: str) -> RecordError:
    return RecordError(f"{path}:{line_no}: {message}")


def _get_str(obj: Mapping[str, Any], key: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"field {key!r} must be a non-empty string")
    return value


def _get_bool(obj: Mapping[str, Any], key: str) -> bool:
    value = obj.get(key)
    if not isinstance(value, bool):
        raise ValueError(f"field {key!r} must be a boolean")
    return value


def _get_number(obj: Mapping[str, Any], key: str) -> float:
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"field {key!r} must be finite")
    return value


def _parse_review(obj: Any) -> ReviewRecord:
    if not isinstance(obj, dict):
        raise ValueError("each review must be a JSON object")
    reviewer = _get_str(obj, "reviewer")
    if "rubric" in obj:
        raw = obj["rubric"]
        if not isinstance(raw, list) or not raw:
            raise ValueError("field 'rubric' must be a non-empty array of numbers")
        values = []
        for k, v in enumerate(raw):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"field 'rubric[{k}]' must be a number")
            values.append(float(v))
        rubric = RubricVector(tuple(values))
    elif "overall" in obj:
        rubric = RubricVector((_get_number(obj, "overall"),))
    else:
        raise ValueError("each review needs a 'rubric' array or an 'overall' number")
    flag = _get_bool(obj, "flag")
    feedback = ""
    if "feedback" in obj:
        if not isinstance(obj["feedback"], str):
            raise ValueError("field 'feedback' must be a string")
        feedback = obj["feedback"]
    return ReviewRecord(
        reviewer_id=reviewer, rubric=rubric, integrity_flag=flag, feedback=feedback
    )


def _parse_panel_line(obj: Any) -> PanelRecord:
    if not isinstance(obj, dict):
        raise ValueError("each line must be a JSON object")
    submission_id = _get_str(obj, "id")
    label: bool | None = None
    if "label" in obj and obj["label"] is not None:
        if not isinstance(obj["label"], bool):
            raise ValueError("field 'label' must be a boolean or null")
        label = obj["label"]
    raw_reviews = obj.get("reviews")
    if not isinstance(raw_reviews, list):
        raise ValueError("field 'reviews' must be an array")
    reviews = []
    for i, raw in enumerate(raw_reviews):
        try:
            reviews.append(_parse_review(raw))
        except ValueError as exc:
            raise ValueError(f"reviews[{i}]: {exc}") from exc
    return PanelRecord(
        submission_id=submission_id, reviews=tuple(reviews), fabrication_label=label
    )


def read_text(path: str | Path) -> str:
    """Read a UTF-8 input file; an unreadable path raises RecordError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RecordError(f"{path}: cannot read: {exc.strerror}") from exc


def _iter_json_lines(path: str | Path):
    text = read_text(path)
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            yield line_no, json.loads(line)
        except json.JSONDecodeError as exc:
            raise _context(path, line_no, f"invalid JSON: {exc.msg}") from exc


def load_panel_records(path: str | Path) -> list[PanelRecord]:
    """Load panel JSONL; duplicate panel ids are rejected."""
    out: list[PanelRecord] = []
    seen: set[str] = set()
    for line_no, obj in _iter_json_lines(path):
        try:
            record = _parse_panel_line(obj)
        except ValueError as exc:
            raise _context(path, line_no, str(exc)) from exc
        if record.submission_id in seen:
            raise _context(path, line_no, f"duplicate panel id {record.submission_id!r}")
        seen.add(record.submission_id)
        out.append(record)
    if not out:
        raise RecordError(f"{path}: no records found")
    return out


def load_calibration_records(path: str | Path) -> list[CalibrationRecord]:
    """Load calibration JSONL; duplicate ids are rejected."""
    out: list[CalibrationRecord] = []
    seen: set[str] = set()
    for line_no, obj in _iter_json_lines(path):
        if not isinstance(obj, dict):
            raise _context(path, line_no, "each line must be a JSON object")
        try:
            record = CalibrationRecord(
                submission_id=_get_str(obj, "id"),
                agent_score=_get_number(obj, "score"),
                human_accept=_get_bool(obj, "accept"),
                status=_get_str(obj, "status"),
            )
        except ValueError as exc:
            raise _context(path, line_no, str(exc)) from exc
        if record.submission_id in seen:
            raise _context(path, line_no, f"duplicate record id {record.submission_id!r}")
        seen.add(record.submission_id)
        out.append(record)
    if not out:
        raise RecordError(f"{path}: no records found")
    return out


def load_config(path: str | Path) -> dict[str, Any]:
    """Load a JSON config file; the top level must be an object."""
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise RecordError(f"{path}: invalid JSON: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise RecordError(f"{path}: config top level must be a JSON object")
    return data
