"""Reference implementations that the differential tests compare against.

``panelcal`` computes consensus rubrics, scores, posteriors, credible
calls and the corpus counts on columns; its object API (``aggregate``,
``bayes`` and ``metrics`` functions of one panel or a panel sequence) is a
set of adapters over those column kernels.  The loops here compute the same
results one object at a time, with the same argument checks and messages,
so the differential tests compare two independent codes.

``validate_panels`` checks a panel file's panels as ``ReviewPanel``
objects and ``validate_schema``; ``PanelTable.validate`` checks the
columns and words the same errors.

``scalar_uniform_bound`` computes its Bernstein exponent itself, as the
package did before ``tail_bound`` and it shared one exponent function.

The calibration references are the earlier forms of three computations:
``tau05_from_scores`` as an integer suffix sum over the tail counts (the
package runs a level-set kernel over packed ranks), ``allocate_quotas``
with its reallocation loop (the package gives out the leftover units in
one pass), and ``pava``, the weighted PAVA fit that pushes each value as a
block and then merges the top two (the package merges the newest block
before it pushes it).

``load_panel_table`` reads a panel file one line at a time, checking each
field of each review as it goes (the package decodes a piece of lines in
one scan, and each of its line rules checks a whole column and words its
own first break).  ``aligned_table``
lays out a report table row by row, and ``csv_text`` writes CSV rows with
``csv.writer`` (the package writes both from columns).
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from panelcal import reader
from panelcal.aggregate import ConsensusRubric
from panelcal.bayes import normal_quantile
from panelcal.calibrate import CellQuota, StratificationPlan
from panelcal.core import (
    ConfusionCounts,
    GaussianPosterior,
    ReviewerWeights,
    ReviewPanel,
    ReviewRecord,
    RubricSchema,
    ScoringFunctional,
    ThresholdUnreachableError,
)
from panelcal.records import PanelTable, RecordError


def consensus_rubric(panel: ReviewPanel, weights: ReviewerWeights) -> ConsensusRubric:
    if len(weights) != len(panel.reviews):
        raise ValueError(
            f"weights: expected {len(panel.reviews)} entries for panel "
            f"{panel.submission_id!r}, got {len(weights)}"
        )
    matrix = np.array([r.rubric.values for r in panel.reviews], dtype=float)
    w = np.asarray(weights.weights, dtype=float)
    return ConsensusRubric(tuple(w @ matrix))


def score(
    consensus: ConsensusRubric,
    functional: ScoringFunctional,
    schema: RubricSchema | None = None,
) -> float:
    if functional.kind == "linear":
        assert functional.coefficients is not None
        if len(functional.coefficients) != len(consensus):
            raise ValueError(
                f"coefficients: expected {len(consensus)} entries, "
                f"got {len(functional.coefficients)}"
            )
        return float(
            np.dot(np.asarray(functional.coefficients), np.asarray(consensus.values))
        )
    if schema is None or schema.overall_index is None:
        raise ValueError("schema: overall_pick scoring needs a schema with overall_index set")
    if schema.criteria_count != len(consensus):
        raise ValueError(
            f"schema: criteria_count {schema.criteria_count} does not match "
            f"consensus length {len(consensus)}"
        )
    return consensus.values[schema.overall_index]


def posterior_update(
    prior: GaussianPosterior,
    reviews: Sequence[tuple[float, float]],
) -> GaussianPosterior:
    precision = 1.0 / prior.variance
    weighted = prior.mean / prior.variance
    for i, (score, variance) in enumerate(reviews):
        score = float(score)
        variance = float(variance)
        if not math.isfinite(score):
            raise ValueError(f"reviews[{i}].score: must be finite, got {score!r}")
        if not (math.isfinite(variance) and variance > 0):
            raise ValueError(f"reviews[{i}].variance: must be finite and > 0, got {variance!r}")
        precision += 1.0 / variance
        weighted += score / variance
    return GaussianPosterior(mean=weighted / precision, variance=1.0 / precision)


def normal_cdf(z: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def acceptance_probability(posterior: GaussianPosterior, threshold: float) -> float:
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold: must be finite, got {threshold!r}")
    return 0.5 * math.erfc((threshold - posterior.mean) / posterior.std / math.sqrt(2.0))


def credible_robust(posterior: GaussianPosterior, threshold: float, alpha: float) -> bool:
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise ValueError(f"threshold: must be finite, got {threshold!r}")
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha: must lie strictly in (0, 1), got {alpha!r}")
    z = normal_quantile(1.0 - alpha / 2.0)
    return abs(threshold - posterior.mean) >= z * posterior.std


def solicit_worthwhile(
    posterior: GaussianPosterior,
    threshold: float,
    alpha: float,
    new_review_variance: float,
) -> bool:
    new_review_variance = float(new_review_variance)
    if not (math.isfinite(new_review_variance) and new_review_variance > 0):
        raise ValueError(
            f"new_review_variance: must be finite and > 0, got {new_review_variance!r}"
        )
    if credible_robust(posterior, threshold, alpha):
        return False
    precision_next = 1.0 / posterior.variance + 1.0 / new_review_variance
    std_next = math.sqrt(1.0 / precision_next)
    z = normal_quantile(1.0 - float(alpha) / 2.0)
    return abs(float(threshold) - posterior.mean) >= z * std_next


def icr_per_model(panels: Sequence[ReviewPanel], reviewer_id: str) -> float:
    if not panels:
        raise ValueError("panels: must be non-empty")
    flagged = 0
    for panel in panels:
        review = panel.review_by(reviewer_id)
        flagged += int(review.integrity_flag)
    return flagged / len(panels)


def icr_any(panels: Sequence[ReviewPanel]) -> float:
    if not panels:
        raise ValueError("panels: must be non-empty")
    return sum(1 for p in panels if p.any_flag) / len(panels)


def conflict_rate(
    panels: Sequence[ReviewPanel],
    scores: Mapping[str, float],
    threshold: float,
    reviewer_id: str | None = None,
) -> float | None:
    if not panels:
        raise ValueError("panels: must be non-empty")
    if math.isnan(threshold):
        raise ValueError("threshold: must not be NaN, got nan")
    flagged: list[ReviewPanel] = []
    for panel in panels:
        if reviewer_id is None:
            hit = panel.any_flag
        else:
            hit = panel.review_by(reviewer_id).integrity_flag
        if hit:
            flagged.append(panel)
    if not flagged:
        return None
    conflicts = 0
    for panel in flagged:
        if panel.submission_id not in scores:
            raise ValueError(f"scores: missing entry for panel {panel.submission_id!r}")
        if scores[panel.submission_id] >= threshold:
            conflicts += 1
    return conflicts / len(flagged)


def detector_counts(
    panels: Sequence[ReviewPanel],
    reviewer_id: str | None = None,
) -> ConfusionCounts:
    if not panels:
        raise ValueError("panels: must be non-empty")
    tp = fp = tn = fn = 0
    for panel in panels:
        if panel.fabrication_label is None:
            raise ValueError(
                f"panels: panel {panel.submission_id!r} has no fabrication_label"
            )
        if reviewer_id is None:
            predicted = panel.any_flag
        else:
            predicted = panel.review_by(reviewer_id).integrity_flag
        if panel.fabrication_label:
            tp += int(predicted)
            fn += int(not predicted)
        else:
            fp += int(predicted)
            tn += int(not predicted)
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def validate_panels(
    panels: Sequence[tuple[str, str, tuple[ReviewRecord, ...], bool | None]],
    schema: RubricSchema | None = None,
    *,
    require_reviews: bool = True,
    require_labels: bool = False,
) -> None:
    """The first error of ``PanelTable.validate``, found one ``ReviewPanel`` at a time.

    ``panels`` holds (where, id, reviews, label) with ``where`` the panel's
    ``path:line``.  Each rule runs over all panels before the next: reviews
    present, the ``ReviewPanel`` checks, ``validate_schema``, labels present.
    """
    if require_reviews:
        for where, submission_id, reviews, _ in panels:
            if not reviews:
                raise ValueError(f"{where}: panel {submission_id!r} has no reviews")
    objects = []
    for where, submission_id, reviews, label in panels:
        if reviews:
            try:
                objects.append((where, ReviewPanel(submission_id, reviews, label)))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    if schema is not None:
        for where, panel in objects:
            try:
                panel.validate_schema(schema)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    if require_labels:
        for where, submission_id, _, label in panels:
            if label is None:
                raise ValueError(f"{where}: panel {submission_id!r} has no fabrication_label")


def scalar_uniform_bound(m: int, gamma: float, sigma_sq: float, range_width: float) -> float:
    """exp(-M gamma^2 / (2 sigma_sq + (2/3)(b - a) gamma)), divided through by gamma on under/overflow."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m: must be an integer >= 1, got {m!r}")
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma <= 0:
        raise ValueError(f"gamma: must be finite and > 0, got {gamma!r}")
    sigma_sq = float(sigma_sq)
    if not math.isfinite(sigma_sq) or sigma_sq < 0:
        raise ValueError(f"sigma_sq: must be finite and >= 0, got {sigma_sq!r}")
    range_width = float(range_width)
    if not math.isfinite(range_width) or range_width <= 0:
        raise ValueError(f"range_width: must be finite and > 0, got {range_width!r}")
    denominator = 2.0 * sigma_sq + (2.0 / 3.0) * range_width * gamma
    exponent = (m * gamma * gamma) / denominator if denominator else math.nan
    if math.isnan(exponent):  # the denominator underflows, or it and m * gamma^2 overflow
        exponent = m * gamma / (2.0 * (sigma_sq / gamma) + (2.0 / 3.0) * range_width)
    return math.exp(-exponent)


def pava(values: Sequence[float], weights: Sequence[float]) -> np.ndarray:
    """Weighted pool-adjacent-violators fit (non-decreasing)."""
    swv: list[float] = []  # per-block sum of weight * value
    sw: list[float] = []   # per-block sum of weight
    cnt: list[int] = []
    for v, w in zip(values, weights):
        swv.append(v * w)
        sw.append(w)
        cnt.append(1)
        # merge while the previous block mean exceeds the last one;
        # cross-multiplied form avoids division (weights are positive)
        while len(swv) > 1 and swv[-2] * sw[-1] > swv[-1] * sw[-2]:
            top_swv, top_sw, top_cnt = swv.pop(), sw.pop(), cnt.pop()
            swv[-1] += top_swv
            sw[-1] += top_sw
            cnt[-1] += top_cnt
    return np.repeat(np.divide(swv, sw), cnt)


def tau05_from_scores(scores: Sequence[float], accepts: Sequence[float]) -> float:
    """tau_05 as the first argmin of S_k = sum_{j >= k} (N_j - 2 A_j), S = 0 past the end.

    N_k and A_k are the records and accepts at or above the k-th distinct score.
    """
    s = np.asarray(scores, dtype=float)
    a = np.asarray(accepts)
    if s.size == 0:
        raise ValueError("scores: must be non-empty")
    if s.shape != a.shape:
        raise ValueError(f"accepts: expected {s.size} entries, got {a.size}")
    accepted = a == 1
    if not np.all(accepted | (a == 0)):
        raise ValueError("accepts: must be 0 or 1")
    uniq, inverse = np.unique(s, return_inverse=True)
    tail_n = np.cumsum(np.bincount(inverse, minlength=uniq.size)[::-1])[::-1]
    tail_a = np.cumsum(np.bincount(inverse[accepted], minlength=uniq.size)[::-1])[::-1]
    level = np.append(np.cumsum((tail_n - 2 * tail_a)[::-1])[::-1], 0)  # S_0 .. S_m
    k = int(np.argmin(level))
    if k == uniq.size:
        peak = float(np.max(np.cumsum(tail_a[::-1]) / np.cumsum(tail_n[::-1])))
        raise ThresholdUnreachableError(
            f"fitted curve never reaches 0.5 (max fitted value {peak:.6g})"
        )
    return float(uniq[k])


def allocate_quotas(
    populations: Mapping[tuple[int, str], int],
    n_cal: int,
    bin_edges: Sequence[float],
    status_vocabulary: Sequence[str],
    overflows: list[tuple[int, str]] | None = None,
) -> StratificationPlan:
    """Largest-remainder quotas by the reallocation loop.

    A unit that goes to a cell whose remainder is 0, or that already has its
    extra unit, is a quota overflow: its cell is appended to ``overflows``.
    """
    edges = tuple(float(e) for e in bin_edges)
    vocab = tuple(status_vocabulary)
    n_bins = len(edges) - 1
    if n_bins < 1:
        raise ValueError("bin_edges: need at least 2 edges")
    keys = [(b, s) for b in range(n_bins) for s in vocab]
    key_set = set(keys)
    for key, pop in populations.items():
        if key not in key_set:
            raise ValueError(f"populations: unknown cell {key!r}")
        if not isinstance(pop, int) or pop < 0:
            raise ValueError(f"populations: cell {key!r} count must be an integer >= 0")
    pops = [populations.get(key, 0) for key in keys]
    total = sum(pops)
    if total < 1:
        raise ValueError("populations: pool is empty")
    if not isinstance(n_cal, int) or not 1 <= n_cal <= total:
        raise ValueError(f"n_cal: must be an integer in [1, {total}], got {n_cal!r}")

    base = [(n_cal * p) // total for p in pops]
    remainder = [(n_cal * p) % total for p in pops]
    quotas = list(base)
    leftover = n_cal - sum(base)
    order = sorted(range(len(keys)), key=lambda i: (-remainder[i], i))
    while leftover > 0:
        placed = False
        for i in order:
            if quotas[i] < pops[i]:
                if (remainder[i] == 0 or quotas[i] > base[i]) and overflows is not None:
                    overflows.append(keys[i])
                quotas[i] += 1
                leftover -= 1
                placed = True
                if leftover == 0:
                    break
        if not placed:
            raise ValueError("n_cal: exceeds total feasible capacity")

    cells = tuple(
        CellQuota(bin_index=b, status=s, population=p, quota=q)
        for (b, s), p, q in zip(keys, pops, quotas)
    )
    return StratificationPlan(bin_edges=edges, status_vocabulary=vocab, cells=cells)


def _get_name(obj: Mapping[str, Any], key: str) -> str:
    """A non-empty string without a line break (a character ``str.splitlines`` splits at) or a surrogate code point."""
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ValueError(f"field {key!r} must be a non-empty string")
    if value.splitlines() != [value]:
        raise ValueError(f"field {key!r} must not contain a line break")
    if any("\ud800" <= char <= "\udfff" for char in value):
        raise ValueError(f"field {key!r} must not contain a lone surrogate")
    return value


def _get_bool(obj: Mapping[str, Any], key: str) -> bool:
    value = obj.get(key)
    if not isinstance(value, bool):
        raise ValueError(f"field {key!r} must be a boolean")
    return value


def _finite(value: Any) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _review_fields(obj: Any) -> tuple[str, list[Any], bool, str]:
    """Reviewer, rubric values, flag and feedback of one review object."""
    if not isinstance(obj, dict):
        raise ValueError("each review must be a JSON object")
    reviewer = _get_name(obj, "reviewer")
    if "rubric" in obj:
        values = obj["rubric"]
        if not isinstance(values, list) or not values:
            raise ValueError("field 'rubric' must be a non-empty array of numbers")
        for k, v in enumerate(values):
            if type(v) not in (int, float):
                raise ValueError(f"field 'rubric[{k}]' must be a number")
        for k, v in enumerate(values):
            if not _finite(v):
                raise ValueError(f"values[{k}]: must be finite, got {v!r}")
    elif "overall" in obj:
        value = obj.get("overall")
        if type(value) not in (int, float):
            raise ValueError("field 'overall' must be a number")
        if not _finite(value):
            raise ValueError("field 'overall' must be finite")
        values = [value]
    else:
        raise ValueError("each review needs a 'rubric' array or an 'overall' number")
    flag = _get_bool(obj, "flag")
    feedback = obj.get("feedback", "")
    if not isinstance(feedback, str):
        raise ValueError("field 'feedback' must be a string")
    return reviewer, values, flag, feedback


def load_panel_table(path: str | Path) -> PanelTable:
    """A panel file read one line at a time; the first bad line raises RecordError.

    Each non-blank line goes through ``json.loads``; then its id, label,
    reviews and each review's fields are checked in order, and a repeated
    panel id is rejected.
    """
    ids, lines, counts, labels = [], [], [], []  # one entry per panel
    reviewer, values, criteria, flags, feedback = [], [], [], [], []  # per review
    codes: dict[str, int] = {}  # reviewer id -> code in order of first appearance
    seen: set[str] = set()
    for line_no, line in enumerate(reader._decode_text(path, reader._read_bytes(path)).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordError(f"{path}:{line_no}: invalid JSON: {exc.msg}") from None
        except RecursionError:
            raise RecordError(f"{path}:{line_no}: invalid JSON: nested too deeply") from None
        except ValueError:  # an integer past the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            raise RecordError(f"{path}:{line_no}: invalid JSON: integer has more than {limit} digits") from None
        try:
            if not isinstance(obj, dict):
                raise ValueError("each line must be a JSON object")
            submission_id = _get_name(obj, "id")
            label = obj.get("label")
            if label is not None and not isinstance(label, bool):
                raise ValueError("field 'label' must be a boolean or null")
            reviews = obj.get("reviews")
            if not isinstance(reviews, list):
                raise ValueError("field 'reviews' must be an array")
            fields = []
            for i, raw in enumerate(reviews):
                try:
                    fields.append(_review_fields(raw))
                except ValueError as exc:
                    raise ValueError(f"reviews[{i}]: {exc}") from None
        except ValueError as exc:
            raise RecordError(f"{path}:{line_no}: {exc}") from None
        if submission_id in seen:
            raise RecordError(f"{path}:{line_no}: duplicate panel id {submission_id!r}")
        seen.add(submission_id)
        ids.append(submission_id)
        lines.append(line_no)
        counts.append(len(fields))
        labels.append(label)
        for name, row, flag, text in fields:
            reviewer.append(codes.setdefault(name, len(codes)))
            values.extend(row)
            criteria.append(len(row))
            flags.append(flag)
            feedback.append(text)
    if not ids:
        raise RecordError(f"{path}: no records found")
    roster = sorted(codes)
    rank = np.empty(len(roster), dtype=np.intp)
    rank[[codes[name] for name in roster]] = np.arange(len(roster))
    widths = np.array(criteria, dtype=np.intp)
    width = int(widths.max(initial=0))
    rubric = np.full((len(widths), width), np.nan)
    rubric[np.arange(width) < widths[:, None]] = np.array(values, dtype=float)
    count_array = np.array(counts, dtype=np.intp)
    return PanelTable(
        path=str(path),
        ids=tuple(ids),
        lines=np.array(lines),
        counts=count_array,
        offsets=np.concatenate(([0], np.cumsum(count_array))),
        labels=np.array([label is True for label in labels]),
        labeled=np.array([label is not None for label in labels]),
        roster=tuple(roster),
        reviewer=rank[np.array(reviewer, dtype=np.intp)],
        rubric=rubric,
        criteria=widths,
        flags=np.array(flags, dtype=bool),
        feedback=tuple(feedback),
    )


def aligned_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Fixed-width text table laid out row by row: first column left-aligned, rest right-aligned."""
    table = [list(map(str, headers))] + [list(map(str, r)) for r in rows]
    n_cols = max(len(r) for r in table)
    for r in table:
        r.extend("" for _ in range(n_cols - len(r)))
    widths = [max(len(r[c]) for r in table) for c in range(n_cols)]
    lines = []
    for i, r in enumerate(table):
        cells = [
            r[c].ljust(widths[c]) if c == 0 else r[c].rjust(widths[c])
            for c in range(n_cols)
        ]
        lines.append("  ".join(cells).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def csv_text(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """CSV text of a header row and ``rows``, written by ``csv.writer`` (None as '')."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buffer.getvalue()
