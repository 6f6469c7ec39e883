"""Stratified subsampling of a calibration pool: score bins crossed with review status.

A plan gives each (score bin, status) cell a quota by largest remainders;
each cell's quota is drawn uniformly without replacement.  Every function
checks its bin edges (``rules.increasing_edges``) and its status
vocabulary (``vocabulary``) before it bins a record.  ``calibrate``
exports these names and imports this module on first use of one, which
only a ``calibrate`` run with a ``stratify`` config makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .calibrate import Pool, _table
from .rules import _fail, increasing_edges, integer, sequence, text
from .tables import CalibrationTable

__all__ = [
    "CellQuota",
    "StratificationPlan",
    "cell_populations",
    "allocate_quotas",
    "stratified_sample",
    "stratify",
]


def vocabulary(words: Iterable[Any]) -> tuple[str, ...]:
    """``words`` as a status vocabulary: a sequence (a string is not one), at least one word, each a non-empty
    string, no two equal."""
    words = tuple(sequence("status_vocabulary", words, "strings", non_empty=True))
    if not all(isinstance(word, str) and word for word in words):
        _fail("status_vocabulary", "entries must be non-empty strings")
    if len(set(words)) != len(words):
        _fail("status_vocabulary", "entries must be unique")
    return words


@dataclass(frozen=True)
class CellQuota:
    """Allocation for one (score bin, status) cell."""

    bin_index: int
    status: str
    population: int
    quota: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bin_index", integer("bin_index", self.bin_index, 0))
        text("status", self.status)
        object.__setattr__(self, "population", integer("population", self.population, 0))
        object.__setattr__(self, "quota", integer("quota", self.quota, 0, self.population))


@dataclass(frozen=True)
class StratificationPlan:
    """Bin edges, status vocabulary, and per-cell quotas for subsampling."""

    bin_edges: tuple[float, ...]
    status_vocabulary: tuple[str, ...]
    cells: tuple[CellQuota, ...]

    def __post_init__(self) -> None:
        edges = increasing_edges("bin_edges", self.bin_edges)
        vocab = vocabulary(self.status_vocabulary)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "status_vocabulary", vocab)
        object.__setattr__(self, "cells", tuple(sequence("cells", self.cells, "cell quotas")))
        n_bins = len(edges) - 1
        seen: set[tuple[int, str]] = set()
        for cell in self.cells:
            if cell.bin_index >= n_bins:
                raise ValueError(
                    f"cells: bin_index {cell.bin_index} out of range for {n_bins} bins"
                )
            if cell.status not in vocab:
                raise ValueError(f"cells: status {cell.status!r} not in vocabulary")
            key = (cell.bin_index, cell.status)
            if key in seen:
                raise ValueError(f"cells: duplicate cell {key}")
            seen.add(key)
        if self.n_cal < 1:
            raise ValueError("cells: quotas must sum to at least 1")

    @property
    def n_cal(self) -> int:
        return sum(cell.quota for cell in self.cells)


def _cell_members(
    field: str,
    records: Pool,
    edges: Sequence[float],
    status_vocabulary: Sequence[str],
) -> dict[tuple[int, str], np.ndarray]:
    """Indices of the records, the argument ``field``, in each (score bin, status) cell, in record order."""
    edges = increasing_edges("bin_edges", edges)
    vocab = list(vocabulary(status_vocabulary))
    table = _table(field, records)
    statuses, codes = table.statuses, {s: k for k, s in enumerate(vocab)}
    known = np.array([codes.get(s, -1) for s in statuses.strings], dtype=np.intp)  # each distinct status once
    status = known if statuses.codes is None else known[statuses.codes]
    scores = table.scores
    outside = (scores < edges[0]) | (scores > edges[-1])
    bad = np.flatnonzero((status < 0) | outside)
    if bad.size:
        i = int(bad[0])
        if status[i] < 0:
            raise ValueError(f"{table.where(i)}: status {statuses[i]!r} not in status_vocabulary {vocab}")
        raise ValueError(f"{table.where(i)}: score {float(scores[i])} outside bin_edges [{edges[0]}, {edges[-1]}]")
    # bins are [e_i, e_{i+1}) except the last, which includes its upper edge
    bins = np.searchsorted(np.asarray(edges, dtype=float), scores, side="right") - 1
    cell = np.minimum(bins, len(edges) - 2) * len(vocab) + status
    # a stable sort of the codes in the smallest unsigned dtype that holds them is numpy's radix sort
    order = np.argsort(cell.astype(np.min_scalar_type((len(edges) - 1) * len(vocab) - 1)), kind="stable")
    ordered = cell[order]
    starts = np.flatnonzero(np.diff(ordered, prepend=-1))  # each cell's first member in the sorted codes
    return {
        (int(key) // len(vocab), vocab[int(key) % len(vocab)]): members
        for key, members in zip(ordered[starts], np.split(order, starts[1:]))
    }


def cell_populations(
    records: Pool,
    bin_edges: Sequence[float],
    status_vocabulary: Sequence[str],
) -> dict[tuple[int, str], int]:
    """Count pool records per (score bin, status) cell."""
    members = _cell_members("records", records, bin_edges, status_vocabulary)
    return {key: len(idx) for key, idx in members.items()}


def allocate_quotas(
    populations: Mapping[tuple[int, str], int],
    n_cal: int,
    bin_edges: Sequence[float],
    status_vocabulary: Sequence[str],
) -> StratificationPlan:
    """Largest-remainder allocation of ``n_cal`` across cells.

    Each cell's ideal share is its population fraction times ``n_cal``;
    cells receive the floor of their share and the leftover units go to
    the largest remainders (ties broken by bin index, then status order).
    """
    edges = increasing_edges("bin_edges", bin_edges)
    vocab = vocabulary(status_vocabulary)
    n_bins = len(edges) - 1
    keys = [(b, s) for b in range(n_bins) for s in vocab]
    key_set = set(keys)
    for key in populations:
        if key not in key_set:
            raise ValueError(f"populations: unknown cell {key!r}")
    pops = [integer(f"populations[{key!r}]", populations.get(key, 0), 0) for key in keys]
    total = sum(pops)
    if total < 1:
        raise ValueError("populations: pool is empty")
    n_cal = integer("n_cal", n_cal, 1, total)

    # integer arithmetic keeps remainder comparisons exact
    quotas = [(n_cal * p) // total for p in pops]
    remainder = [(n_cal * p) % total for p in pops]
    # One unit to each of the first ``leftover`` cells by (-remainder, index)
    # always fits.  leftover = sum(remainder) / total and each remainder is
    # below total, so fewer units are left over than there are cells with a
    # nonzero remainder, and those cells come first.  Such a cell's share
    # n_cal * p / total is not an integer and, as n_cal <= total, at most p,
    # so its floor is below its population.
    leftover = n_cal - sum(quotas)
    for i in sorted(range(len(keys)), key=lambda i: (-remainder[i], i))[:leftover]:
        quotas[i] += 1

    cells = tuple(
        CellQuota(bin_index=b, status=s, population=p, quota=q)
        for (b, s), p, q in zip(keys, pops, quotas)
    )
    return StratificationPlan(bin_edges=edges, status_vocabulary=vocab, cells=cells)


def stratified_sample(pool: Pool, plan: StratificationPlan, seed: int) -> Pool:
    """Draw each cell's quota uniformly without replacement, deterministically.

    Returns the selected records in pool order.  The plan must be feasible:
    every cell's quota has to fit inside the pool's actual cell population.
    """
    members = _cell_members("pool", pool, plan.bin_edges, plan.status_vocabulary)
    return _draw(pool, members, plan, seed)


def stratify(
    pool: Pool,
    n_cal: int,
    bin_edges: Sequence[float],
    status_vocabulary: Sequence[str],
    seed: int,
) -> tuple[StratificationPlan, Pool]:
    """Plan and draw a stratified sample; returns (plan, sample).

    Same as ``allocate_quotas`` on ``cell_populations``, then
    ``stratified_sample``, but bins the pool once.
    """
    members = _cell_members("pool", pool, bin_edges, status_vocabulary)
    populations = {key: len(idx) for key, idx in members.items()}
    plan = allocate_quotas(populations, n_cal, bin_edges, status_vocabulary)
    return plan, _draw(pool, members, plan, seed)


def _draw(pool: Pool, members: Mapping[tuple[int, str], np.ndarray], plan: StratificationPlan, seed: int) -> Pool:
    """The pool's records of each cell's quota of its members, drawn with ``seed``, an integer >= 0, in pool
    order, as a table or a list like the pool."""
    rng = np.random.default_rng(integer("seed", seed, 0))
    chosen: list[np.ndarray] = []
    for cell in plan.cells:
        available = members.get((cell.bin_index, cell.status), np.empty(0, dtype=np.intp))
        if cell.quota > len(available):
            raise ValueError(
                f"cells: quota {cell.quota} exceeds pool population {len(available)} "
                f"in cell {(cell.bin_index, cell.status)}"
            )
        if cell.quota == 0:
            continue
        chosen.append(available[rng.choice(len(available), size=cell.quota, replace=False)])
    indices = np.sort(np.concatenate(chosen))
    return pool.take(indices) if isinstance(pool, CalibrationTable) else [pool[i] for i in indices.tolist()]
