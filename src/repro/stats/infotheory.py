"""Discrete information-theoretic quantities, coded-count based.

Structure-learning scores (BIC / mutual-information-based Chow–Liu) and
the PC / MMHC algorithms' conditional-independence tests all reduce to
the same primitive: *empirical counts of joint value configurations*.
This module owns that primitive — :func:`joint_code_counts`, a fused
``numpy.unique`` pass over integer-coded columns — and builds every
entropy / mutual-information / G-statistic variant on top of it, so
there is exactly one counting implementation shared by

- the value-level API below (``entropy``, ``mutual_information``, …,
  kept for callers holding plain hashable sequences; they factorize to
  codes first),
- the columnar structure-learning fast paths
  (:mod:`repro.bayesnet.structure`), which pass
  :class:`~repro.dataset.encoding.TableEncoding` code columns directly,
- the coded CPT fit (:meth:`repro.bayesnet.cpt.CPT.from_coded_counts`)
  and its sharded dispatch (:mod:`repro.exec.fit`).

Determinism contract: :func:`joint_code_counts` returns the distinct
configurations **in order of first appearance in the rows** — the same
order a ``collections.Counter`` built by a row walk would iterate — and
the entropy kernels accumulate in that order with the same scalar
operations, so the value-level results are bit-identical to the
dict-walking implementations they replaced.

All logarithms are natural unless noted.
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import numpy as np

#: fused joint codes must stay well inside int64
_FUSE_LIMIT = 2**62


# -- the shared counting kernel ---------------------------------------------------


def codes_of(values: Sequence[Hashable]) -> np.ndarray:
    """Factorize a hashable sequence into dense int64 codes.

    Codes are assigned in order of first appearance, so downstream
    first-appearance orderings coincide with the insertion order of a
    ``Counter`` over the same sequence.
    """
    code_of: dict[Hashable, int] = {}
    out = np.empty(len(values), dtype=np.int64)
    for i, v in enumerate(values):
        code = code_of.get(v)
        if code is None:
            code = len(code_of)
            code_of[v] = code
        out[i] = code
    return out


def _weighted_counts_firsts(
    inverse: np.ndarray,
    n_keys: int,
    row_counts: np.ndarray,
    row_firsts: np.ndarray | None,
    first_fallback: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce per-row multiplicities (and optional global first-row
    indices) onto distinct-key slots.

    Equivalent to counting each deduplicated input row ``row_counts``
    times: the counts are exact int64 sums (``np.bincount`` adds them
    as float64, exact below 2**53), and the first-appearance
    index of a configuration is the minimum ``row_firsts`` over the
    deduplicated rows that map to it (a configuration first appears in
    whichever of its carrier rows appeared first)."""
    counts = np.bincount(inverse, weights=row_counts, minlength=n_keys).astype(
        np.int64
    )
    if row_firsts is None:
        return counts, first_fallback
    first = np.full(n_keys, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(first, inverse, np.asarray(row_firsts, dtype=np.int64))
    return counts, first


def joint_code_counts(
    columns: Sequence[np.ndarray],
    row_counts: np.ndarray | None = None,
    row_firsts: np.ndarray | None = None,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, np.ndarray]:
    """Distinct joint configurations of coded columns, with counts.

    Parameters
    ----------
    columns:
        Equal-length arrays of non-negative integer codes (one per
        variable).
    row_counts:
        Optional per-row multiplicities: row ``i`` counts as
        ``row_counts[i]`` occurrences instead of one.  This is the
        sufficient-statistics entry point of the streaming fit
        (:mod:`repro.exec.fit_stream`): the rows are then the
        *deduplicated* rows of a larger stream, and the returned counts
        are exactly what the full stream would have produced.
    row_firsts:
        With ``row_counts``: the global first-appearance index of each
        deduplicated row in the original stream.  The returned
        ``first_rows`` are then global stream indices (and the entry
        order is the stream's first-appearance order), keeping every
        downstream insertion-order contract identical to a whole-table
        pass.

    Returns
    -------
    ``(uniq_cols, counts, first_rows)`` where ``uniq_cols[v][i]`` is the
    code of variable ``v`` in the i-th distinct configuration,
    ``counts[i]`` its occurrence count, and ``first_rows[i]`` the row of
    its first appearance.  Entries are ordered by ``first_rows``
    ascending (first-appearance order — the ``Counter`` insertion order
    of a row walk).

    The columns are fused into one mixed-radix int64 key when the joint
    code space fits; wider spaces fall back to a row-wise
    ``numpy.unique`` over the stacked columns (same result, no
    overflow).
    """
    cols = [np.asarray(c, dtype=np.int64) for c in columns]
    n = len(cols[0]) if cols else 0
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return tuple(empty for _ in cols), empty.copy(), empty.copy()
    weighted = row_counts is not None
    if weighted:
        row_counts = np.asarray(row_counts, dtype=np.int64)
    cards = [int(c.max()) + 1 for c in cols]
    span = 1
    for card in cards:
        span *= card
    if span <= _FUSE_LIMIT:
        fused = cols[0]
        for col, card in zip(cols[1:], cards[1:]):
            fused = fused * card + col
        if weighted:
            keys, first, inverse = np.unique(
                fused, return_index=True, return_inverse=True
            )
            counts, first = _weighted_counts_firsts(
                inverse, len(keys), row_counts, row_firsts, first
            )
        else:
            keys, first, counts = np.unique(
                fused, return_index=True, return_counts=True
            )
        order = np.argsort(first, kind="stable")
        keys, first, counts = keys[order], first[order], counts[order]
        parts = []
        for card in reversed(cards[1:]):
            parts.append(keys % card)
            keys = keys // card
        parts.append(keys)
        uniq = tuple(reversed(parts))
    else:  # pragma: no cover - needs >2^62 joint states; exercised via unit test
        stacked = np.column_stack(cols)
        if weighted:
            keys2d, first, inverse = np.unique(
                stacked, axis=0, return_index=True, return_inverse=True
            )
            counts, first = _weighted_counts_firsts(
                np.ravel(inverse), len(keys2d), row_counts, row_firsts, first
            )
        else:
            keys2d, first, counts = np.unique(
                stacked, axis=0, return_index=True, return_counts=True
            )
        order = np.argsort(first, kind="stable")
        keys2d, first, counts = keys2d[order], first[order], counts[order]
        uniq = tuple(keys2d[:, i] for i in range(keys2d.shape[1]))
    return uniq, counts, first


def n_distinct(*columns: np.ndarray) -> int:
    """Number of distinct joint configurations of the coded columns."""
    if not columns or len(columns[0]) == 0:
        return 0
    if len(columns) == 1:
        return len(np.unique(columns[0]))
    return len(joint_code_counts(columns)[1])


# -- coded entropies ---------------------------------------------------------------


def entropy_from_counts(counts: np.ndarray, n: int) -> float:
    """``Σ −p·log p`` over counts, accumulated in the given order.

    The loop runs over Python ints with ``math.log`` — element-for-
    element the operations of the ``Counter`` walk it replaces, so
    results are bit-identical when the count order matches.
    """
    if n == 0:
        return 0.0
    h = 0.0
    for c in np.asarray(counts).tolist():
        p = c / n
        h -= p * math.log(p)
    return h


def entropy_codes(
    *columns: np.ndarray, row_counts: np.ndarray | None = None
) -> float:
    """Empirical (joint) entropy of one or more coded columns, in nats.

    ``row_counts`` weights each row by an integer multiplicity (the
    deduplicated-stream form); the counts it produces are the identical
    int64 values a repeated-row pass would count, so the Python-int
    entropy accumulation below is bit-identical either way.
    """
    if not columns or len(columns[0]) == 0:
        return 0.0
    _, counts, _ = joint_code_counts(columns, row_counts=row_counts)
    n = (
        len(columns[0])
        if row_counts is None
        else int(np.asarray(row_counts, dtype=np.int64).sum())
    )
    return entropy_from_counts(counts, n)


def mutual_information_codes(
    x: np.ndarray, y: np.ndarray, row_counts: np.ndarray | None = None
) -> float:
    """Empirical mutual information of two coded columns (clamped ≥ 0)."""
    mi = (
        entropy_codes(x, row_counts=row_counts)
        + entropy_codes(y, row_counts=row_counts)
        - entropy_codes(x, y, row_counts=row_counts)
    )
    return max(0.0, mi)


def conditional_mutual_information_codes(
    x: np.ndarray,
    y: np.ndarray,
    zcols: Sequence[np.ndarray],
    row_counts: np.ndarray | None = None,
) -> float:
    """Empirical I(X; Y | Z) of coded columns, Z possibly multi-variable."""
    cmi = (
        entropy_codes(x, *zcols, row_counts=row_counts)
        + entropy_codes(y, *zcols, row_counts=row_counts)
        - entropy_codes(x, y, *zcols, row_counts=row_counts)
        - entropy_codes(*zcols, row_counts=row_counts)
    )
    return max(0.0, cmi)


def g_statistic_codes(
    x: np.ndarray,
    y: np.ndarray,
    zcols: Sequence[np.ndarray] | None = None,
    row_counts: np.ndarray | None = None,
) -> tuple[float, int]:
    """G-test statistic (2·N·I) and degrees of freedom, coded columns.

    With ``row_counts`` the rows are deduplicated-stream rows and ``N``
    is the total multiplicity, not the array length; degrees of freedom
    depend only on the distinct-value support, which deduplication
    preserves exactly.
    """
    n = (
        len(x)
        if row_counts is None
        else int(np.asarray(row_counts, dtype=np.int64).sum())
    )
    if not zcols:
        mi = mutual_information_codes(x, y, row_counts=row_counts)
        dof = max(1, (n_distinct(x) - 1) * (n_distinct(y) - 1))
    else:
        mi = conditional_mutual_information_codes(
            x, y, zcols, row_counts=row_counts
        )
        dof = max(
            1,
            (n_distinct(x) - 1)
            * (n_distinct(y) - 1)
            * max(1, n_distinct(*zcols)),
        )
    return 2.0 * n * mi, dof


# -- value-level API (delegates to the coded kernels) ------------------------------


def entropy(values: Sequence[Hashable]) -> float:
    """Empirical Shannon entropy H(X) in nats."""
    return entropy_codes(codes_of(values))


def joint_entropy(xs: Sequence[Hashable], ys: Sequence[Hashable]) -> float:
    """Empirical joint entropy H(X, Y)."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    return entropy_codes(codes_of(xs), codes_of(ys))


def mutual_information(xs: Sequence[Hashable], ys: Sequence[Hashable]) -> float:
    """Empirical mutual information I(X; Y) ≥ 0 (clamped at 0)."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    return mutual_information_codes(codes_of(xs), codes_of(ys))


def conditional_mutual_information(
    xs: Sequence[Hashable],
    ys: Sequence[Hashable],
    zs: Sequence[Hashable],
) -> float:
    """Empirical conditional mutual information I(X; Y | Z) ≥ 0."""
    if not (len(xs) == len(ys) == len(zs)):
        raise ValueError("sequences must have equal length")
    return conditional_mutual_information_codes(
        codes_of(xs), codes_of(ys), [codes_of(zs)]
    )


def g_statistic(
    xs: Sequence[Hashable],
    ys: Sequence[Hashable],
    zs: Sequence[Hashable] | None = None,
) -> tuple[float, int]:
    """G-test statistic (2·N·I) and degrees of freedom for a CI test.

    Used by the PC-algorithm baseline: under independence the statistic
    is asymptotically χ² with ``(|X|−1)(|Y|−1)·|Z|`` degrees of freedom.
    """
    return g_statistic_codes(
        codes_of(xs),
        codes_of(ys),
        None if zs is None else [codes_of(zs)],
    )


def normalized_mutual_information(
    xs: Sequence[Hashable], ys: Sequence[Hashable]
) -> float:
    """I(X;Y) / max(H(X), H(Y)) in [0, 1]; 0 when either is constant."""
    hx, hy = entropy(xs), entropy(ys)
    denom = max(hx, hy)
    if denom == 0.0:
        return 0.0
    return min(1.0, mutual_information(xs, ys) / denom)
