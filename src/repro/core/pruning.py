"""Pruning strategies (§6.2): tuple pruning and TF-IDF domain pruning.

*Tuple pruning* (pre-detection) skips cells that co-occur strongly with
the rest of their tuple:

``Filter(T, A_i) = (1/(m−1)) Σ_{A_j ≠ A_i} count(T[A_i], T[A_j]) / count(T[A_j])``

— cells scoring at least ``τ_clean`` are deemed reliable and bypassed.

*Domain pruning* treats each sub-network as a semantic space (a cloze
test): every candidate v is weighted by

``score(v) = TF(v, context) · IDF(v, D) = context(v) · log(|D| / (1 + count(v, D)))``

where ``context(v)`` counts the sub-network attributes whose observed
value co-occurs with v; only the top-k candidates survive.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.cooccurrence import CooccurrenceIndex
from repro.dataset.table import Cell


def tuple_filter_scores_all_rows(
    index: CooccurrenceIndex, attribute: str
) -> np.ndarray:
    """``Filter(T, A_i)`` for every table row at once — the batched form
    of :func:`tuple_filter_score` the columnar engine path uses to skip
    reliable cells before any competition is materialised."""
    others = [a for a in index.names if a != attribute]
    if not others:
        return np.ones(index.n_rows, dtype=np.float64)
    total = np.zeros(index.n_rows, dtype=np.float64)
    for attr_j in others:
        denom = index.counts_array(attr_j)[index.encoding.codes(attr_j)]
        pair = index.rowwise_pair_counts(attribute, attr_j)
        total += np.where(denom > 0, pair / np.maximum(denom, 1), 0.0)
    return total / len(others)


def tuple_filter_scores_coded(
    index: CooccurrenceIndex,
    attribute: str,
    codes_mat: np.ndarray,
    names: Sequence[str],
) -> np.ndarray:
    """``Filter(T, A_i)`` for every row of an arbitrary coded matrix —
    the foreign-table form of :func:`tuple_filter_scores_all_rows`,
    where codes the statistics never saw (incrementally extended
    vocabularies) count 0 like unseen values on the value path."""
    j = list(names).index(attribute)
    others = [k for k in range(len(names)) if k != j]
    if not others:
        return np.ones(len(codes_mat), dtype=np.float64)
    total = np.zeros(len(codes_mat), dtype=np.float64)
    for k in others:
        denom = index.counts_for(names[k], codes_mat[:, k])
        pair = index.pair_counts_rows(
            attribute, codes_mat[:, j], names[k], codes_mat[:, k]
        )
        total += np.where(denom > 0, pair / np.maximum(denom, 1), 0.0)
    return total / len(others)


def tuple_filter_score(
    index: CooccurrenceIndex,
    row: Mapping[str, Cell],
    attribute: str,
) -> float:
    """``Filter(T, A_i)`` of §6.2 — mean conditional co-occurrence."""
    others = [a for a in index.names if a != attribute]
    if not others:
        return 1.0
    value = row[attribute]
    total = 0.0
    for attr_j in others:
        denom = index.count(attr_j, row[attr_j])
        if denom <= 0:
            continue
        total += index.pair_count(attribute, value, attr_j, row[attr_j]) / denom
    return total / len(others)


def should_skip_cell(
    index: CooccurrenceIndex,
    row: Mapping[str, Cell],
    attribute: str,
    tau_clean: float,
) -> bool:
    """Pre-detection verdict: True when the cell looks reliable enough
    to bypass inference in this pass."""
    return tuple_filter_score(index, row, attribute) >= tau_clean


class DomainPruner:
    """TF-IDF candidate pruning inside one sub-network."""

    def __init__(self, index: CooccurrenceIndex, top_k: int = 24):
        self.index = index
        self.top_k = top_k
        self._n = max(1, index.n_rows)

    def tfidf(
        self,
        candidate: Cell,
        row: Mapping[str, Cell],
        attribute: str,
        context_attributes: Sequence[str],
    ) -> float:
        """``score(v) = context(v) · log(|D| / (1 + count(v, D)))``."""
        context = 0
        for attr_k in context_attributes:
            if attr_k == attribute:
                continue
            if self.index.pair_count(attribute, candidate, attr_k, row[attr_k]) > 0:
                context += 1
        if context == 0:
            return 0.0
        idf = math.log(self._n / (1 + self.index.count(attribute, candidate)))
        # Rare-but-contextual values win; clamp negative IDF (values more
        # frequent than |D|/e) to a small positive floor so frequent
        # correct values are not zeroed out entirely.
        return context * max(idf, 1e-3)

    def prune(
        self,
        candidates: Sequence[Cell],
        row: Mapping[str, Cell],
        attribute: str,
        context_attributes: Sequence[str],
        keep: Sequence[Cell] = (),
    ) -> list[Cell]:
        """The top-k candidates by TF-IDF, always retaining ``keep``.

        ``keep`` lets the engine preserve the incumbent cell value so
        Algorithm 1's initialisation (c* = T_i[A_j]) survives pruning.
        """
        scored = sorted(
            candidates,
            key=lambda c: self.tfidf(c, row, attribute, context_attributes),
            reverse=True,
        )
        kept = scored[: self.top_k]
        present = set(map(_safe_key, kept))
        for k in keep:
            if _safe_key(k) not in present:
                kept.append(k)
                present.add(_safe_key(k))
        return kept

    def tfidf_codes(
        self, attribute: str, codes: np.ndarray, context: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`tfidf` over coded candidates, given each
        one's context count (how many context attributes' observed
        values it co-occurs with)."""
        counts = self.index.counts_array(attribute)[codes]
        idf = np.log(self._n / (1 + counts))
        return context * np.maximum(idf, 1e-3)


def _safe_key(value: Cell) -> object:
    from repro.bayesnet.cpt import cell_key

    return cell_key(value)
