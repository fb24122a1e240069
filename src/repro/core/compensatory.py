"""The compensatory scoring model (§5, Eq. 2).

``Score_corr(c, t, A_j) = Σ_{A_k ≠ A_j} corr(c, t[A_k], A_j, A_k)``

plus a value-frequency term (§3 lists both "value frequency" and
"pairwise attribute correlation" as the ingredients of the compensatory
model).  The raw score is a sum of bounded correlations and can be
negative through the β penalty; since "the relative order is
significant, not the scores themselves" (§5), the engine maps scores of
one candidate competition onto (0, 1] before taking the logarithm
Algorithm 1 requires (``log(CS[A_j](c))``).

The scalar reference path walks one candidate at a time through
:meth:`~CompensatoryScorer.score`; the columnar kernel
(:mod:`repro.exec.state`) sums the same per-context ``corr`` terms for
a whole shard at once from the co-occurrence index's CSR-aligned
entries, and maps them to log space with
:func:`log_compensatory_segments`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.core.cooccurrence import CooccurrenceIndex
from repro.dataset.table import Cell


class CompensatoryScorer:
    """Computes Score_corr against a fitted co-occurrence index."""

    def __init__(
        self,
        index: CooccurrenceIndex,
        frequency_weight: float = 0.0,
    ):
        self.index = index
        self.frequency_weight = frequency_weight

    def score(
        self,
        candidate: Cell,
        row: Mapping[str, Cell],
        attribute: str,
        context_attributes: Sequence[str] | None = None,
        is_incumbent: bool = False,
        self_weight: float = 1.0,
    ) -> float:
        """Raw compensatory score of ``candidate`` for ``attribute``.

        Parameters
        ----------
        candidate:
            Candidate repair value c.
        row:
            The observed tuple (evidence t) as attribute → value.
        attribute:
            The attribute A_j being repaired.
        context_attributes:
            Which other attributes contribute correlation terms (Eq. 2
            sums over all of them).
        is_incumbent:
            True when the candidate *is* the observed cell value: its
            own row is then excluded from the correlation counts so
            self-co-occurrence does not masquerade as evidence.
        self_weight:
            The confidence weight the scored tuple contributed to
            Algorithm 2 (+1 when reliable, −β when not) — what the
            exclusion must remove.
        """
        if context_attributes is None:
            context_attributes = [a for a in self.index.names if a != attribute]
        total = 0.0
        for attr_k in context_attributes:
            if attr_k == attribute:
                continue
            total += self.index.corr(
                attribute, candidate, attr_k, row[attr_k],
                exclude_self=is_incumbent,
                self_weight=self_weight,
            )
        if self.frequency_weight and self.index.n_rows:
            freq = self.index.count(attribute, candidate) / self.index.n_rows
            total += self.frequency_weight * freq
        return total


def log_compensatory(
    scores: Mapping[Cell, float], smoothing: float = 0.05
) -> dict[Cell, float]:
    """Map raw scores of one candidate competition to log-space.

    Raw Score_corr values act as pseudo-counts: each candidate gets
    ``CS(c) = (max(s(c), 0) + smoothing) / (max_s + smoothing)`` and the
    log of that ratio is Algorithm 1's ``log(CS[A_j](c))`` term.

    The *absolute* smoothing constant is the load-bearing design choice:
    when the whole competition's scores are tiny (no real co-occurrence
    evidence, e.g. a near-unique attribute), all ratios approach 1 and
    the term contributes nothing — the BN term decides.  When scores are
    large (strong co-occurrence signal), the ratios separate by orders
    of magnitude and the compensatory term dominates, which is exactly
    the error-amplification correction of §5, Example 2.  A *relative*
    rescaling would amplify meaningless near-ties into repair-triggering
    gaps.
    """
    if not scores:
        return {}
    if smoothing <= 0:
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    clipped = {c: max(s, 0.0) for c, s in scores.items()}
    peak = max(clipped.values())
    denom = peak + smoothing
    return {
        c: math.log((s + smoothing) / denom) for c, s in clipped.items()
    }


def log_compensatory_segments(
    scores: np.ndarray, starts: np.ndarray, smoothing: float = 0.05
) -> np.ndarray:
    """Vectorised :func:`log_compensatory` over many competitions at
    once: competition ``i``'s pool is the segment of ``scores`` from
    ``starts[i]`` to the next start (every segment non-empty).  Each
    element sees exactly the scalar arithmetic, so the result is
    independent of how competitions are grouped."""
    if smoothing <= 0:
        raise ValueError(f"smoothing must be positive, got {smoothing}")
    if len(scores) == 0:
        return np.zeros(0, dtype=np.float64)
    clipped = np.maximum(scores, 0.0)
    denom = np.maximum.reduceat(clipped, starts) + smoothing
    lengths = np.diff(np.append(starts, len(scores)))
    return np.log((clipped + smoothing) / np.repeat(denom, lengths))
