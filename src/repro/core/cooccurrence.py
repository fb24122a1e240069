"""Co-occurrence statistics (Algorithm 2 of the paper), columnar.

One vectorised pass over the *integer-coded* table builds, for every
ordered attribute pair ``(A_i, A_k)``, sorted arrays of value-pair
statistics:

- ``raw``: plain co-occurrence counts (used by the tuple-pruning filter
  and TF-IDF domain pruning, §6.2),
- ``weighted``: confidence-weighted counts where a reliable tuple
  (conf ≥ τ) contributes +1 and an unreliable one −β (the ``corr``
  accumulator of Algorithm 2).

Each ordered pair's two value codes are fused into a single integer
(``code_a * card_b + code_b``); ``numpy.unique`` over the fused column
yields the distinct pairs, their raw counts, and the row of first
occurrence, and ``numpy.bincount`` accumulates the confidence weights.
Queries run as ``searchsorted`` probes over the sorted fused keys —
batched over whole candidate pools — and a CSR-style inverted index per
pair (candidate codes grouped by context code, in order of first
appearance) replaces the lazy dict cache behind
:meth:`CooccurrenceIndex.cooccurring_values`.

The original value-level API (``corr``, ``pair_count``,
``cooccurring_values``) is preserved on top of the arrays; value
arguments are interned through the shared
:class:`~repro.dataset.encoding.TableEncoding`.  Querying
``corr(c, e, A_j, A_k)`` divides by |D| as in the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.dataset.encoding import NULL_CODE, UNSEEN_CODE, TableEncoding
from repro.dataset.table import Cell, Table


class PairArrays:
    """Sorted fused-key statistics of one ordered attribute pair."""

    __slots__ = (
        "card_b",
        "keys",
        "raw",
        "weighted",
        "first_row",
        "_csr",
        "_csr_entries",
        "_raw_dict",
        "_weighted_dict",
        "_values_cache",
        "count_profiles",
        "count_probes",
    )

    def __init__(
        self,
        card_b: int,
        keys: np.ndarray,
        raw: np.ndarray,
        weighted: np.ndarray,
        first_row: np.ndarray,
    ):
        self.card_b = card_b
        self.keys = keys
        self.raw = raw
        self.weighted = weighted
        self.first_row = first_row
        self._csr: tuple[np.ndarray, np.ndarray] | None = None
        # Per-entry statistics aligned with the CSR candidates (raw count
        # and no-exclusion corr of each listed pair) — what the
        # shard-level competition kernel gathers; built by
        # :meth:`CooccurrenceIndex.csr_entries`.
        self._csr_entries: tuple[np.ndarray, ...] | None = None
        # Lazy dict views for single-pair probes: a dict get beats a
        # numpy scalar searchsorted by ~30×, and the scalar reference
        # path probes one pair at a time.
        self._raw_dict: dict[int, int] | None = None
        self._weighted_dict: dict[int, float] | None = None
        self._values_cache: dict[int, list] | None = None
        # Dense per-context count profiles (keyed by context code) for
        # :meth:`CooccurrenceIndex.pair_counts_for`: one vector over
        # *all* codes of attribute a, built only once a context's probe
        # tally exceeds two — so an id-like context probed once keeps
        # taking direct pool-sized probes and the cache stays
        # O(repeated contexts).
        self.count_profiles: dict[int, np.ndarray] = {}
        self.count_probes: dict[int, int] = {}

    def raw_count(self, fused: int) -> int:
        """Raw count of one fused pair code (dict-backed probe)."""
        if self._raw_dict is None:
            self._raw_dict = dict(zip(self.keys.tolist(), self.raw.tolist()))
        return self._raw_dict.get(fused, 0)

    def weighted_count(self, fused: int) -> float:
        """Weighted count of one fused pair code (dict-backed probe)."""
        if self._weighted_dict is None:
            self._weighted_dict = dict(
                zip(self.keys.tolist(), self.weighted.tolist())
            )
        return self._weighted_dict.get(fused, 0.0)

    def values_cache(self) -> dict[int, list]:
        """Per-context decoded-value lists (cooccurring_values memo)."""
        if self._values_cache is None:
            self._values_cache = {}
        return self._values_cache

    def lookup(self, fused: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(index into the stat arrays, hit mask) for fused query keys."""
        idx = np.searchsorted(self.keys, fused)
        idx_clipped = np.minimum(idx, len(self.keys) - 1) if len(self.keys) else idx
        if len(self.keys) == 0:
            return idx, np.zeros(len(fused), dtype=bool)
        hit = self.keys[idx_clipped] == fused
        return idx_clipped, hit

    def __getstate__(self) -> tuple:
        """Pickle only the built statistics; the lazy caches (dict views,
        CSR index and its aligned entries, dense profiles, probe
        tallies) are per-process accelerations that worker processes
        rebuild on demand."""
        return (self.card_b, self.keys, self.raw, self.weighted, self.first_row)

    def __setstate__(self, state: tuple) -> None:
        self.__init__(*state)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Inverted index: ``(starts, candidates)`` where the slice
        ``candidates[starts[b]:starts[b+1]]`` lists the non-NULL codes of
        attribute *a* co-occurring with context code ``b``, in order of
        first appearance of the pair in the data (the insertion order of
        the original dict build, which downstream tie-breaking relies
        on)."""
        if self._csr is None:
            order = np.argsort(self.first_row, kind="stable")
            keys = self.keys[order]
            code_a = keys // self.card_b
            code_b = keys % self.card_b
            keep = code_a != NULL_CODE
            code_a, code_b = code_a[keep], code_b[keep]
            group = np.argsort(code_b, kind="stable")
            starts = np.searchsorted(
                code_b[group], np.arange(self.card_b + 1)
            ).astype(np.int64)
            self._csr = (starts, code_a[group])
        return self._csr

    def __len__(self) -> int:
        return len(self.keys)


def confidence_weights(
    confidences: Sequence[float] | None,
    tau: float,
    beta: float,
    n_rows: int,
) -> np.ndarray:
    """Algorithm 2's per-row accumulator weights: +1 for reliable tuples
    (conf ≥ τ), −β otherwise; all-ones when no confidences exist."""
    if confidences is None:
        return np.ones(n_rows, dtype=np.float64)
    return np.where(
        np.asarray(confidences, dtype=np.float64) >= tau, 1.0, -beta
    )


def weighted_pair_counts(
    inverse: np.ndarray,
    raw: np.ndarray,
    weights: np.ndarray,
    row_counts: np.ndarray | None = None,
) -> np.ndarray:
    """Algorithm 2's weighted count per distinct pair, in the canonical
    form ``n_reliable − β·n_unreliable``.

    ``inverse`` maps each row to its pair and ``raw`` holds the pairs'
    raw counts; ``weights`` are the rows' :func:`confidence_weights`
    (+1 reliable, −β otherwise) and ``row_counts`` optional row
    multiplicities.  Counting each class as an exact integer first
    makes the result independent of row order and of duplicate folding,
    so the whole-table and streamed builds agree bit for bit for
    *every* β — a running float sum of a non-dyadic −β (say 0.3) rounds
    differently once duplicates are folded into ``row_counts · weight``.
    For the default dyadic β both forms are exact and equal.
    """
    reliable = weights == 1.0
    mult = 1 if row_counts is None else row_counts
    n_reliable = np.bincount(
        inverse, weights=np.where(reliable, mult, 0), minlength=len(raw)
    )
    penalties = -weights[~reliable]
    if not len(penalties):
        return n_reliable
    beta = penalties[0]
    if np.any(penalties != beta):
        raise ValueError("weights must take the two values +1 and -beta")
    return n_reliable - beta * (raw - n_reliable)


def build_pair_arrays(
    codes_a: np.ndarray,
    card_a: int,
    codes_b: np.ndarray,
    card_b: int,
    weights: np.ndarray,
    row_counts: np.ndarray | None = None,
    row_firsts: np.ndarray | None = None,
) -> tuple[PairArrays, PairArrays]:
    """Build both directions of one attribute pair's statistics.

    One fused ``numpy.unique`` pass over the rows yields the forward
    ``(a, b)`` arrays; the reverse ``(b, a)`` direction is derived by
    re-fusing the distinct pairs — no second pass.  This is the unit of
    work the sharded parallel fit (:mod:`repro.exec.fit`) dispatches per
    attribute pair; the serial build calls it in a loop, so both paths
    are byte-identical by construction.

    The rows may be the *distinct* rows of a streamed fit
    (:mod:`repro.exec.fit_stream`): row ``i`` then stands for
    ``row_counts[i]`` stream rows, first seen at global index
    ``row_firsts[i]``, with one per-row confidence weight ``weights[i]``
    (tuple confidence is a pure function of the row's values).  The
    outputs are **byte-identical** to building over the full stream:
    raw counts are multiplicity sums (``np.bincount``, exact below
    2**53), weighted counts take the canonical form of
    :func:`weighted_pair_counts`, and first rows are global stream
    indices (``np.minimum.at`` over ``row_firsts``), preserving the
    first-appearance orders downstream tie-breaking relies on.
    """
    fused = codes_a * card_b + codes_b
    keys, first, inverse = np.unique(fused, return_index=True, return_inverse=True)
    inverse = np.ravel(inverse)
    raw = np.bincount(inverse, weights=row_counts, minlength=len(keys)).astype(
        np.int64, copy=False
    )
    weighted = weighted_pair_counts(inverse, raw, weights, row_counts)
    if row_firsts is not None:
        first = np.full(len(keys), np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(first, inverse, np.asarray(row_firsts, dtype=np.int64))
    forward = PairArrays(card_b, keys, raw, weighted, first)
    rev = (keys % card_b) * card_a + keys // card_b
    order = np.argsort(rev)
    reverse = PairArrays(
        card_a, rev[order], raw[order], weighted[order], first[order]
    )
    return forward, reverse


class CooccurrenceIndex:
    """All pairwise value co-occurrence statistics of a table.

    Parameters
    ----------
    table:
        Observed (dirty) dataset D.
    confidences:
        Per-tuple confidence values (Eq. 3).  ``None`` treats every
        tuple as fully reliable — the BClean-UC setting, where no
        constraints exist to down-weight anything.
    tau:
        Reliability threshold of Algorithm 2.
    beta:
        Penalty weight of unreliable tuples.
    encoding:
        Optional pre-built interning of ``table`` (shared with the other
        columnar components); built internally when omitted.
    pair_arrays:
        Optional precomputed per-pair statistics — one
        :class:`PairArrays` per *ordered* attribute pair, exactly as
        :func:`build_pair_arrays` produces them (the sharded parallel
        fit passes these).  When given, they must have been built from
        this table's coded columns and ``confidences`` weights; the
        serial per-pair loop is skipped.
    row_counts / row_firsts / n_rows:
        Deduplicated-stream form (:mod:`repro.exec.fit_stream`):
        ``table`` then holds the stream's distinct rows, row ``i``
        counted ``row_counts[i]`` times and first seen at global index
        ``row_firsts[i]``, out of ``n_rows`` total stream rows.  Every
        stored statistic (marginal counts, raw/weighted pair counts,
        first rows) is then byte-identical to building over the full
        stream.
    """

    def __init__(
        self,
        table: Table,
        confidences: Sequence[float] | None = None,
        tau: float = 0.5,
        beta: float = 2.0,
        encoding: TableEncoding | None = None,
        pair_arrays: dict[tuple[str, str], PairArrays] | None = None,
        row_counts: np.ndarray | None = None,
        row_firsts: np.ndarray | None = None,
        n_rows: int | None = None,
    ):
        self.n_rows = int(n_rows) if n_rows is not None else table.n_rows
        self.names = table.schema.names
        self.encoding = encoding if encoding is not None else TableEncoding(table)
        m = len(self.names)

        weights = confidence_weights(confidences, tau, beta, table.n_rows)
        self.row_weights = weights

        self._counts: dict[str, np.ndarray] = {
            a: np.bincount(
                self.encoding.codes(a),
                weights=row_counts,
                minlength=self.encoding.card(a),
            ).astype(np.int64, copy=False)
            for a in self.names
        }

        if pair_arrays is not None:
            expected = {
                (self.names[j], self.names[k])
                for j in range(m)
                for k in range(m)
                if j != k
            }
            if set(pair_arrays) != expected:
                raise ValueError(
                    "pair_arrays must cover every ordered attribute pair"
                )
            self._pair = dict(pair_arrays)
            return

        self._pair = {}
        for j in range(m):
            a = self.names[j]
            codes_a = self.encoding.codes(a)
            card_a = self.encoding.card(a)
            for k in range(j + 1, m):
                b = self.names[k]
                built = build_pair_arrays(
                    codes_a,
                    card_a,
                    self.encoding.codes(b),
                    self.encoding.card(b),
                    weights,
                    row_counts,
                    row_firsts,
                )
                self._pair[(a, b)], self._pair[(b, a)] = built

    # -- code-level queries ---------------------------------------------------------

    def pair_stats(self, attr_a: str, attr_b: str) -> PairArrays | None:
        """The raw sorted-fused-key statistics of one ordered pair
        (``None`` for unknown attributes or ``attr_a == attr_b``).  The
        coded CPT fit re-slices these for single-parent families."""
        return self._pair.get((attr_a, attr_b))

    def counts_array(self, attribute: str) -> np.ndarray:
        """Marginal count per code of ``attribute`` (NULL code included)."""
        return self._counts[attribute]

    def counts_for(self, attribute: str, codes: np.ndarray) -> np.ndarray:
        """Marginal counts of ``codes`` — safe for codes the build never
        saw (``UNSEEN_CODE`` or incrementally extended vocabularies):
        those count 0."""
        counts = self._counts[attribute]
        if len(codes) == 0 or (
            int(codes.min()) >= 0 and int(codes.max()) < len(counts)
        ):
            return counts[codes]
        in_range = (codes >= 0) & (codes < len(counts))
        return np.where(in_range, counts[np.where(in_range, codes, 0)], 0)

    def _count_values(
        self, stats: PairArrays, codes_a: np.ndarray, code_b: int
    ) -> np.ndarray:
        """Raw counts of ``(codes_a[i], code_b)`` by direct probe."""
        idx, hit = stats.lookup(codes_a * stats.card_b + code_b)
        return np.where(hit, stats.raw[idx], 0)

    def _corr_values(
        self,
        attr_a: str,
        codes_a: np.ndarray,
        weighted: np.ndarray,
        n_context: np.ndarray,
    ) -> np.ndarray:
        """:meth:`corr` of stored pairs, elementwise and without
        self-exclusion: ``weighted`` and ``n_context`` (≥ 1 for every
        stored pair) are aligned with ``codes_a``."""
        # Clamping non-positive weighted counts to 0 reproduces the
        # scalar early return: their p̂ becomes 0 and the final
        # max(0, ·) lands on exactly 0.
        weighted = np.maximum(weighted, 0.0)
        p_hat = weighted / n_context
        capped = np.minimum(p_hat, 1.0)
        variance = (capped * (1.0 - capped) + 1.0 / n_context) / n_context
        base_rate = self._counts[attr_a][codes_a] / self.n_rows
        out = p_hat - self.LCB_Z * np.sqrt(variance) - base_rate
        np.maximum(out, 0.0, out=out)
        return out

    def count_profile(
        self, attr_a: str, attr_b: str, code_b: int
    ) -> np.ndarray:
        """Dense raw co-occurrence counts of *every* build-time code of
        ``attr_a`` against context code ``code_b``, cached per context.
        (Codes minted later by incremental encoding count 0 and are
        guarded by the callers, so profiles stay build-card sized.)"""
        stats = self._pair.get((attr_a, attr_b))
        if stats is None or not 0 <= code_b < stats.card_b:
            return np.zeros(len(self._counts[attr_a]), dtype=np.int64)
        profile = stats.count_profiles.get(code_b)
        if profile is None:
            codes = np.arange(len(self._counts[attr_a]), dtype=np.int64)
            profile = self._count_values(stats, codes, code_b)
            stats.count_profiles[code_b] = profile
        return profile

    def pair_counts_for(
        self, attr_a: str, codes_a: np.ndarray, attr_b: str, code_b: int
    ) -> np.ndarray:
        """Raw co-occurrence counts of ``(codes_a[i], code_b)`` (batched).

        ``codes_a`` must hold valid codes (≥ 0).  A context probed more
        than twice gets the dense cached profile; rarer contexts take
        direct pool-sized probes.  (The baseline cleaners' probe; the
        BClean kernel gathers :meth:`csr_entries` instead.)"""
        stats = self._pair.get((attr_a, attr_b))
        if stats is None or not 0 <= code_b < stats.card_b:
            return np.zeros(len(codes_a), dtype=np.int64)
        profile = stats.count_profiles.get(code_b)
        if profile is None:
            tally = stats.count_probes.get(code_b, 0) + 1
            if tally > 2:
                stats.count_probes.pop(code_b, None)
                profile = self.count_profile(attr_a, attr_b, code_b)
            else:
                stats.count_probes[code_b] = tally
                return self._count_values(stats, codes_a, code_b)
        return profile[codes_a]

    def pair_count_codes(
        self, attr_a: str, code_a: int, attr_b: str, code_b: int
    ) -> int:
        """Raw co-occurrence count of one code pair (single probe).

        ``code_b`` beyond the build-time cardinality must be rejected
        explicitly — its fused key could collide with a real pair's.  A
        too-large ``code_a`` only pushes the fused key past every stored
        key, which misses safely.
        """
        stats = self._pair.get((attr_a, attr_b))
        if stats is None or code_a < 0 or not 0 <= code_b < stats.card_b:
            return 0
        return stats.raw_count(code_a * stats.card_b + code_b)

    def rowwise_pair_counts(self, attr_a: str, attr_b: str) -> np.ndarray:
        """Raw count of each row's own ``(A_a, A_b)`` value pair — one
        entry per table row (drives the batched tuple-pruning filter).
        Every queried pair exists by construction."""
        stats = self._pair.get((attr_a, attr_b))
        if stats is None:
            return np.zeros(self.n_rows, dtype=np.int64)
        fused = (
            self.encoding.codes(attr_a) * stats.card_b
            + self.encoding.codes(attr_b)
        )
        idx, hit = stats.lookup(fused)
        return np.where(hit, stats.raw[idx], 0)

    def pair_counts_rows(
        self,
        attr_a: str,
        codes_a: np.ndarray,
        attr_b: str,
        codes_b: np.ndarray,
    ) -> np.ndarray:
        """Elementwise raw counts of ``(codes_a[i], codes_b[i])`` with
        full out-of-range guards — the foreign-table companion of
        :meth:`rowwise_pair_counts`, where codes minted by incremental
        encoding (or ``UNSEEN_CODE``) must count 0."""
        stats, valid, idx, hit = self._probe_rows(attr_a, codes_a, attr_b, codes_b)
        if stats is None:
            return np.zeros(len(codes_a), dtype=np.int64)
        return np.where(hit, stats.raw[idx], 0)

    def pair_rows(
        self,
        attr_a: str,
        codes_a: np.ndarray,
        attr_b: str,
        codes_b: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Elementwise ``(weighted, n_context)`` of the pairs
        ``(codes_a[i], codes_b[i])``: the weighted pair count and the
        marginal count of ``codes_b[i]`` — both 0 where either code lies
        outside the build-time range (the inputs of
        :meth:`corr_excluded`)."""
        stats, valid, idx, hit = self._probe_rows(attr_a, codes_a, attr_b, codes_b)
        if stats is None:
            n = len(codes_a)
            return np.zeros(n, dtype=np.float64), np.zeros(n, dtype=np.int64)
        counts_b = self._counts[attr_b]
        return (
            np.where(hit, stats.weighted[idx], 0.0),
            np.where(valid, counts_b[np.where(valid, codes_b, 0)], 0),
        )

    def _probe_rows(
        self,
        attr_a: str,
        codes_a: np.ndarray,
        attr_b: str,
        codes_b: np.ndarray,
    ) -> tuple[PairArrays | None, np.ndarray, np.ndarray, np.ndarray]:
        """One guarded probe of ``(codes_a[i], codes_b[i])``: the pair's
        stats, the in-range mask, and the stat index / hit mask."""
        stats = self._pair.get((attr_a, attr_b))
        if stats is None:
            return None, None, None, None
        card_a = len(self._counts[attr_a])
        valid = (
            (codes_a >= 0)
            & (codes_a < card_a)
            & (codes_b >= 0)
            & (codes_b < stats.card_b)
        )
        fused = np.where(valid, codes_a * stats.card_b + codes_b, 0)
        idx, hit = stats.lookup(fused)
        return stats, valid, idx, hit & valid

    def cooccurring_codes(
        self, attr_a: str, attr_b: str, code_b: int
    ) -> np.ndarray:
        """Codes of ``attr_a`` co-occurring with context ``code_b`` in
        ``attr_b``, in first-appearance order, NULL code excluded."""
        stats = self._pair.get((attr_a, attr_b))
        if stats is None or not 0 <= code_b < stats.card_b:
            return np.empty(0, dtype=np.int64)
        starts, candidates = stats.csr()
        return candidates[starts[code_b] : starts[code_b + 1]]

    def csr_entries(
        self, attr_a: str, attr_b: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """The pair's CSR index with per-entry statistics aligned to it:
        ``(starts, candidates, raw, corr)``, where ``raw[i]`` and
        ``corr[i]`` are the raw count and the no-exclusion :meth:`corr`
        of the pair ``(candidates[i], b)`` for the context code ``b``
        whose slice holds entry ``i``.  A candidate absent from a
        context's slice has raw count and corr exactly 0, so these
        slices carry every nonzero term a competition sums.  Built
        lazily per pair and per process (``None`` for an unknown pair).
        """
        stats = self._pair.get((attr_a, attr_b))
        if stats is None:
            return None
        if stats._csr_entries is None:
            starts, candidates = stats.csr()
            code_b = np.repeat(
                np.arange(stats.card_b, dtype=np.int64), np.diff(starts)
            )
            entry, _ = stats.lookup(candidates * stats.card_b + code_b)
            corr = self._corr_values(
                attr_a,
                candidates,
                stats.weighted[entry],
                self._counts[attr_b][code_b],
            )
            stats._csr_entries = (starts, candidates, stats.raw[entry], corr)
        return stats._csr_entries

    def corr_excluded(
        self,
        attr_a: str,
        codes_a: np.ndarray,
        weighted: np.ndarray,
        n_context: np.ndarray,
        self_weights: np.ndarray,
    ) -> np.ndarray:
        """:meth:`corr_codes` with ``exclude_self=True``, elementwise over
        pairs already probed with :meth:`pair_rows` (any shape
        broadcasting against ``codes_a`` / ``self_weights``): the corr
        once the scored row's own contribution (confidence weight
        ``self_weights``, one observation of each marginal) is removed.
        Pairs probed as out of range carry ``n_context == 0`` and score
        0.  Same arithmetic as the scalar kernel, term for term —
        including ``** 0.5`` as ``np.power(·, 0.5)``, which can differ
        from ``np.sqrt`` in the last bit."""
        if self.n_rows == 0:
            return np.zeros(np.broadcast(weighted, codes_a).shape)
        weighted = weighted - self_weights
        n_context = n_context - 1
        n_value = self.counts_for(attr_a, codes_a) - 1
        live = (n_context > 0) & (weighted > 0.0)
        # Dead entries score 0; neutral inputs keep their maths finite.
        weighted = np.where(live, weighted, 0.0)
        n_context = np.where(live, n_context, 1)
        base_rate = np.maximum(n_value, 0) / self.n_rows
        p_hat = weighted / n_context
        capped = np.minimum(p_hat, 1.0)
        variance = (capped * (1.0 - capped) + 1.0 / n_context) / n_context
        corr = np.maximum(
            p_hat - self.LCB_Z * np.power(variance, 0.5) - base_rate, 0.0
        )
        return np.where(live, corr, 0.0)

    def corr_codes(
        self,
        attr_a: str,
        code_a: int,
        attr_b: str,
        code_b: int,
        exclude_self: bool = False,
        self_weight: float = 1.0,
    ) -> float:
        """:meth:`corr` of one code pair (the scalar kernel both the
        value-level API and the incumbent exclusion fix-up share).

        Codes at or beyond the build-time cardinalities (incrementally
        extended vocabularies) were never observed and score exactly 0,
        like unseen values on the value-level path.
        """
        stats = self._pair.get((attr_a, attr_b))
        if stats is None or self.n_rows == 0 or code_a < 0 or code_b < 0:
            return 0.0
        if code_a >= len(self._counts[attr_a]) or code_b >= stats.card_b:
            return 0.0
        weighted = stats.weighted_count(code_a * stats.card_b + code_b)
        n_context = int(self._counts[attr_b][code_b])
        n_value = int(self._counts[attr_a][code_a])
        if exclude_self:
            weighted -= self_weight
            n_context -= 1
            n_value -= 1
        if n_context <= 0 or weighted <= 0.0:
            return 0.0
        base_rate = max(0, n_value) / self.n_rows
        p_hat = weighted / n_context
        capped = min(p_hat, 1.0)
        variance = (capped * (1.0 - capped) + 1.0 / n_context) / n_context
        return max(0.0, p_hat - self.LCB_Z * variance ** 0.5 - base_rate)

    # -- value-level queries ---------------------------------------------------------

    def count(self, attribute: str, value: Cell) -> int:
        """Marginal count of ``value`` in ``attribute``."""
        code = self.encoding.encode(attribute, value)
        counts = self._counts[attribute]
        # A code at or past the build-time cardinality was minted by
        # incremental encoding after this index was built: never observed.
        if not 0 <= code < len(counts):
            return 0
        return int(counts[code])

    def pair_count(
        self, attr_a: str, value_a: Cell, attr_b: str, value_b: Cell
    ) -> int:
        """Raw co-occurrence count of ``(value_a, value_b)``."""
        return self.pair_count_codes(
            attr_a,
            self.encoding.encode(attr_a, value_a),
            attr_b,
            self.encoding.encode(attr_b, value_b),
        )

    #: z-multiplier of the lower confidence bound in :meth:`corr` — how
    #: strongly small-sample proportions are discounted.
    LCB_Z = 1.0

    def corr(
        self,
        attr_a: str,
        value_a: Cell,
        attr_b: str,
        value_b: Cell,
        exclude_self: bool = False,
        self_weight: float = 1.0,
    ) -> float:
        """Confidence-weighted conditional lift of ``value_a`` given the
        context value ``value_b``, discounted by sampling uncertainty.

        The paper's raw form, ``count(c, e)/|D|`` with β-penalised
        low-confidence tuples, is count-scaled: summed over attributes
        it conflates *popularity* with *association* (a frequent value
        co-occurs with everything).  We therefore estimate the
        conditional proportion ``p̂ = weighted_count(c, e)/count(e)``
        and report its lower confidence bound above c's base rate:

        ``corr(c, e) = max(0, p̂ − z·sd(p̂) − count(c)/|D|)``

        Three protections, each load-bearing:

        - the **LCB** (``− z·sd``) discounts sampling noise: a single
          co-occurrence in a five-row context gives p̂ = 0.2 with
          sd ≈ 0.27 — pure coincidence, clamped away — while an FD
          partner (p̂ ≈ 1 across its context group) stays strong even in
          small groups;
        - the **base rate** subtraction removes popularity: a frequent
          value co-occurs with every context at roughly its marginal
          frequency, which is no evidence of association;
        - the **clamp at zero** prevents the subtraction from biasing
          the *sum* against frequent values (every generic context would
          otherwise contribute negative mass proportional to the value's
          own frequency).

        ``exclude_self`` removes the scored tuple's own contribution —
        an incumbent value trivially co-occurs with its own row, which
        would otherwise grant it certainty-level support exactly on the
        unique contexts that provide no real evidence.  ``self_weight``
        is the weight that tuple actually contributed to Algorithm 2's
        accumulator (+1 when reliable, −β when not): an unreliable
        tuple's exclusion must *add back* its penalty rather than
        subtract a flat 1.
        """
        return self.corr_codes(
            attr_a,
            self.encoding.encode(attr_a, value_a),
            attr_b,
            self.encoding.encode(attr_b, value_b),
            exclude_self=exclude_self,
            self_weight=self_weight,
        )

    def cooccurring_values(self, attr_a: str, attr_b: str, value_b: Cell) -> list:
        """All values of ``attr_a`` that co-occur with ``value_b`` in
        ``attr_b`` — the generator behind TF-IDF context counting.

        Backed by the CSR inverted index of the pair, so repeated
        queries are O(result).  NULLs are never returned — NULL is not a
        repair candidate.
        """
        code_b = self.encoding.encode(attr_b, value_b)
        stats = self._pair.get((attr_a, attr_b))
        if stats is None or code_b == UNSEEN_CODE:
            return []
        cache = stats.values_cache()
        values = cache.get(code_b)
        if values is None:
            vocab = self.encoding.vocab(attr_a)
            values = [
                vocab.decode(int(c))
                for c in self.cooccurring_codes(attr_a, attr_b, code_b)
            ]
            cache[code_b] = values
        return values

    def n_pairs_stored(self) -> int:
        """Total number of distinct value pairs stored (diagnostics)."""
        return sum(len(p) for p in self._pair.values())
