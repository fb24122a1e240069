"""Read-only execution state and the per-shard competition kernel.

The execution state is split along the session seam of
:mod:`repro.exec.backends`:

- :class:`FitState` is the **static** picklable snapshot of everything a
  candidate competition needs after ``fit()``: the shared table
  encoding, the co-occurrence index, the coded CPT matrices (via the
  columnar scorer), the compensatory scorer, the domain pruner, the BN
  partition, and the per-attribute domain candidate codes.  It is
  constant for a whole ``clean()`` (indeed for the fit's lifetime), so a
  persistent worker pool ships it exactly **once** — through the pool
  initializer — no matter how many row chunks the clean dispatches.
- :class:`ChunkView` is the small **per-dispatch** view of the rows
  being cleaned right now: the chunk's deduplicated row signatures,
  their confidence weights, and the per-attribute NULL/UC code masks
  (which can grow between chunks when incremental encoding mints codes
  for a foreign table's unseen values — that is why they ride with the
  chunk, not the snapshot).

Everything in the snapshot is *read-only* during cleaning — the only
mutations are lazy per-process caches (CSR inverted indexes with their
aligned per-entry statistics, dict probe views), which are dropped on
pickling and rebuilt on demand inside each worker.  That makes one
``FitState`` safe to share across threads (cache races are idempotent
writes of identical values) and cheap to ship to processes once per
*session*.  Its statistics index only build-time codes, so a worker's
snapshot stays valid even while the parent's encoding keeps extending:
codes the statistics never saw probe as never-observed by construction.

:meth:`FitState.run_shard` is the execution kernel: it runs every
competition of one :class:`~repro.exec.planner.Shard` against one
:class:`ChunkView` and returns a :class:`ShardResult` of repair codes
and scores.  There is no per-competition loop: the shard is processed
as *segments* — competition ``i`` owns segment ``i`` of flat arrays —
in three passes.

1. **Pools and compensatory terms.**  For every (context column *k*,
   competition) cell the kernel gathers the pair's CSR slice for the
   competition's context value (:meth:`CooccurrenceIndex.csr_entries`:
   candidate codes with their raw counts and no-exclusion ``corr``
   aligned), all slices at once in *k*-major order, each entry tagged
   with its segment.  Grouping the fused ``(segment, code)`` keys gives
   every pool's context candidates and first positions; candidate
   strength, the TF-IDF context count, the support counts, and the
   compensatory sum are each one ``np.bincount``.  A fused
   ``(segment, −strength, first position)`` sort orders all pools; the
   domain top-up, UC filter, cap re-sort, TF-IDF pruning and the
   incumbent append are masked per-segment operations.
2. **BN scores.**  Pools of equal length are stacked into one
   ``(B, P)`` matrix and every Markov-blanket factor is resolved for
   the whole batch with a single
   :class:`~repro.bayesnet.model.ColumnarNetScorer` matrix op.
3. **Decisions.**  The incumbent's self-excluded ``corr`` terms come
   from one probe per (competition, context column) cell (the incumbent
   need not sit in any slice — a NULL, or a pair seen only in its own
   row); penalty, margin, a segmented argmax and the support vetoes
   are array operations over all segments.

Why this is **byte-identical** to the scalar oracle: a candidate absent
from a context's slice has raw count 0 and ``corr`` exactly 0 there, so
the gathered slices carry every nonzero term a competition sums; the
zero terms the per-competition reference added were ``x + 0.0 = x``
no-ops.  ``np.bincount`` adds its weights in input order, and the input
is *k*-major, so each float sum accumulates its terms in the same
context order as the reference — bit for bit.  Integer-valued sums
(strengths, counts) are exact in any order.  Every other step is
elementwise or an exact selection (sorts, maxima), so results do not
depend on backend, shard count, batch grouping, or block split.

Competitions run in gather blocks whose entry count (slice entries plus
domain top-up slots) stays within :data:`BLOCK_ENTRIES`, so the
kernel's scratch stays bounded on wide, low-cardinality contexts where
every slice is long; blocks are independent, so the split never changes
a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.bayesnet.model import ColumnarNetScorer
from repro.core.compensatory import CompensatoryScorer, log_compensatory_segments
from repro.core.config import BCleanConfig, InferenceMode
from repro.core.cooccurrence import CooccurrenceIndex
from repro.core.partition import SubNetwork
from repro.core.pruning import DomainPruner
from repro.dataset.encoding import TableEncoding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.planner import Shard

#: Entry budget of one gather block: a shard's competitions run in
#: blocks whose gathered CSR entries plus domain top-up slots stay within
#: this many (one competition over it runs alone), so the kernel's
#: scratch stays bounded on wide, low-cardinality contexts whose slices
#: are long — about 50 bytes per entry, under 2 MB a block.  Larger
#: blocks buy no speed: past a few thousand entries the per-block
#: overhead is already amortised.
BLOCK_ENTRIES = 1 << 15


@dataclass
class ShardResult:
    """Per-competition decisions of one shard.

    ``decided[i]`` is the repair code for unique row ``uids[i]`` (−1
    keeps the observed value); the score arrays carry the incumbent and
    winner totals the engine records on emitted repairs.  The counters
    aggregate the shard's share of the work statistics.
    """

    shard_id: int
    column: int
    uids: np.ndarray
    decided: np.ndarray
    incumbent_scores: np.ndarray
    best_scores: np.ndarray
    candidates_evaluated: int = 0
    candidates_filtered_uc: int = 0

    @property
    def n_competitions(self) -> int:
        return len(self.uids)


@dataclass
class ChunkView:
    """The per-dispatch view of the rows being cleaned.

    Attributes
    ----------
    uniq_rows:
        ``(n_uniq, m)`` deduplicated coded row signatures of the chunk
        being cleaned.
    uniq_weights:
        Per-signature confidence weight (what the signature's rows
        contributed to Algorithm 2's accumulator; 1.0 for foreign rows).
    null_masks, uc_masks:
        Per-attribute boolean masks over the *current* (possibly
        extended) code range — re-snapshotted per chunk because foreign
        chunks mint new codes as they are encoded.  ``uc_masks`` may be
        empty when user constraints are disabled.
    """

    uniq_rows: np.ndarray
    uniq_weights: np.ndarray
    null_masks: dict[str, np.ndarray]
    uc_masks: dict[str, np.ndarray]


class FitState:
    """Everything a worker needs to run competitions, frozen after fit.

    Parameters
    ----------
    config:
        The engine configuration (scoring knobs; executor knobs are read
        by the engine, not the kernel).
    encoding:
        Shared table interning (possibly incrementally extended for a
        foreign table).  The kernel only reads build-time facts from it
        (per-attribute cardinalities for scratch sizing), so a snapshot
        shipped at session open stays valid for every later chunk.
    cooc, comp, pruner, scorer, subnets:
        The fitted statistics components, exactly as the engine built
        them.
    names:
        Attribute names in schema order.
    domain_codes:
        Per-attribute domain candidate codes, most frequent first
        (fit-time values, hence static).
    """

    def __init__(
        self,
        config: BCleanConfig,
        encoding: TableEncoding,
        cooc: CooccurrenceIndex,
        comp: CompensatoryScorer,
        pruner: DomainPruner,
        scorer: ColumnarNetScorer,
        subnets: Mapping[str, SubNetwork],
        names: Sequence[str],
        domain_codes: Mapping[str, np.ndarray],
    ):
        self.config = config
        self.encoding = encoding
        self.cooc = cooc
        self.comp = comp
        self.pruner = pruner
        self.scorer = scorer
        self.subnets = dict(subnets)
        self.names = list(names)
        self.domain_codes = dict(domain_codes)

    # -- kernel ------------------------------------------------------------------

    def run_shard(self, shard: "Shard", view: ChunkView) -> ShardResult:
        """Run all competitions of ``shard`` against ``view`` (pure
        function of snapshot + view — see the module docstring for the
        segment scheme).  Competitions run in gather blocks of at most
        :data:`BLOCK_ENTRIES` entries; blocks are independent, so the
        split never changes a result."""
        j = shard.column
        attr = self.names[j]
        uids = shard.uids
        n = len(uids)
        rows = view.uniq_rows[uids]
        weights = view.uniq_weights[uids]
        context_cols = [k for k in range(len(self.names)) if k != j]
        cap = self.config.effective_candidate_cap()
        domain = self.domain_codes[attr]
        top = domain[:cap] if cap is not None else domain

        # CSR slice bounds of every (context column, competition) cell.
        entries = [
            self.cooc.csr_entries(attr, self.names[k]) for k in context_cols
        ]
        lo = np.zeros((len(context_cols), n), dtype=np.int64)
        ln = np.zeros((len(context_cols), n), dtype=np.int64)
        for kk, k in enumerate(context_cols):
            if entries[kk] is None:
                continue
            starts = entries[kk][0]
            code_b = rows[:, k]
            valid = (code_b >= 0) & (code_b < len(starts) - 1)
            code_b = np.where(valid, code_b, 0)
            lo[kk] = starts[code_b]
            ln[kk] = np.where(valid, starts[code_b + 1] - lo[kk], 0)

        decided = np.full(n, -1, dtype=np.int64)
        inc_scores = np.zeros(n, dtype=np.float64)
        best_scores = np.zeros(n, dtype=np.float64)
        evaluated = 0
        filtered_uc = 0
        for b0, b1 in _blocks(ln.sum(axis=0) + len(top), BLOCK_ENTRIES):
            block = slice(b0, b1)
            pools = self._pools(
                attr, j, rows[block], entries, lo[:, block], ln[:, block],
                top, view,
            )
            evaluated += len(pools.codes)
            filtered_uc += pools.filtered_uc
            (decided[block], inc_scores[block], best_scores[block]) = (
                self._decide(
                    attr, j, context_cols, rows[block], weights[block],
                    pools, view,
                )
            )
        return ShardResult(
            shard.shard_id,
            j,
            uids,
            decided,
            inc_scores,
            best_scores,
            candidates_evaluated=evaluated,
            candidates_filtered_uc=filtered_uc,
        )

    # -- pass 1: candidate pools ---------------------------------------------------

    def _pools(
        self,
        attr: str,
        j: int,
        rows: np.ndarray,
        entries: Sequence[tuple[np.ndarray, ...] | None],
        lo: np.ndarray,
        ln: np.ndarray,
        top: np.ndarray,
        view: ChunkView,
    ) -> "_Pools":
        """Every competition's coded candidate pool, ordered exactly as
        the scalar reference: context candidates by (−strength, first
        appearance), domain top-up, UC filter, strength-stable cap,
        TF-IDF pruning in PIP mode, incumbent appended when absent."""
        cfg = self.config
        cap = cfg.effective_candidate_cap()
        nb = len(rows)
        card = max(self.encoding.card(attr), 1)

        # Gather: all slices in one index, k-major; each entry's fused
        # (segment, code) key tags it with its competition.
        flat = _ranges(lo.ravel(), ln.ravel())
        bounds = np.concatenate([[0], np.cumsum(ln.sum(axis=1))])
        code = np.empty(len(flat), dtype=np.int64)
        raw = np.empty(len(flat), dtype=np.int64)
        corr = np.empty(len(flat), dtype=np.float64)
        for kk, pair in enumerate(entries):
            part = slice(bounds[kk], bounds[kk + 1])
            if pair is not None and part.start < part.stop:
                for src, out in zip(pair[1:], (code, raw, corr)):
                    np.take(src, flat[part], out=out[part])
        del flat
        keys = np.repeat(np.tile(np.arange(nb) * card, len(lo)), ln.ravel())
        keys += code

        # Group by fused key: every pool's context candidates and their
        # first positions, then one bincount per sum.  bincount adds in
        # input (k) order, so each float sum is the per-context
        # accumulation of the scalar reference bit for bit.  (NULL-like
        # codes are grouped too and dropped from the ordered pools.)
        keys, first, inverse = _group(keys, nb * card)

        def total(weights=None):
            # (float cast: an empty bincount comes back int64)
            return np.bincount(inverse, weights, len(keys)).astype(np.float64)

        stats = _KeyStats(
            keys,
            strength=total(raw),
            context=total(),
            corr=total(corr) if cfg.use_compensatory else None,
            # contexts where the pair's count reaches 2 (incumbent
            # protection) / min_fill_support (forced-repair evidence)
            protected=total(raw >= 2),
            backed=total(raw >= cfg.min_fill_support),
        )
        kseg, kcode = keys // card, keys % card
        order = _order(kseg, stats.strength, first)
        order = order[~view.null_masks[attr][kcode[order]]]
        if cap is not None:
            order = order[_rank(kseg[order], nb) < cap]
        seg, code = kseg[order], kcode[order]
        strength = stats.strength[order]

        # Domain top-up: each segment's top domain values not already in
        # its (capped) pool, in domain order; a truncated context
        # candidate re-entering here keeps its strength for the re-sort.
        if len(top):
            in_pool = np.zeros(len(keys), dtype=bool)
            in_pool[order] = True
            top_seg = np.repeat(np.arange(nb), len(top))
            top_code = np.tile(top, nb)
            top_keys = top_seg * card + top_code
            extra = ~stats.lookup(top_keys, in_pool, False)
            seg = np.concatenate([seg, top_seg[extra]])
            code = np.concatenate([code, top_code[extra]])
            strength = np.concatenate(
                [strength, stats.lookup(top_keys[extra], stats.strength, 0.0)]
            )
            regroup = np.argsort(seg, kind="stable")
            seg, code, strength = seg[regroup], code[regroup], strength[regroup]

        filtered = 0
        if cfg.use_ucs:
            ok = view.uc_masks[attr][code]
            filtered = int(len(ok) - np.count_nonzero(ok))
            seg, code, strength = seg[ok], code[ok], strength[ok]

        if cap is not None:
            over = np.bincount(seg, minlength=nb) > cap
            if over.any():
                resort = np.lexsort((np.where(over[seg], -strength, 0.0), seg))
                resort = resort[_rank(seg[resort], nb) < cap]
                seg, code = seg[resort], code[resort]

        if cfg.mode == InferenceMode.PARTITIONED_PRUNED:
            tfidf = self.pruner.tfidf_codes(
                attr, code, stats.lookup(seg * card + code, stats.context, 0.0)
            )
            prune = np.lexsort((-tfidf, seg))
            prune = prune[_rank(seg[prune], nb) < self.pruner.top_k]
            seg, code = seg[prune], code[prune]

        # The incumbent joins its pool (appended) unless already there.
        current = rows[:, j]
        hits = np.nonzero(code == current[seg])[0]
        hit_seg, first_hit = np.unique(seg[hits], return_index=True)
        is_inc = np.zeros(len(code), dtype=bool)
        is_inc[hits[first_hit]] = True
        missing = np.ones(nb, dtype=bool)
        missing[hit_seg] = False
        seg = np.concatenate([seg, np.nonzero(missing)[0]])
        code = np.concatenate([code, current[missing]])
        is_inc = np.concatenate([is_inc, np.ones(int(missing.sum()), dtype=bool)])
        regroup = np.argsort(seg, kind="stable")
        seg, code = seg[regroup], code[regroup]
        counts = np.bincount(seg, minlength=nb)
        return _Pools(
            seg=seg,
            codes=code,
            starts=np.cumsum(counts) - counts,
            lengths=counts,
            incumbent=np.nonzero(is_inc[regroup])[0],
            stats=stats,
            card=card,
            filtered_uc=filtered,
        )

    # -- passes 2 and 3: scores and decisions --------------------------------------

    def _decide(
        self,
        attr: str,
        j: int,
        context_cols: Sequence[int],
        rows: np.ndarray,
        weights: np.ndarray,
        pools: "_Pools",
        view: ChunkView,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score every pool entry (compensatory + batched BN) and decide
        every competition: penalty, margin, segment argmax, support
        vetoes.  Returns ``(decided, incumbent_scores, best_scores)``."""
        cfg = self.config
        cooc = self.cooc
        seg, codes, inc = pools.seg, pools.codes, pools.incumbent
        stats, card = pools.stats, pools.card
        current = rows[:, j]
        null_mask = view.null_masks[attr]
        inc_null = null_mask[current]

        if cfg.use_compensatory:
            raw = stats.lookup(seg * card + codes, stats.corr, 0.0)
            # The incumbent's terms exclude its own row (its weight off
            # the weighted count, one observation off each marginal),
            # which the slices' no-exclusion corr cannot give — and a
            # NULL incumbent sits in no slice.  They come from one probe
            # per (competition, context column) cell, summed in k order.
            probes = [
                cooc.pair_rows(attr, current, self.names[k], rows[:, k])
                for k in context_cols
            ]
            inc_comp = np.zeros(len(rows), dtype=np.float64)
            if probes:
                weighted, n_context = (np.stack(p) for p in zip(*probes))
                for term in cooc.corr_excluded(
                    attr, current, weighted, n_context, weights
                ):
                    inc_comp += term
            raw[inc] = inc_comp
            if self.comp.frequency_weight and cooc.n_rows:
                # counts_for: the incumbent may carry a minted code (count 0).
                freq = cooc.counts_for(attr, codes) / cooc.n_rows
                raw = raw + self.comp.frequency_weight * freq
            totals = cfg.comp_weight * log_compensatory_segments(
                raw, pools.starts, cfg.comp_smoothing
            )
        else:
            totals = np.zeros(len(codes), dtype=np.float64)
        totals = self._bn_scores(attr, rows, pools) + totals

        # Support checks read the slices: a non-NULL in-range code has
        # a nonzero count in a context exactly when it is in its slice.
        uc_mask = view.uc_masks.get(attr) if cfg.use_ucs else None
        penalty = np.zeros(len(rows), dtype=np.float64)
        if uc_mask is not None:
            penalty[~uc_mask[current]] = cfg.uc_violation_penalty
        in_range = (current >= 0) & (current < card)
        inc_key = np.arange(len(rows)) * card + np.where(in_range, current, 0)
        inc_supported = (
            ~inc_null
            & in_range
            & (stats.lookup(inc_key, stats.protected, 0.0) > 0)
        )
        margin = np.where(inc_supported, cfg.repair_margin, cfg.unsupported_margin)
        totals[inc] = totals[inc] - penalty + margin

        peak = np.maximum.reduceat(totals, pools.starts)
        at_peak = np.nonzero((totals == peak[seg]) | np.isnan(totals))[0]
        best = at_peak[np.unique(seg[at_peak], return_index=True)[1]]
        best_code = codes[best]
        best_scores = totals[best]
        inc_scores = totals[inc]

        # A forced repair (NULL or UC-violating incumbent) must be
        # evidence-backed, else the incumbent stands.  (A winner other
        # than the incumbent is a non-NULL candidate code.)
        if cfg.min_fill_support > 0:
            best_key = np.arange(len(rows)) * card + best_code
            backed = stats.lookup(best_key, stats.backed, 0.0) > 0
        else:
            backed = np.full(len(rows), bool(context_cols))
        veto = (inc_null | (penalty > 0)) & (best_code != current) & ~backed
        best_scores = np.where(veto, inc_scores, best_scores)
        repair = ~veto & (best_scores > inc_scores) & (best_code != current)
        return np.where(repair, best_code, -1), inc_scores, best_scores

    def _bn_scores(
        self, attr: str, rows: np.ndarray, pools: "_Pools"
    ) -> np.ndarray:
        """Batched BN scoring: pools of equal length are stacked and
        scored with one matrix op per blanket factor."""
        out = np.zeros(len(pools.codes), dtype=np.float64)
        mode = self.config.mode
        if mode != InferenceMode.BASIC and self.subnets[attr].is_isolated:
            # §6.1: isolated nodes contribute a constant that cancels.
            return out
        for length in np.unique(pools.lengths):
            members = np.nonzero(pools.lengths == length)[0]
            index = pools.starts[members][:, None] + np.arange(length)
            if mode == InferenceMode.BASIC:
                batch = self.scorer.joint_log_scores_batch
            else:
                batch = self.scorer.blanket_log_scores_batch
            out[index] = batch(attr, pools.codes[index], rows[members])
        return out


@dataclass
class _KeyStats:
    """Per-(segment, candidate) sums of one gather block, keyed by the
    sorted fused key ``segment · card + code``."""

    keys: np.ndarray
    strength: np.ndarray
    context: np.ndarray
    corr: np.ndarray | None
    protected: np.ndarray
    backed: np.ndarray

    def lookup(
        self, fused: np.ndarray, values: np.ndarray, default
    ) -> np.ndarray:
        """``values`` (aligned with ``keys``) at fused query keys,
        ``default`` where a key is absent."""
        if not len(self.keys):
            return np.full(len(fused), default, dtype=values.dtype)
        pos = np.minimum(np.searchsorted(self.keys, fused), len(self.keys) - 1)
        return np.where(self.keys[pos] == fused, values[pos], default)


@dataclass
class _Pools:
    """A block's candidate pools as consecutive segments of ``codes``
    (``seg`` is each entry's competition; every segment is non-empty,
    since it holds at least the incumbent, at flat index
    ``incumbent[i]``)."""

    seg: np.ndarray
    codes: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    incumbent: np.ndarray
    stats: _KeyStats
    card: int
    filtered_uc: int


def _group(
    keys: np.ndarray, space: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(keys, return_index=True, return_inverse=True)`` for
    keys in ``[0, space)``.  A key space at most twice the entry count
    is counted densely instead of sorted; first positions come from
    ``np.minimum.at`` either way (``return_index`` makes ``np.unique``
    sort stably, several times slower)."""
    if space <= 2 * len(keys):
        uniq = np.flatnonzero(np.bincount(keys, minlength=space))
        compact = np.empty(space, dtype=np.int64)
        compact[uniq] = np.arange(len(uniq))
        inverse = compact[keys]
    else:
        uniq, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(uniq), len(keys), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(keys)))
    return uniq, first, inverse


def _order(seg: np.ndarray, strength: np.ndarray, first: np.ndarray) -> np.ndarray:
    """``np.lexsort((first, -strength, seg))`` for integral strengths
    and distinct first positions: the three keys fused into one int64
    make every key distinct, so one unstable sort gives the same
    order.  (Falls back to ``lexsort`` if the fused range would not
    fit in 63 bits.)"""
    if not len(seg):
        return np.empty(0, dtype=np.int64)
    top = int(strength.max())
    span = int(first.max()) + 1
    if (int(seg.max()) + 1) * (top + 1) * span >= 1 << 62:
        return np.lexsort((first, -strength, seg))
    rank = (seg * (top + 1) + (top - strength.astype(np.int64))) * span + first
    return np.argsort(rank)


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(starts[i], starts[i] + lengths[i])``."""
    total = int(lengths.sum())
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(total)


def _rank(seg: np.ndarray, n_segments: int) -> np.ndarray:
    """Position of each entry within its segment (``seg`` grouped)."""
    counts = np.bincount(seg, minlength=n_segments)
    return np.arange(len(seg)) - np.repeat(np.cumsum(counts) - counts, counts)


def _blocks(sizes: np.ndarray, budget: int):
    """Consecutive ``(start, stop)`` competition ranges whose summed
    ``sizes`` stay within ``budget`` (a competition over it alone)."""
    cum = np.cumsum(sizes)
    start = 0
    while start < len(sizes):
        base = cum[start - 1] if start else 0
        stop = int(np.searchsorted(cum, base + budget, side="right"))
        stop = max(stop, start + 1)
        yield start, stop
        start = stop
