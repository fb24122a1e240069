"""The staged cleaning pipeline: ingest → encode → detect → plan →
execute → merge → emit.

This module is the driver of the columnar clean path.  What used to be
one monolithic ``BClean._clean_columnar`` body is decomposed into
explicit stages, each consuming/producing a :class:`RowChunk`-anchored
state object:

ingest
    Produce row blocks: slices of the fitted table, slices of a foreign
    in-memory table, or CSV blocks streamed off disk
    (:func:`repro.dataset.io.iter_csv_chunks`) — the out-of-core case,
    where no stage ever holds more than one block.
encode
    Integer-code the block.  Fitted-table blocks are zero-copy slices
    of the fit-time coded matrix; foreign blocks go through
    :meth:`~repro.dataset.encoding.TableEncoding.encode_table`, whose
    incremental code-minting keeps every chunk on the columnar fast
    path (unseen values get fresh codes all statistics treat as
    never-observed).
detect
    The §6.2 tuple-pruning filter (PIP mode): per-attribute boolean
    skip masks over the block's rows.
plan
    Deduplicate the block's row signatures, estimate per-competition
    costs, and cut cost-balanced :class:`~repro.exec.planner.Shard`\\ s;
    ``executor="auto"`` resolves serial vs process here, from the
    **whole-stream** cost estimate (the cumulative planned cost,
    extrapolated to the stream's known total rows when cleaning an
    in-memory table) — pool startup is paid once per session, so the
    break-even belongs to the stream, not to any single block.
execute
    Pack the block's per-chunk view into a
    :class:`~repro.exec.state.ChunkView` and dispatch the shards
    through the clean's :class:`~repro.exec.session.ExecSession`: the
    worker pool is created once, the static
    :class:`~repro.exec.state.FitState` snapshot is shipped once (via
    shared memory when the host allows — :mod:`repro.exec.shm`), and
    every later chunk reaches already-warm workers carrying only its
    own view.
merge
    Scatter the shard results into per-attribute decision buffers
    (:func:`~repro.exec.merge.merge_shard_results`).
emit
    Broadcast per-signature decisions back to the block's rows —
    into an in-memory cleaned table (:class:`TableSink`) or appended
    to an output CSV (:class:`CsvSink`) — emitting repairs in global
    row-major order.

**Chunked output is byte-identical to the whole-table run at every
chunk size.**  Every candidate competition is a pure function of its
row signature and the frozen fit statistics, per-row weights and filter
scores are row-local, foreign code-minting happens in row order
regardless of block boundaries, and chunks emit in order — so chunk
boundaries can reorder *work*, never *results*.  The only observable
difference is effort bookkeeping: without the session cache a signature
recurring in several chunks re-runs its competition once per chunk, so
``candidates_evaluated`` / ``cache_size`` may exceed the whole-table
counts; with it the recurring run is answered from the memo instead and
``candidates_evaluated`` may *undershoot* the uncached chunked counts
(repairs, scores, and the cells counters are identical either way).

Chunked streams additionally carry the **session competition cache**
(:mod:`repro.exec.cache`, ``BCleanConfig.competition_cache``): the plan
stage probes every deduplicated competition against the session's
bounded-LRU memo, hits are answered driver-side with zero dispatch
(spliced back in the merge stage), and fresh shard results are inserted
after each deterministic merge — so a signature recurring across chunks
pays its full Bayesian competition exactly once per session, not once
per chunk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from repro.core.config import InferenceMode
from repro.core.pruning import (
    tuple_filter_scores_all_rows,
    tuple_filter_scores_coded,
)
from repro.core.repairs import CleaningStats, Repair
from repro.dataset.io import append_csv_rows, iter_csv_chunks, write_csv_header
from repro.dataset.table import Table
from repro.errors import CleaningError
from repro.exec.cache import CompetitionCache, competition_key
from repro.exec.merge import (
    MergedDecisions,
    concat_chunk_repairs,
    merge_shard_results,
)
from repro.exec.planner import (
    OVERSUBSCRIBE,
    ShardPlan,
    default_cache_entries,
    estimate_competition_costs,
    extrapolate_stream_cost,
    partition_cached,
    plan_shards,
    resolve_executor,
)
from repro.exec.session import ExecSession
from repro.exec.state import ChunkView
from repro.obs import NULL_TRACER

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.engine import BClean


# -- chunk-state objects (one per pipeline stage) ------------------------------


@dataclass
class RowChunk:
    """One ingested row block.

    ``table`` holds the materialised rows for foreign blocks; fitted-
    table blocks leave it ``None`` (their cells live in the engine's
    fitted table, addressed through ``start``).
    """

    index: int
    start: int
    n_rows: int
    table: Table | None = None


@dataclass
class EncodedChunk:
    """A chunk after the encode stage: coded rows plus row weights."""

    chunk: RowChunk
    codes: np.ndarray
    weights: np.ndarray
    fitted: bool


@dataclass
class DetectedChunk:
    """A chunk after detection: per-column row skip masks (PIP only)."""

    encoded: EncodedChunk
    skip_rows: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class PlannedChunk:
    """A chunk after planning: deduplicated signatures and a shard plan.

    ``row_keys`` (chunked streams only) are the per-unique-signature
    byte keys the session cache is probed and filled with; ``cached``
    carries the plan stage's cache hits per column — competitions the
    execute stage never dispatches, spliced back in the merge.
    """

    detected: DetectedChunk
    uniq_rows: np.ndarray
    inverse: np.ndarray
    uniq_weights: np.ndarray
    columns: list[int]
    plan: ShardPlan
    executor: str
    row_keys: list[bytes] = field(default_factory=list)
    cached: dict[int, tuple] = field(default_factory=dict)


@dataclass
class ChunkDecisions:
    """A chunk after execute+merge: per-signature decision buffers."""

    planned: PlannedChunk
    merged: MergedDecisions


# -- emit sinks ----------------------------------------------------------------


class TableSink:
    """Emit repairs into an in-memory cleaned table (the classic
    ``CleaningResult`` shape)."""

    def __init__(self, source: Table, cleaned: Table):
        self._source = source
        self._cleaned = cleaned
        self._current: list[Repair] = []

    def repair(
        self,
        chunk: RowChunk,
        local_row: int,
        column: int,
        attr: str,
        new_value,
        incumbent_score: float,
        best_score: float,
    ) -> None:
        source = chunk.table if chunk.table is not None else self._source
        source_row = local_row if chunk.table is not None else chunk.start + local_row
        row = chunk.start + local_row
        self._cleaned.set_cell(row, attr, new_value)
        self._current.append(
            Repair(
                row,
                attr,
                source.columns[column][source_row],
                new_value,
                incumbent_score,
                best_score,
            )
        )

    def chunk_done(self, chunk: RowChunk) -> list[Repair]:
        """Cells were written in place — just hand back the chunk's
        repair list for the outer merge."""
        repairs, self._current = self._current, []
        return repairs


class CsvSink:
    """Emit cleaned rows onto an open CSV handle, one block at a time.

    The cleaned table is never materialised — this is the out-of-core
    emit stage.  Repairs are still recorded (with global row indices)
    so the caller gets the usual provenance.
    """

    def __init__(self, handle, delimiter: str = ","):
        self._handle = handle
        self._delimiter = delimiter
        self._current: list[Repair] = []
        self._pending: dict[tuple[int, int], object] = {}

    def repair(
        self,
        chunk: RowChunk,
        local_row: int,
        column: int,
        attr: str,
        new_value,
        incumbent_score: float,
        best_score: float,
    ) -> None:
        if chunk.table is None:  # pragma: no cover - CSV chunks carry tables
            raise CleaningError("CsvSink needs materialised chunk rows")
        self._pending[(local_row, column)] = new_value
        self._current.append(
            Repair(
                chunk.start + local_row,
                attr,
                chunk.table.columns[column][local_row],
                new_value,
                incumbent_score,
                best_score,
            )
        )

    def chunk_done(self, chunk: RowChunk) -> list[Repair]:
        table = chunk.table
        if self._pending:
            table = table.copy()
            for (local_row, column), value in self._pending.items():
                table.set_cell(local_row, table.schema.names[column], value)
            self._pending = {}
        append_csv_rows(self._handle, table, delimiter=self._delimiter)
        repairs, self._current = self._current, []
        return repairs


# -- the driver ----------------------------------------------------------------


class StreamDriver:
    """Runs the staged pipeline over one clean() invocation.

    The driver is built per clean from the engine's fitted components
    and accumulates the work counters / execution diagnostics the
    engine folds into its :class:`~repro.core.repairs.CleaningResult`.
    """

    def __init__(
        self,
        engine: "BClean",
        scorer,
        tracer=NULL_TRACER,
        session: ExecSession | None = None,
        config=None,
    ):
        self.engine = engine
        # ``config`` lets the serving front override *scheduling* knobs
        # (executor, n_jobs, chunk_rows) for one stream; scoring knobs
        # must match the engine's (the session's FitState carries them).
        self.cfg = config if config is not None else engine.config
        self.enc = engine._encoding
        self.names: list[str] = list(engine.table.schema.names)
        self.scorer = scorer
        self.tracer = tracer
        self.n_jobs = self.cfg.n_jobs or os.cpu_count() or 1
        # per-clean lazy caches for fitted-table chunking
        self._fitted_matrix: np.ndarray | None = None
        self._fitted_filter: dict[str, np.ndarray] = {}
        # the clean's execution session: opened at the first executed
        # chunk, closed at emit-end (see run()); one pool + one static
        # snapshot ship for the whole stream.  An *external* (resident)
        # session outlives the stream: the driver acquires a reference
        # on first use, shares the session's competition cache, and
        # releases — never closes — at emit-end.
        self._session: ExecSession | None = None
        self._external = session
        # whole-stream auto-resolution state
        self._cum_plan_cost = 0.0
        self._rows_planned = 0
        #: stream length when known up front (in-memory tables); None
        #: for CSV streams, where the cumulative cost stands in
        self._total_rows: int | None = None
        self._auto_process = False
        # the session competition cache: a per-clean stream sizes its
        # own at the first chunk's plan (so None until then even when
        # enabled); a stream on an external session reuses the
        # session's cache — the memo spans every clean of the resident
        # engine, not just this stream's chunks
        self._cache: CompetitionCache | None = (
            session.competition_cache if session is not None else None
        )
        # cross-chunk signature-repetition tracking for the dedup-aware
        # cost extrapolation (only maintained when the cache is off —
        # with it on the cumulative plan cost is already miss-only)
        self._stream_sigs: set[int] = set()
        self._chunk_uniq_total = 0
        # aggregated outcome
        self.competitions_run = 0
        self.n_chunks = 0
        self.total_shards = 0
        self.backend_counts: dict[str, int] = {}
        self.flags: dict[str, bool] = {}
        self.shm_used = False
        self.pools_created = 0
        self.snapshot_ships = 0
        self.incremental = False
        #: the block size chunks were actually cut at (None = whole table)
        self.effective_chunk_rows = self.cfg.chunk_rows

    # -- ingest -----------------------------------------------------------------

    def _table_chunks(self, table: Table, fitted: bool) -> Iterator[RowChunk]:
        """Slice an in-memory table into row blocks (one block covering
        everything when ``chunk_rows`` is off)."""
        n = table.n_rows
        step = self.cfg.chunk_rows or n
        if fitted:
            for index, start in enumerate(range(0, n, max(step, 1))):
                yield RowChunk(index, start, min(step, n - start), table=None)
        elif self.cfg.chunk_rows is None:
            if n:
                yield RowChunk(0, 0, n, table=table)
        else:
            for index, start in enumerate(range(0, n, step)):
                yield RowChunk(
                    index, start, min(step, n - start),
                    table=table.slice_rows(start, start + step),
                )

    def _csv_chunks(self, path, delimiter: str) -> Iterator[RowChunk]:
        """Stream a foreign CSV as row blocks under the fitted schema —
        the first block never waits for the rest of the file."""
        chunk_rows = self.cfg.chunk_rows or DEFAULT_CSV_CHUNK_ROWS
        self.effective_chunk_rows = chunk_rows
        start = 0
        for index, block in enumerate(
            iter_csv_chunks(
                path,
                chunk_rows,
                schema=self.engine.table.schema,
                delimiter=delimiter,
            )
        ):
            yield RowChunk(index, start, block.n_rows, table=block)
            start += block.n_rows

    # -- encode -----------------------------------------------------------------

    def _matrix(self) -> np.ndarray:
        if self._fitted_matrix is None:
            self._fitted_matrix = self.enc.matrix()
        return self._fitted_matrix

    def encode(self, chunk: RowChunk, fitted: bool) -> EncodedChunk:
        if fitted:
            stop = chunk.start + chunk.n_rows
            codes = self._matrix()[chunk.start : stop]
            weights = self.engine.cooc.row_weights[chunk.start : stop]
        else:
            codes = self.enc.encode_table(chunk.table)
            weights = np.ones(chunk.n_rows, dtype=np.float64)
        return EncodedChunk(chunk, codes, weights, fitted)

    # -- detect -----------------------------------------------------------------

    def _fitted_filter_scores(self, attr: str) -> np.ndarray:
        scores = self._fitted_filter.get(attr)
        if scores is None:
            scores = tuple_filter_scores_all_rows(self.engine.cooc, attr)
            self._fitted_filter[attr] = scores
        return scores

    def detect(self, encoded: EncodedChunk, stats: CleaningStats) -> DetectedChunk:
        """Tuple pruning (§6.2): mark reliable, non-NULL cells to skip.

        Outside PIP mode every cell is inspected and the masks stay
        empty.
        """
        chunk = encoded.chunk
        n = chunk.n_rows
        detected = DetectedChunk(encoded)
        if self.cfg.mode != InferenceMode.PARTITIONED_PRUNED:
            stats.cells_inspected += n * len(self.names)
            return detected
        for j, attr in enumerate(self.names):
            if encoded.fitted:
                filter_scores = self._fitted_filter_scores(attr)[
                    chunk.start : chunk.start + n
                ]
            else:
                filter_scores = tuple_filter_scores_coded(
                    self.engine.cooc, attr, encoded.codes, self.names
                )
            null_mask = self.enc.vocab(attr).null_mask
            skip_rows = (filter_scores >= self.cfg.tau_clean) & ~null_mask[
                encoded.codes[:, j]
            ]
            n_skipped = int(skip_rows.sum())
            stats.cells_skipped_pruning += n_skipped
            stats.cells_inspected += n - n_skipped
            detected.skip_rows[j] = skip_rows
        return detected

    # -- plan -------------------------------------------------------------------

    def plan(self, detected: DetectedChunk) -> PlannedChunk:
        """Deduplicate signatures, estimate costs, cut shards, and pick
        the backend (resolving ``executor="auto"`` from the stream-level
        cost estimate)."""
        cfg = self.cfg
        encoded = detected.encoded
        uniq_rows, first_rows, inverse = np.unique(
            encoded.codes, axis=0, return_index=True, return_inverse=True
        )
        inverse = inverse.reshape(-1)
        n_uniq = len(uniq_rows)
        uniq_weights = encoded.weights[first_rows]

        # An external-session stream computes row keys even un-chunked:
        # the resident session's cache can answer a signature seen by
        # any *earlier* clean, and fresh outcomes must be insertable.
        chunked = (
            self.effective_chunk_rows is not None or self._external is not None
        )
        row_keys: list[bytes] = (
            [uniq_rows[i].tobytes() for i in range(n_uniq)] if chunked else []
        )
        if chunked and not self._cache_enabled():
            self._track_signatures(row_keys)

        cached: dict[int, tuple] = {}
        work: list[tuple[int, str, np.ndarray]] = []
        for j, attr in enumerate(self.names):
            skip_rows = detected.skip_rows.get(j)
            if skip_rows is None:
                skip_uniq = np.zeros(n_uniq, dtype=bool)
            else:
                skip_uniq = skip_rows[first_rows]
            uids = np.nonzero(~skip_uniq)[0]
            uids, hits = partition_cached(
                self._cache, j, uids, row_keys, uniq_weights
            )
            if hits is not None:
                cached[j] = hits
            work.append((j, attr, uids))

        if cfg.executor == "serial" or (
            cfg.executor == "auto" and self.n_jobs == 1
        ):
            hint = 1
        else:
            hint = self.n_jobs * OVERSUBSCRIBE
        # Pool-size cost estimates steer the cost-balanced planner and
        # the auto-executor choice; one-shard-per-attribute (hint 1)
        # and fixed shard_size plans never read them, so skip the
        # estimation pass there.
        balancing = cfg.shard_size is None and hint > 1
        m = len(self.names)
        costed_work = [
            (
                j,
                attr,
                uids,
                estimate_competition_costs(
                    self.engine.cooc,
                    attr,
                    uniq_rows[uids],
                    [k for k in range(m) if k != j],
                    self.names,
                    cfg.effective_candidate_cap(),
                )
                if balancing
                else np.ones(len(uids), dtype=np.float64),
            )
            for j, attr, uids in work
        ]
        plan = plan_shards(costed_work, hint, cfg.shard_size)
        self._cum_plan_cost += plan.total_cost
        self._rows_planned += encoded.chunk.n_rows
        if (
            self._cache is None
            and self._external is None
            and self._cache_enabled()
        ):
            # The cache is created only now because the auto bound is
            # sized from this first chunk's extrapolated competition
            # count.  Its competitions were planned before any probe
            # could happen — count them as the misses they would have
            # been, so hits + misses equals the stream's probe total.
            bound = cfg.competition_cache or default_cache_entries(
                plan.n_competitions, self._rows_planned, self._total_rows
            )
            self._cache = CompetitionCache(bound)
            self._cache.misses += plan.n_competitions
        executor = self._resolve_backend(plan)
        return PlannedChunk(
            detected,
            uniq_rows,
            inverse,
            uniq_weights,
            [w[0] for w in work],
            plan,
            executor,
            row_keys=row_keys,
            cached=cached,
        )

    def _cache_enabled(self) -> bool:
        """Whether this stream carries the session competition cache:
        chunked streams can see a signature twice across their chunks,
        and a stream on an external (resident) session can see one
        across *cleans* — a whole-table clean on a private session
        deduplicates everything in its single plan, so only those stay
        uncached.  ``competition_cache=0`` disables it outright."""
        return self.cfg.competition_cache != 0 and (
            self.effective_chunk_rows is not None
            or self._external is not None
        )

    def _track_signatures(self, row_keys: list[bytes]) -> None:
        """Accumulate the cache-off stream's signature-repetition ratio
        for :meth:`_dedup_factor` (capped: past ``SIG_TRACK_CAP``
        distinct signatures the ratio freezes at its last value rather
        than growing driver memory without bound)."""
        if len(self._stream_sigs) >= SIG_TRACK_CAP:
            return
        self._chunk_uniq_total += len(row_keys)
        self._stream_sigs.update(hash(k) for k in row_keys)

    def _dedup_factor(self) -> float:
        """Observed stream-distinct / chunk-distinct signature ratio —
        the :func:`extrapolate_stream_cost` correction for signatures
        recurring across chunks.  1.0 with the cache active: its plans
        already cost only the misses, so discounting again would count
        the repetition twice."""
        if self._cache is not None or self._chunk_uniq_total <= 0:
            return 1.0
        return len(self._stream_sigs) / self._chunk_uniq_total

    def _resolve_backend(self, plan: ShardPlan) -> str:
        """Resolve ``executor="auto"`` for one chunk from the stream's
        cost, not the chunk's.

        Once a chunk has resolved to ``process`` the session's pool is
        warm, so every later chunk that can use it does — the marginal
        cost of a dispatch is one small payload ship, far below any
        re-decision threshold (unless pools are non-persistent, where
        each dispatch pays full price and the estimate must re-clear
        the bar).  Backend choice never affects results, only
        wall-clock.
        """
        cfg = self.cfg
        if cfg.executor != "auto":
            return cfg.executor
        # A resident session whose process pool is already warm extends
        # the same logic across cleans: the pool spawn and snapshot ship
        # were paid by an earlier stream, so this one inherits them.
        warm_resident = (
            self._external is not None and self._external.is_warm("process")
        )
        if (
            (self._auto_process or warm_resident)
            and cfg.persistent_pool
            and self.n_jobs > 1
            and plan.n_shards > 1
        ):
            self._auto_process = True
            return "process"
        # Without a persistent pool every process dispatch pays the full
        # spawn + snapshot ship again, so each chunk must clear the
        # threshold on its own cost — only a warm session may bill the
        # fixed costs to the stream.
        cost = (
            extrapolate_stream_cost(
                self._cum_plan_cost,
                self._rows_planned,
                self._total_rows,
                dedup_factor=self._dedup_factor(),
            )
            if cfg.persistent_pool
            else plan.total_cost
        )
        resolved = resolve_executor("auto", cost, plan.n_shards, self.n_jobs)
        if resolved == "process":
            self._auto_process = True
        return resolved

    # -- execute + merge --------------------------------------------------------

    def session(self) -> ExecSession:
        """The stream's execution session (opened on first use): one
        worker pool and one static-snapshot ship for the whole stream.

        With an external (resident) session the driver takes a
        reference on it instead of building its own — the pool, the
        shipped snapshot, and the competition cache all belong to the
        resident engine and survive this stream."""
        if self._session is None:
            if self._external is not None:
                self._session = self._external.acquire()
            else:
                self._session = ExecSession(
                    self.engine.fit_state(self.scorer),
                    self.n_jobs,
                    persistent=self.cfg.persistent_pool,
                    competition_cache=self._cache,
                    tracer=self.tracer,
                )
        return self._session

    def _close_session(self) -> None:
        """End of stream: fold the session's pool/ship counters into the
        driver's diagnostics, then join workers and release segments —
        or, for an external session, just drop the stream's reference
        (the resident engine owns the lifetime; ``ExecSession.close``
        emits the ``session_close`` trace event when it really ends)."""
        if self._session is None:
            return
        self.pools_created = self._session.pools_created
        self.snapshot_ships = self._session.snapshot_ships
        if self._external is not None:
            self._session.release()
        else:
            self._session.close()
        self._session = None

    def dispatch_chunk(self, planned: PlannedChunk) -> list:
        """The execute stage proper: pack the chunk view and run the
        planned shards on the session's backend (an all-cache-hit chunk
        dispatches nothing)."""
        cfg = self.cfg
        engine = self.engine
        names = self.names
        session = self.session()
        if planned.plan.shards:
            view = ChunkView(
                planned.uniq_rows,
                planned.uniq_weights,
                {a: self.enc.vocab(a).null_mask for a in names},
                {a: engine._uc_code_mask(a) for a in names}
                if cfg.use_ucs
                else {},
            )
            results = session.dispatch(
                planned.executor, view, planned.plan.shards
            )
        else:
            # every competition of this chunk was answered from the
            # session cache — nothing to ship, no pool gets created
            results = []
        self.total_shards += planned.plan.n_shards
        self.backend_counts[planned.executor] = (
            self.backend_counts.get(planned.executor, 0) + 1
        )
        self.flags.update(session.flags())
        if session.shm_used:
            self.shm_used = True
        return results

    def merge_chunk(
        self, planned: PlannedChunk, results: list, stats: CleaningStats
    ) -> ChunkDecisions:
        """The merge stage: scatter shard results (and cache hits) into
        decision buffers, then feed fresh outcomes to the session
        cache."""
        merged = merge_shard_results(
            results,
            len(planned.uniq_rows),
            planned.columns,
            cached=planned.cached or None,
        )
        if self._cache is not None:
            self._insert_results(planned, results)
        stats.candidates_evaluated += merged.candidates_evaluated
        stats.candidates_filtered_uc += merged.candidates_filtered_uc
        self.competitions_run += merged.n_competitions + merged.n_cached
        return ChunkDecisions(planned, merged)

    def execute(self, planned: PlannedChunk, stats: CleaningStats) -> ChunkDecisions:
        """Execute + merge in one call (the pipeline's ``run`` keeps the
        stages apart so each gets its own trace span)."""
        return self.merge_chunk(planned, self.dispatch_chunk(planned), stats)

    def _insert_results(self, planned: PlannedChunk, results) -> None:
        """Insert the chunk's freshly computed competition outcomes into
        the session cache, after the deterministic merge — so later
        chunks (and a future resident session's later cleans) answer
        the same competition identity without dispatching."""
        cache = self._cache
        keys = planned.row_keys
        weights = planned.uniq_weights
        for result in results:
            j = result.column
            for pos in range(len(result.uids)):
                uid = int(result.uids[pos])
                cache.put(
                    competition_key(j, float(weights[uid]), keys[uid]),
                    (
                        int(result.decided[pos]),
                        float(result.incumbent_scores[pos]),
                        float(result.best_scores[pos]),
                    ),
                )

    # -- emit -------------------------------------------------------------------

    def emit(self, decisions: ChunkDecisions, sink) -> list[Repair]:
        """Broadcast per-signature decisions back to every row of the
        chunk, in the scalar path's row-major repair order; returns the
        chunk's repair list for the outer (chunk-level) merge."""
        planned = decisions.planned
        merged = decisions.merged
        chunk = planned.detected.encoded.chunk
        for local_i in range(chunk.n_rows):
            uid = planned.inverse[local_i]
            for j, attr in enumerate(self.names):
                code = merged.decided[j][uid]
                if code >= 0:
                    sink.repair(
                        chunk,
                        local_i,
                        j,
                        attr,
                        self.enc.decode(attr, int(code)),
                        float(merged.incumbent_scores[j][uid]),
                        float(merged.best_scores[j][uid]),
                    )
        return sink.chunk_done(chunk)

    # -- drivers ----------------------------------------------------------------

    def run(
        self,
        chunks: Iterable[RowChunk],
        fitted: bool,
        stats: CleaningStats,
        sink,
    ) -> list[Repair]:
        """Push every chunk through encode → detect → plan → execute →
        merge → emit, then concatenate the per-chunk repairs.  Chunks
        are processed strictly one at a time, so peak memory is one
        block plus the frozen fit statistics.  The execution session —
        worker pool, shipped snapshot — spans all chunks and is closed
        (workers joined, segments released) by the pull that observes
        end-of-stream, or on the way out of a failed stream.

        Each stage of each chunk runs under its own trace span (a no-op
        with tracing disabled); the plan span carries the chunk's cache
        probe/hit deltas, so per-chunk cache effectiveness is readable
        straight off the trace.
        """
        self.incremental = not fitted
        m = len(self.names)
        per_chunk: list[list[Repair]] = []
        tracer = self.tracer
        it = iter(chunks)
        try:
            while True:
                # ingest is the pull itself: for CSV streams this span
                # is the disk read + parse of the next block.  The pull
                # that observes end-of-stream also closes the session,
                # so its teardown (joining spawned workers takes tenths
                # of a second) is accounted to a stage, not lost.
                with tracer.span("ingest", cat="stream"):
                    chunk = next(it, None)
                    if chunk is None:
                        self._close_session()
                if chunk is None:
                    break
                if chunk.n_rows == 0:
                    continue
                self.n_chunks += 1
                stats.cells_total += chunk.n_rows * m
                if m == 0:
                    continue
                with tracer.span("encode", cat="stream", chunk=chunk.index):
                    encoded = self.encode(chunk, fitted)
                with tracer.span("detect", cat="stream", chunk=chunk.index):
                    detected = self.detect(encoded, stats)
                with tracer.span("plan", cat="stream", chunk=chunk.index) as span:
                    hits0, misses0 = self._cache_counts()
                    planned = self.plan(detected)
                    if self._cache is not None:
                        hits1, misses1 = self._cache_counts()
                        span.add(
                            cache_probes=(hits1 - hits0) + (misses1 - misses0),
                            cache_hits=hits1 - hits0,
                        )
                with tracer.span(
                    "execute", cat="stream", chunk=chunk.index,
                    backend=planned.executor,
                    n_shards=planned.plan.n_shards,
                ):
                    results = self.dispatch_chunk(planned)
                with tracer.span("merge", cat="stream", chunk=chunk.index):
                    decisions = self.merge_chunk(planned, results, stats)
                with tracer.span("emit", cat="stream", chunk=chunk.index):
                    per_chunk.append(self.emit(decisions, sink))
        finally:
            self._close_session()
        return concat_chunk_repairs(per_chunk)

    def _cache_counts(self) -> tuple[int, int]:
        cache = self._cache
        return (cache.hits, cache.misses) if cache is not None else (0, 0)

    def clean_table(
        self,
        table: Table,
        fitted: bool,
        stats: CleaningStats,
        cleaned: Table,
        repairs: list[Repair],
    ) -> None:
        """The in-memory clean: whole-table (one chunk) or chunked."""
        self._total_rows = table.n_rows
        sink = TableSink(table, cleaned)
        repairs.extend(
            self.run(self._table_chunks(table, fitted), fitted, stats, sink)
        )

    def clean_csv(
        self,
        src,
        dst,
        stats: CleaningStats,
        repairs: list[Repair],
        delimiter: str = ",",
    ) -> None:
        """The out-of-core clean: CSV in, CSV out, one block resident."""
        with open(dst, "w", newline="", encoding="utf-8") as handle:
            write_csv_header(handle, self.engine.table.schema, delimiter=delimiter)
            sink = CsvSink(handle, delimiter=delimiter)
            repairs.extend(
                self.run(self._csv_chunks(src, delimiter), False, stats, sink)
            )

    # -- diagnostics ------------------------------------------------------------

    def exec_diagnostics(self, requested: str) -> dict:
        """The ``exec`` diagnostics block (same shape as before the
        pipeline refactor, plus auto/shm annotations)."""
        if self.n_chunks <= 1 and requested != "auto":
            n_jobs = 1 if requested == "serial" else self.n_jobs
        else:
            resolved = set(self.backend_counts)
            n_jobs = 1 if resolved <= {"serial"} else self.n_jobs
        diag = {
            "executor": requested,
            "n_jobs": n_jobs,
            "n_shards": self.total_shards,
            "incremental_encoding": self.incremental,
        }
        if requested == "auto":
            # Report the stream's sticky resolution, chunked or not: a
            # stream that ever went to process stays there (the pool is
            # warm), so that is its resolved backend even if early
            # cheap chunks ran serial before the estimate crossed the
            # threshold.
            if self._auto_process or "process" in self.backend_counts:
                diag["resolved"] = "process"
            else:
                diag["resolved"] = next(iter(self.backend_counts), "serial")
        diag.update(self.flags)
        if self.shm_used:
            diag["shm"] = True
        return diag

    def stream_diagnostics(self) -> dict:
        """The ``stream`` diagnostics block (chunked runs only),
        mirroring the ``fit_exec`` shape: chunk count, per-backend
        chunk counts, shared-memory usage, and the session's
        amortisation counters — a healthy persistent ``process`` stream
        shows ``pools_created == 1`` and ``snapshot_ships == 1``
        however many chunks ran.  The competition-cache counters ride
        along: on a repetitive stream ``cache_hits`` counts the
        competitions answered without any dispatch (all three stay 0
        when the cache is disabled)."""
        out = {
            "chunk_rows": self.effective_chunk_rows,
            "n_chunks": self.n_chunks,
            "backends": dict(sorted(self.backend_counts.items())),
            "shm": self.shm_used,
            "pools_created": self.pools_created,
            "snapshot_ships": self.snapshot_ships,
        }
        if self._cache is not None:
            out.update(self._cache.stats())
        else:
            out.update(
                {"cache_hits": 0, "cache_misses": 0, "cache_evictions": 0}
            )
        return out


#: CSV block size when ``clean_csv`` runs without an explicit
#: ``chunk_rows`` — small enough to bound memory, large enough that
#: per-chunk dedup still collapses most repeated signatures.
DEFAULT_CSV_CHUNK_ROWS = 4096

#: distinct-signature tracking cap for the cache-off dedup factor —
#: past it the factor freezes instead of growing the driver's hash set
#: without bound (the set holds Python ints: ~60 MB at the cap).
SIG_TRACK_CAP = 1 << 21
