"""Sharded parallel execution of the cleaning workload.

The subsystem turns ``BClean.clean()`` into a planned, sharded job:

- :mod:`repro.exec.planner` slices the deduplicated competition list
  into cost-balanced :class:`~repro.exec.planner.Shard`\\ s;
- :mod:`repro.exec.state` freezes the fitted statistics into a
  picklable, read-only :class:`~repro.exec.state.FitState` whose
  :meth:`~repro.exec.state.FitState.run_shard` kernel runs all of a
  shard's competitions as segment operations;
- :mod:`repro.exec.backends` executes shards serially, on a thread
  pool, or on a process pool (``BCleanConfig.executor``), scoped to a
  :class:`~repro.exec.session.ExecSession` that owns the pool and
  shared-memory lifecycle for a whole job stream — one pool spawn and
  one static-snapshot ship per ``clean()`` (or ``fit()``), however
  many chunks dispatch (``BCleanConfig.persistent_pool``);
- :mod:`repro.exec.merge` reassembles shard results deterministically;
- :mod:`repro.exec.cache` memoises competition outcomes across the row
  chunks of one session (``BCleanConfig.competition_cache``), so a
  signature recurring in several chunks dispatches its competition
  exactly once per stream.

Every shard is a pure function of the snapshot, so all backends and
shard counts produce byte-identical ``CleaningResult``\\ s.

``fit()`` is sharded through the same planner and backends:
:mod:`repro.exec.fit` dispatches the per-attribute-pair co-occurrence
builds and per-node CPT count passes (``BCleanConfig.fit_executor``),
merging results deterministically by task index — the fitted statistics
are byte-identical to the serial build.

On top of those seams, :mod:`repro.exec.stream` stages the clean as an
explicit pipeline (ingest → encode → detect → plan → execute → merge →
emit) over :class:`~repro.exec.stream.RowChunk`\\ s — enabling
out-of-core chunked cleaning with byte-identical repairs —
:mod:`repro.exec.shm` ships process-backend snapshots through one
shared-memory segment instead of per-worker pickles, and
:func:`~repro.exec.planner.resolve_executor` turns ``executor="auto"``
into serial/process from the plan's cost estimate.
"""

from repro.exec.backends import (
    EXECUTOR_NAMES,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.exec.cache import CompetitionCache, competition_key
from repro.exec.fit import (
    FitJobState,
    FitShardResult,
    FitTasks,
    build_fit_state,
    run_fit_job,
    run_mmpc_job,
    run_score_job,
    sharded_family_arrays,
    sharded_pair_arrays,
)
from repro.exec.fit_stream import (
    DEFAULT_CHUNK_ROWS,
    DEFAULT_RESERVOIR_ROWS,
    SuffStats,
    estimate_stream_fit_cost,
    iter_table_chunks,
    suffstats_from_chunks,
    suffstats_from_csv,
    suffstats_from_table,
)
from repro.exec.merge import (
    MergedDecisions,
    concat_chunk_repairs,
    merge_shard_results,
)
from repro.exec.planner import (
    AUTO_CLEAN_COST_THRESHOLD,
    AUTO_FIT_COST_THRESHOLD,
    CACHE_MAX_ENTRIES,
    CACHE_MIN_ENTRIES,
    OVERSUBSCRIBE,
    Shard,
    ShardPlan,
    default_cache_entries,
    estimate_competition_costs,
    extrapolate_stream_cost,
    partition_cached,
    plan_shards,
    resolve_executor,
)
from repro.exec.session import ExecSession
from repro.exec.state import ChunkView, FitState, ShardResult
from repro.exec.stream import (
    CsvSink,
    RowChunk,
    StreamDriver,
    TableSink,
)

__all__ = [
    "AUTO_CLEAN_COST_THRESHOLD",
    "AUTO_FIT_COST_THRESHOLD",
    "CACHE_MAX_ENTRIES",
    "CACHE_MIN_ENTRIES",
    "ChunkView",
    "DEFAULT_CHUNK_ROWS",
    "DEFAULT_RESERVOIR_ROWS",
    "CompetitionCache",
    "CsvSink",
    "EXECUTOR_NAMES",
    "ExecSession",
    "FitJobState",
    "FitShardResult",
    "FitState",
    "FitTasks",
    "MergedDecisions",
    "OVERSUBSCRIBE",
    "ProcessBackend",
    "RowChunk",
    "SerialBackend",
    "Shard",
    "ShardPlan",
    "ShardResult",
    "StreamDriver",
    "SuffStats",
    "TableSink",
    "ThreadBackend",
    "build_fit_state",
    "competition_key",
    "concat_chunk_repairs",
    "default_cache_entries",
    "estimate_competition_costs",
    "estimate_stream_fit_cost",
    "extrapolate_stream_cost",
    "get_backend",
    "iter_table_chunks",
    "merge_shard_results",
    "partition_cached",
    "plan_shards",
    "resolve_executor",
    "run_fit_job",
    "run_mmpc_job",
    "run_score_job",
    "sharded_family_arrays",
    "sharded_pair_arrays",
    "suffstats_from_chunks",
    "suffstats_from_csv",
    "suffstats_from_table",
]
