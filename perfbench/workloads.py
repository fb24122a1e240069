"""The three benchmark workloads: inputs, set-up, timed window, checks.

Each workload is a class with these steps:

- ``prepare(work, seed)`` runs in the launcher (``run.py``) and writes
  every input file into the run's work directory, so the measured
  worker process never holds the generator's tables;
- ``setup(work, trace)`` runs in a fresh worker process and brings the
  system to ready (the launcher times it from process spawn, so
  interpreter start and ``import repro`` count as set-up);
- ``run(seconds)`` is the timed window, returning a :class:`Window`;
  only ``op()`` is timed, and ``record()`` digests its result and
  parses its trace after the clock has stopped;
- ``verify()`` returns a list of problems, empty when every output is
  correct;
- ``layers()`` returns the per-layer numbers of a traced run.

Each workload's shape is taken from what the repository already runs
(``README.md`` names the source of every parameter and the ones that
are assumptions):

- ``fit_clean``: in-memory ``fit`` then whole-table ``clean`` of
  120-row hospital tables, the input the repository's verify recipe
  drives ``repro clean --variant pip`` with — every fit phase and the
  competition kernel, with no competition cache and no streaming;
- ``stream``: ``BENCH_stream``'s cached run at a fifth of its rows —
  ``fit_csv`` of 300 soccer rows, then ``clean_csv`` of an 8x resample
  in 256-row chunks with the auto-sized competition cache — mergeable
  sufficient statistics, the chunk stages and cross-chunk cache hits;
- ``serve``: the request phase of ``repro serve`` — ten request CSVs
  of six hospital rows each (``tests/test_serve.py``) submitted
  concurrently to a fresh ``BCleanService`` on a model reloaded from
  the registry, with the CLI's default serial executor and auto-sized
  cache — micro-batching, the resident session and demultiplexing.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.core.config import BCleanConfig
from repro.core.engine import BClean
from repro.data.benchmark import dataset_spec, load_benchmark
from repro.dataset.io import read_csv, write_csv
from repro.evaluation.metrics import evaluate_repairs
from repro.serve import BCleanService, ModelRegistry

#: trace span name -> per-layer metric (milliseconds per unit of work:
#: one fit→clean op, one stream op, or one serving tick)
SPAN_METRICS = {
    "fit": "fit_ms",
    "fit.stream": "fit_stream_ms",
    "fit.cooccurrence": "fit_cooccurrence_ms",
    "fit.structure": "fit_structure_ms",
    "fit.cpts": "fit_cpts_ms",
    "clean": "clean_ms",
    "serve.batch": "clean_ms",
    "ingest": "ingest_ms",
    "encode": "encode_ms",
    "detect": "detect_ms",
    "plan": "plan_ms",
    "execute": "execute_ms",
    "merge": "merge_ms",
    "emit": "emit_ms",
}

#: per-layer numbers read from results rather than spans (per unit of
#: work; 0 where a workload does not exercise the layer)
COUNT_METRICS = (
    "competitions",
    "cache_hits",
    "cache_hit_rate",
    "repairs",
    "batch_requests",
)


@dataclass
class Window:
    """What one timed window produced: latency samples (ms) grouped by
    input, and the operations that failed."""

    samples_ms: dict[int, list[float]] = field(default_factory=dict)
    failed: int = 0

    def all_samples(self) -> list[float]:
        return [ms for group in self.samples_ms.values() for ms in group]

    def best_ms(self) -> float:
        """Mean over inputs of each input's fastest op.

        Other tenants of a shared host slow whole seconds of a run at a
        time, and that noise only ever adds; the fastest of an input's
        repeats is the estimate of its cost that such noise moves least.
        """
        return statistics.fmean(min(group) for group in self.samples_ms.values())


def repairs_digest(repairs) -> str:
    """Order-sensitive hash of every repair, scores included."""
    digest = hashlib.sha256()
    for r in repairs:
        digest.update(
            repr(
                (r.row, r.attribute, r.old_value, r.new_value,
                 r.old_score, r.new_score)
            ).encode()
        )
    return digest.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def same_decisions(want, got) -> bool:
    """Same cells repaired to the same values, scores within 1e-9 (the
    scalar oracle sums its scores in another order)."""
    if len(want) != len(got):
        return False
    return all(
        (w.row, w.attribute, w.old_value, w.new_value)
        == (g.row, g.attribute, g.old_value, g.new_value)
        and abs(w.old_score - g.old_score) <= 1e-9
        and abs(w.new_score - g.new_score) <= 1e-9
        for w, g in zip(want, got)
    )


def trace_events(path: Path) -> list[tuple[str, float, float]]:
    """``(name, start_us, dur_us)`` of every complete event in a Chrome
    trace file."""
    with open(path, encoding="utf-8") as handle:
        events = json.load(handle)["traceEvents"]
    return [
        (e["name"], float(e["ts"]), float(e["dur"]))
        for e in events
        if e.get("ph") == "X"
    ]


def span_ms(events, lo: float = float("-inf"), hi: float = float("inf")) -> dict:
    """Milliseconds per :data:`SPAN_METRICS` metric, over the spans that
    start inside ``[lo, hi]`` (microseconds)."""
    out = dict.fromkeys(SPAN_METRICS.values(), 0.0)
    for name, start, dur in events:
        metric = SPAN_METRICS.get(name)
        if metric is not None and lo <= start <= hi:
            out[metric] += dur / 1000.0
    return out


def mean_of(rows: list[dict]) -> dict:
    """Per-key mean over a list of equally keyed dicts."""
    if not rows:
        return {}
    return {key: statistics.fmean(row[key] for row in rows) for key in rows[0]}


class Workload:
    """Defaults shared by the workloads."""

    #: inputs the ops cycle over: op k uses input ``k % n_inputs``
    n_inputs = 1

    def run(self, seconds: float) -> Window:
        """Run ops until ``seconds`` have passed; a raising op counts as
        failed.  Only ``op()`` is timed."""
        window = Window()
        start = time.perf_counter()
        k = 0
        while True:
            i = k % self.n_inputs
            # Every op starts from a collected heap, so garbage left by
            # the previous op is not charged to this one.
            gc.collect()
            t0 = time.perf_counter()
            try:
                out = self.op(i)
            except Exception:  # noqa: BLE001 - a failed op is reported, not fatal
                out = None
                window.failed += 1
            t1 = time.perf_counter()
            window.samples_ms.setdefault(i, []).append((t1 - t0) * 1000.0)
            if out is not None:
                self.record(i, out)
            k += 1
            if time.perf_counter() - start >= seconds:
                return window

    def close(self) -> None:
        pass

    def layers(self) -> dict:
        return mean_of(self.units)

    def _load(self, work: Path, trace: bool) -> None:
        self.work = work
        self.trace = trace
        spec = dataset_spec(self.dataset)
        self.schema = spec.module.schema()
        self.constraints = spec.constraints()
        self.units: list[dict] = []

    def _read(self, name: str):
        return read_csv(self.work / name, schema=self.schema)

    def _trace_path(self) -> str | None:
        return str(self.work / "trace.json") if self.trace else None


class FitClean(Workload):
    """Fit then clean, in memory, cycling over fresh hospital tables of
    the size the repository's verify recipe drives ``repro clean`` with."""

    dataset = "hospital"
    n_rows = 120
    n_inputs = 2
    #: F1 against ground truth every cleaned table must reach (tables of
    #: this size land between 0.7 and 0.95)
    min_f1 = 0.5

    def prepare(self, work: Path, seed: int) -> None:
        for i in range(self.n_inputs):
            inst = load_benchmark(
                self.dataset, n_rows=self.n_rows, seed=seed * 100 + i
            )
            write_csv(inst.dirty, work / f"dirty_{i}.csv")
            write_csv(inst.clean, work / f"truth_{i}.csv")

    def setup(self, work: Path, trace: bool) -> None:
        self._load(work, trace)
        self.tables = [self._read(f"dirty_{i}.csv") for i in range(self.n_inputs)]
        self.digests: dict[int, set] = {}
        self.cleaned: dict = {}

    def _engine(self, i: int, columnar: bool = True) -> BClean:
        config = BCleanConfig.pip(use_columnar=columnar, trace=self._trace_path())
        return BClean(config, self.constraints).fit(self.tables[i])

    def op(self, i: int):
        return self._engine(i).clean()

    def record(self, i: int, result) -> None:
        self.digests.setdefault(i, set()).add(repairs_digest(result.repairs))
        self.cleaned.setdefault(i, result.cleaned)
        if self.trace:
            unit = span_ms(trace_events(self.work / "trace.json"))
            unit.update(
                competitions=result.diagnostics["cache_size"],
                repairs=len(result.repairs),
            )
            self.units.append(unit)

    def verify(self) -> list[str]:
        problems = []
        for i, digests in sorted(self.digests.items()):
            if len(digests) != 1:
                problems.append(f"table {i}: repairs differ between passes")
            truth = self._read(f"truth_{i}.csv")
            f1 = evaluate_repairs(self.tables[i], self.cleaned[i], truth).f1
            if f1 < self.min_f1:
                problems.append(f"table {i}: F1 {f1:.3f} below {self.min_f1}")
        # The scalar per-cell path is the oracle: the columnar engine
        # must make the same decisions.
        want = self._engine(0, columnar=False).clean().repairs
        if not same_decisions(want, self._engine(0).clean().repairs):
            problems.append("table 0: columnar repairs differ from the scalar oracle")
        return problems


class Stream(Workload):
    """Out-of-core fit and clean: ``BENCH_stream``'s shape (soccer, an
    8x resample, streamed fit, chunked clean, auto-sized cache) at a
    fifth of its rows."""

    dataset = "soccer"
    #: training rows; under ``BCleanConfig.fit_reservoir_rows`` so the
    #: streamed fit is exact, hence comparable with the in-memory one
    train_rows = 300
    #: rows to clean: a resample of the training rows, so signatures
    #: recur across chunks and the competition cache answers them
    stream_rows = 2400
    #: the smaller of the chunk sizes ``BENCH_stream`` and
    #: ``BENCH_fit_stream`` measure
    fit_chunk_rows = 256
    chunk_rows = 256
    n_inputs = 2
    #: errors are resampled along with the rows they sit in, so F1 on the
    #: stream is lower and varies more than on the training table
    min_f1 = 0.2

    def prepare(self, work: Path, seed: int) -> None:
        for i in range(self.n_inputs):
            inst = load_benchmark(
                self.dataset, n_rows=self.train_rows, seed=seed * 100 + i
            )
            rng = np.random.default_rng(seed * 100 + i)
            rows = rng.integers(0, inst.dirty.n_rows, size=self.stream_rows)
            write_csv(inst.dirty, work / f"train_{i}.csv")
            write_csv(inst.dirty.take(rows.tolist()), work / f"stream_{i}.csv")
            write_csv(inst.clean.take(rows.tolist()), work / f"truth_{i}.csv")

    def setup(self, work: Path, trace: bool) -> None:
        self._load(work, trace)
        self.outputs: dict[int, set] = {}

    def op(self, i: int):
        config = BCleanConfig.pip(
            fit_chunk_rows=self.fit_chunk_rows,
            chunk_rows=self.chunk_rows,
            trace=self._trace_path(),
        )
        engine = BClean(config, self.constraints)
        engine.fit_csv(self.work / f"train_{i}.csv", schema=self.schema)
        return engine.clean_csv(self.work / f"stream_{i}.csv", self.work / f"out_{i}.csv")

    def record(self, i: int, result) -> None:
        self.outputs.setdefault(i, set()).add(
            (repairs_digest(result.repairs), file_digest(self.work / f"out_{i}.csv"))
        )
        if self.trace:
            stream = result.diagnostics["stream"]
            hits, misses = stream["cache_hits"], stream["cache_misses"]
            unit = span_ms(trace_events(self.work / "trace.json"))
            unit.update(
                competitions=result.diagnostics["cache_size"],
                cache_hits=hits,
                cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
                repairs=len(result.repairs),
            )
            self.units.append(unit)

    def verify(self) -> list[str]:
        problems = []
        for i, outputs in sorted(self.outputs.items()):
            if len(outputs) != 1:
                problems.append(f"input {i}: outputs differ between passes")
            # Reference: the same model fitted and applied in memory.
            stream = self._read(f"stream_{i}.csv")
            engine = BClean(BCleanConfig.pip(), self.constraints)
            result = engine.fit(self._read(f"train_{i}.csv")).clean(stream)
            ref = self.work / f"ref_{i}.csv"
            write_csv(result.cleaned, ref)
            if outputs != {(repairs_digest(result.repairs), file_digest(ref))}:
                problems.append(f"input {i}: streamed output differs from in-memory")
            truth = self._read(f"truth_{i}.csv")
            f1 = evaluate_repairs(stream, result.cleaned, truth).f1
            if f1 < self.min_f1:
                problems.append(f"input {i}: F1 {f1:.3f} below {self.min_f1}")
        return problems


class Serve(Workload):
    """The request phase of ``repro serve`` on a registry-reloaded
    model: one op submits one set of request CSVs concurrently through
    a fresh ``BCleanService`` and writes the cleaned CSVs."""

    dataset = "hospital"
    #: training rows (the size the repository's engine benchmarks fit)
    train_rows = 1500
    #: requests per op and rows per request, as ``tests/test_serve.py``
    n_requests = 10
    request_rows = 6
    #: distinct request sets the ops cycle over
    n_inputs = 2

    def prepare(self, work: Path, seed: int) -> None:
        n_request_rows = self.n_inputs * self.n_requests * self.request_rows
        inst = load_benchmark(
            self.dataset, n_rows=self.train_rows + n_request_rows, seed=seed
        )
        write_csv(inst.dirty.head(self.train_rows), work / "train.csv")
        # Requests mix rows the model was fitted on with rows it never saw.
        order = np.random.default_rng(seed).permutation(inst.dirty.n_rows)
        rows = inst.dirty.take(order[:n_request_rows].tolist())
        write_csv(rows, work / "requests.csv")
        step = self.request_rows
        for r in range(self.n_inputs * self.n_requests):
            write_csv(rows.slice_rows(r * step, (r + 1) * step), work / f"req_{r}.csv")
        # The first `repro serve` run fits the model into the registry.
        ModelRegistry(work / "models").fit_or_load(
            read_csv(work / "train.csv", schema=inst.dirty.schema),
            BCleanConfig.pip(),
            constraints=dataset_spec(self.dataset).constraints(),
        )

    def setup(self, work: Path, trace: bool) -> None:
        # A later `repro serve` run reloads it.
        self._load(work, trace)
        self.engine, self.loaded = ModelRegistry(work / "models").fit_or_load(
            self._read("train.csv"),
            BCleanConfig.pip(trace=self._trace_path()),
            constraints=self.constraints,
        )
        (work / "served").mkdir(exist_ok=True)
        self.digests: dict[int, set] = {}
        self.repairs = 0
        self.ticks = 0
        self.served = 0
        self.hits = 0
        self.misses = 0

    def op(self, i: int):
        names = [
            f"req_{i * self.n_requests + j}.csv" for j in range(self.n_requests)
        ]
        tables = [self._read(name) for name in names]
        with BCleanService(self.engine) as service:
            with ThreadPoolExecutor(max_workers=len(tables)) as pool:
                results = list(pool.map(service.submit, tables))
            diag = service.diagnostics()
        for name, result in zip(names, results):
            write_csv(result.cleaned, self.work / "served" / name)
        return results, diag

    def record(self, i: int, out) -> None:
        results, diag = out
        for j, result in enumerate(results):
            request = i * self.n_requests + j
            self.digests.setdefault(request, set()).add(
                repairs_digest(result.repairs)
            )
            self.repairs += len(result.repairs)
        self.ticks += diag["batches"]
        self.served += diag["requests"]
        self.hits += diag.get("cache_hits", 0)
        self.misses += diag.get("cache_misses", 0)

    def close(self) -> None:
        self.engine.close_session()

    def verify(self) -> list[str]:
        self.close()
        problems = [] if self.loaded else ["model was refitted, not reloaded"]
        rows = self._read("requests.csv")
        if self.trace:
            # Writing the trace takes one more clean on the traced
            # engine; only spans inside serving ticks count, plus the
            # fit phases of the registry reload.
            self.engine.clean(rows.slice_rows(0, self.request_rows),
                              trace=self._trace_path())
            events = trace_events(self.work / "trace.json")
            fit = span_ms([e for e in events if e[0].startswith("fit")])
            for name, start, dur in events:
                if name == "serve.batch":
                    unit = span_ms(events, start, start + dur)
                    unit.update({k: v for k, v in fit.items() if k.startswith("fit")})
                    self.units.append(unit)
        # Reference: one serial in-memory clean of all request rows on an
        # engine fitted in memory from the training CSV, cut back into
        # requests (each repair depends only on its own row).
        reference = BClean(BCleanConfig.pip(), self.constraints)
        reference.fit(self._read("train.csv"))
        want: dict[int, list] = {}
        for r in reference.clean(rows).repairs:
            request, row = divmod(r.row, self.request_rows)
            want.setdefault(request, []).append(replace(r, row=row))
        problems += [
            f"request {request}: served repairs differ"
            for request, digests in sorted(self.digests.items())
            if digests != {repairs_digest(want.get(request, []))}
        ]
        if self.repairs == 0:
            problems.append("no request was repaired")
        return problems

    def layers(self) -> dict:
        out = mean_of(self.units)
        ticks = max(1, self.ticks)
        out.update(
            # each competition a tick needs is a cache hit or a miss
            competitions=(self.hits + self.misses) / ticks,
            repairs=self.repairs / ticks,
            batch_requests=self.served / ticks,
            cache_hits=self.hits / ticks,
            cache_hit_rate=(
                self.hits / (self.hits + self.misses) if self.hits + self.misses else 0.0
            ),
        )
        return out


WORKLOADS = {"fit_clean": FitClean, "stream": Stream, "serve": Serve}
