"""Benchmark — serving-engine routing overhead and sharded dispatch.

The engine fronts deployments by *name*; the redesign's contract is that
this indirection is operationally free.  Two measurements:

* **Dispatch overhead** — ``ServingEngine.locate_points(name, ...)`` vs a
  direct ``PartitionServer.locate_points`` call on the identical 10^6-point
  batch (10^5 and, with ``REPRO_BENCH_FULL=1``, 10^7 are also reported).
  Asserted: <= 10% overhead at 10^6 points — the engine adds one dict
  lookup and three counters to a multi-millisecond batch.
* **Sharded dispatch** — the same batches through 2x2 and 4x4
  :class:`~repro.serving.sharding.ShardedDeployment` tilings, which
  answer with one ``take`` from their merged label array.  Asserted: the
  2x2 tiling holds *parity with the monolithic server* at 10^6 points
  (within a small noise allowance) — sharding is free until you need
  it.  Every tiling is checked bit-equal to the monolithic result.

Every table lands in ``routing_dispatch.txt``.  Timings are best of
``REPEATS``, and every candidate at one batch size is timed in
*interleaved round-robin* order — one repetition of each candidate per
round, not one candidate's whole loop after another's — so CPU-frequency
and scheduler drift over the run hits all candidates alike instead of
biasing whichever was timed last.  The gates (``overhead_pct``,
``sharded_overhead_pct``, ``off_overhead_pct``) read the median ratio
over ``OVERHEAD_PAIRS`` back-to-back (direct, candidate) pairs instead,
so one slow or lucky call cannot decide them.  Tables are written only
after a test's assertions pass, so a red run can never overwrite a
committed green table.
"""

import statistics
import time
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from bench_utils import record_output

from repro.config import DatasetConfig, GridConfig
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.datasets.edgap import load_edgap_city
from repro.experiments.reporting import format_table
from repro.serving import PartitionServer, ServingEngine, ShardedDeployment

#: Batch sizes swept by default; REPRO_BENCH_FULL adds the 10^7 tier.
SIZES = (100_000, 1_000_000)
FULL_SIZES = (100_000, 1_000_000, 10_000_000)

#: Best-of repetitions per timing (damps scheduler noise).
REPEATS = 7

#: Maximum tolerated engine overhead at the 10^6-point tier.
MAX_OVERHEAD = 0.10

#: Interleaved (direct, candidate) pairs behind each overhead gate.
OVERHEAD_PAIRS = 21

#: Noise allowance on the sharded-parity assertion.  A sharded deployment
#: runs the monolithic dense server's own kernel (``Grid.cell_ids`` and
#: one ``take`` from flat labels with a ``-1`` sentinel slot), so its true
#: overhead is ~0%; the allowance covers what is left of per-process and
#: per-round noise in the paired median.  The assertion's job is to catch
#: *regressions* — a scatter/gather over tiles is a +200% signal.
PARALLEL_NOISE = 0.08

#: Shard tilings compared against the monolithic server.
SHARD_TILINGS = ((2, 2), (4, 4))

#: Both benchmarks compose one output file; sections render in key order.
_SECTIONS = {}


def _flush_sections(output_dir):
    record_output(
        output_dir,
        "routing_dispatch",
        "\n\n".join(_SECTIONS[key] for key in sorted(_SECTIONS)),
    )


def _build_partition():
    dataset = load_edgap_city(
        DatasetConfig(
            city="los_angeles", n_records=100_000, grid=GridConfig(64, 64), seed=7
        )
    )
    rng = np.random.default_rng(dataset.n_records)
    residuals = np.round(rng.normal(scale=0.35, size=dataset.n_records) * 1024.0) / 1024.0
    return FairKDTreePartitioner(8).build_from_residuals(dataset, residuals)


def _best_of_each(candidates, repeats=REPEATS):
    """Best-of wall time and last result per named candidate, interleaved.

    Each round times every candidate once, in order, so slow drift in
    machine state (CPU frequency, cache pressure from neighbours) is
    shared across candidates instead of accruing to whichever candidate's
    dedicated timing loop ran last — the paired comparisons the
    assertions make are only meaningful under a common clock environment.
    """
    bests = {name: float("inf") for name in candidates}
    results = {}
    for _ in range(repeats):
        for name, callable_ in candidates.items():
            start = time.perf_counter()
            results[name] = callable_()
            bests[name] = min(bests[name], time.perf_counter() - start)
    return bests, results


class PairedTiming(NamedTuple):
    overhead: float  # median over pairs of candidate/baseline, minus 1
    baseline_best: float
    candidate_best: float
    baseline_answer: Any
    candidate_answer: Any


def _paired_overhead(
    baseline: Callable[[], Any],
    candidate: Callable[[], Any],
    pairs: int = OVERHEAD_PAIRS,
) -> PairedTiming:
    """Median per-pair overhead of ``candidate`` over ``baseline``.

    Each pair times the two calls back to back, alternating which goes
    first, so drift and call-position effects hit both sides alike; the
    gate reads the median of the per-pair ratios.  A ratio of two
    best-ofs lets one lucky baseline call set the denominator — and the
    faster the baseline, the more the same milliseconds of noise weigh.
    """
    calls = (baseline, candidate)
    best = [float("inf"), float("inf")]
    answers = [None, None]
    ratios = []
    for index in range(pairs):
        took = [0.0, 0.0]
        for side in ((0, 1) if index % 2 == 0 else (1, 0)):
            start = time.perf_counter()
            answers[side] = calls[side]()
            took[side] = time.perf_counter() - start
            best[side] = min(best[side], took[side])
        ratios.append(took[1] / took[0])
    return PairedTiming(
        statistics.median(ratios) - 1.0, best[0], best[1], answers[0], answers[1]
    )


@pytest.mark.benchmark(group="serving")
def test_routing_dispatch_overhead(benchmark, output_dir):
    """Engine name-routing must cost <= 10% over a direct server call, and
    sharded dispatch must not cost anything at all."""
    from bench_utils import bench_full

    partition = _build_partition()
    server = PartitionServer(partition)
    engine = ServingEngine()
    engine.deploy("la", server)
    sharded = {
        tiling: ShardedDeployment(partition, *tiling) for tiling in SHARD_TILINGS
    }
    bounds = partition.grid.bounds
    rng = np.random.default_rng(23)

    sizes = FULL_SIZES if bench_full() else SIZES
    rows = []
    overheads = {}
    sharded_overheads = {}
    columns = {
        tiling: f"sharded_{tiling[0]}x{tiling[1]}_ms" for tiling in SHARD_TILINGS
    }

    def run() -> None:
        for size in sizes:
            xs = rng.uniform(bounds.min_x, bounds.max_x, size)
            ys = rng.uniform(bounds.min_y, bounds.max_y, size)

            candidates = {
                "direct": lambda: server.locate_points(xs, ys),
                "engine": lambda: engine.locate_points("la", xs, ys),
            }
            for tiling, deployment in sharded.items():
                candidates[columns[tiling]] = (
                    lambda d=deployment: d.locate_points(xs, ys)
                )
            bests, answers = _best_of_each(candidates)

            direct = answers["direct"]
            assert np.array_equal(direct, answers["engine"]), (
                f"engine routing changed assignments at size {size}"
            )
            overhead = _paired_overhead(
                lambda: server.locate_points(xs, ys),
                lambda: engine.locate_points("la", xs, ys),
            ).overhead
            overheads[size] = overhead
            row = {
                "points": size,
                "direct_ms": bests["direct"] * 1000.0,
                "engine_ms": bests["engine"] * 1000.0,
                "overhead_pct": overhead * 100.0,
            }
            for tiling, column in columns.items():
                assert np.array_equal(direct, answers[column]), (
                    f"{tiling} sharding changed assignments at size {size}"
                )
                row[column] = bests[column] * 1000.0
            sharded_overheads[size] = _paired_overhead(
                lambda: server.locate_points(xs, ys),
                lambda: sharded[(2, 2)].locate_points(xs, ys),
            ).overhead
            row["sharded_overhead_pct"] = sharded_overheads[size] * 100.0
            row["monolithic_mlookups_s"] = size / bests["direct"] / 1e6
            rows.append(row)

    benchmark.pedantic(run, rounds=1, iterations=1)

    million = overheads[1_000_000]
    assert million <= MAX_OVERHEAD, (
        f"engine dispatch costs {million * 100:.1f}% over a direct "
        f"PartitionServer.locate_points at 10^6 points "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)"
    )
    sharded_million = sharded_overheads[1_000_000]
    assert sharded_million <= PARALLEL_NOISE, (
        f"sharded 2x2 dispatch costs {sharded_million * 100:.1f}% over the "
        "monolithic server at 10^6 points; the merged-label take must "
        f"hold parity (<= {PARALLEL_NOISE * 100:.0f}% noise allowance)"
    )

    # Flush only after the assertions hold — a red run must not overwrite
    # the committed green table.
    _SECTIONS["1_dispatch"] = format_table(
        rows,
        title="Serving-engine routing — named dispatch vs direct server, and "
        "sharded dispatch vs monolithic (Fair KD-tree h=8, Los Angeles, "
        f"64x64 grid, interleaved best of {REPEATS}; overhead_pct and "
        f"sharded_overhead_pct = median of {OVERHEAD_PAIRS} interleaved "
        "direct/engine and direct/sharded 2x2 pair ratios)",
    )
    _flush_sections(output_dir)


#: Acquire/release pairs per lock-microbenchmark timing.
PAIR_OPS = 100_000

#: Ceiling on sanitized-mode dispatch vs the uninstrumented engine at 10^6
#: points.  The locate path performs a handful of lock operations per
#: *batch*, so even a 50x per-operation instrumentation cost amortises to
#: noise over a multi-millisecond request; a factor beyond this means the
#: sanitizer leaked work into the per-point path.
MAX_SANITIZED_DISPATCH_FACTOR = 1.5

#: Runaway guard on the per-operation cost of an instrumented lock pair.
#: The wrapper's bookkeeping (thread-local state, held-set update, order
#: edge) is expected to cost tens of raw-pair equivalents; the factor is
#: documented in the table, this bound only catches pathological
#: regressions (e.g. accidental O(locks) scans per acquisition).
MAX_LOCK_PAIR_FACTOR = 200.0


def _time_lock_pairs(lock, repeats=3):
    """Best-of per-pair seconds for ``PAIR_OPS`` acquire/release pairs."""
    best = float("inf")
    for _ in range(repeats):
        acquire, release = lock.acquire, lock.release
        start = time.perf_counter()
        for _ in range(PAIR_OPS):
            acquire()
            release()
        best = min(best, time.perf_counter() - start)
    return best / PAIR_OPS


@pytest.mark.benchmark(group="serving")
def test_sanitizer_overhead(benchmark, output_dir):
    """The REPRO_SANITIZE seam must be free when off and affordable when on.

    Disabled, the lock factories hand back raw ``threading`` primitives
    (the branch runs once, at construction), so engine dispatch must stay
    within the same budget over a direct server call that the committed
    routing table shows.  Enabled, every acquisition pays for bookkeeping —
    the honest per-operation factor is measured on a bare lock and
    documented alongside the amortised dispatch factor, which must stay
    near 1x because the locate hot path takes locks per batch, not per
    point.
    """
    from repro.analysis import sanitized
    from repro.serving.locks import new_lock

    partition = _build_partition()
    server = PartitionServer(partition)
    engine_off = ServingEngine()
    engine_off.deploy("la", server)
    bounds = partition.grid.bounds
    rng = np.random.default_rng(31)
    size = 1_000_000
    xs = rng.uniform(bounds.min_x, bounds.max_x, size)
    ys = rng.uniform(bounds.min_y, bounds.max_y, size)

    measurements = {}

    def run() -> None:
        # Phase 1 — sanitizer off.  Timed before any arming so the class
        # instrumentation cannot contaminate the baseline.
        off = _paired_overhead(
            lambda: server.locate_points(xs, ys),
            lambda: engine_off.locate_points("la", xs, ys),
        )
        assert np.array_equal(off.baseline_answer, off.candidate_answer), (
            "uninstrumented engine routing changed assignments"
        )
        raw_pair = _time_lock_pairs(new_lock("bench.raw"))

        # Phase 2 — armed.  The engine is rebuilt under the sanitizer so
        # its locks are the instrumented wrappers, and the run must come
        # out clean on top of being fast enough.
        with sanitized() as sink:
            engine_on = ServingEngine()
            engine_on.deploy("la", PartitionServer(partition))
            bests_on, answers_on = _best_of_each(
                {
                    "engine_sanitized": (
                        lambda: engine_on.locate_points("la", xs, ys)
                    ),
                }
            )
            wrapped_pair = _time_lock_pairs(new_lock("bench.wrapped"))
        report = sink.report()
        assert report.clean, "\n" + report.render_text()
        assert np.array_equal(off.baseline_answer, answers_on["engine_sanitized"]), (
            "sanitized engine routing changed assignments"
        )

        measurements.update(
            off_overhead=off.overhead,
            direct=off.baseline_best,
            engine_off=off.candidate_best,
            engine_sanitized=bests_on["engine_sanitized"],
            raw_pair=raw_pair,
            wrapped_pair=wrapped_pair,
        )

    benchmark.pedantic(run, rounds=1, iterations=1)

    off_overhead = measurements["off_overhead"]
    dispatch_factor = measurements["engine_sanitized"] / measurements["engine_off"]
    pair_factor = measurements["wrapped_pair"] / measurements["raw_pair"]

    assert off_overhead <= MAX_OVERHEAD, (
        f"sanitizer-disabled dispatch costs {off_overhead * 100:.1f}% over a "
        f"direct server call at 10^6 points (budget {MAX_OVERHEAD * 100:.0f}%:"
        " the factory seam must stay out of the hot path)"
    )
    assert dispatch_factor <= MAX_SANITIZED_DISPATCH_FACTOR, (
        f"sanitized dispatch is {dispatch_factor:.2f}x the uninstrumented "
        f"engine at 10^6 points (budget {MAX_SANITIZED_DISPATCH_FACTOR}x: "
        "per-batch lock bookkeeping must amortise away)"
    )
    assert pair_factor <= MAX_LOCK_PAIR_FACTOR, (
        f"an instrumented acquire/release pair costs {pair_factor:.0f}x a "
        f"raw one (runaway bound {MAX_LOCK_PAIR_FACTOR:.0f}x)"
    )

    _SECTIONS["3_sanitizer"] = format_table(
        [
            {
                "points": size,
                "direct_ms": measurements["direct"] * 1000.0,
                "engine_off_ms": measurements["engine_off"] * 1000.0,
                "off_overhead_pct": off_overhead * 100.0,
                "engine_sanitized_ms": measurements["engine_sanitized"] * 1000.0,
                "sanitized_factor_x": dispatch_factor,
                "raw_lock_pair_ns": measurements["raw_pair"] * 1e9,
                "sanitized_lock_pair_ns": measurements["wrapped_pair"] * 1e9,
                "lock_pair_factor_x": pair_factor,
            }
        ],
        title="Runtime-sanitizer overhead — dispatch with the seam disabled "
        "vs a REPRO_SANITIZE-armed engine on the identical 10^6-point "
        "batch, plus the honest per-operation cost of an instrumented "
        f"acquire/release pair (interleaved best of {REPEATS}; "
        f"off_overhead_pct = median of {OVERHEAD_PAIRS} interleaved "
        f"direct/engine_off pair ratios; lock pairs best of 3 x {PAIR_OPS})",
    )
    _flush_sections(output_dir)


#: Ceiling on concurrently-live batch-sized buffers (8 MB each at 10^6
#: points) during one engine dispatch, measured by tracemalloc peak.  The
#: audited path holds ~3.1 (two coordinate temporaries plus the result,
#: with the boolean masks adding the fraction); one reintroduced
#: whole-batch copy — an ``astype`` without ``copy=False``, a defensive
#: ``.copy()`` — adds a full +1.0 and breaks this budget.
MAX_LIVE_BATCH_BUFFERS = 4.0

#: Ceiling on buffers still referenced after the call: the int64
#: assignment itself (1.0) plus slack for small bookkeeping.
MAX_RETAINED_BATCH_BUFFERS = 1.25


@pytest.mark.benchmark(group="serving")
def test_dispatch_allocation_budget(benchmark, output_dir):
    """One 10^6-point dispatch must stay within a fixed allocation budget.

    The wall-clock benchmarks above catch *slow*; this catches *fat*.
    tracemalloc traces every numpy buffer (numpy allocates through the
    Python memory hooks), so the peak traced memory over one
    ``engine.locate_points`` call, expressed in batch-sized buffers, is an
    exact count of how many whole-batch arrays the locate path keeps live
    at once — the number the hot-path-copy lint rule bounds statically.
    """
    import gc
    import tracemalloc

    partition = _build_partition()
    server = PartitionServer(partition)
    engine = ServingEngine()
    engine.deploy("la", server)
    bounds = partition.grid.bounds
    rng = np.random.default_rng(41)
    size = 1_000_000
    xs = rng.uniform(bounds.min_x, bounds.max_x, size)
    ys = rng.uniform(bounds.min_y, bounds.max_y, size)
    batch_bytes = size * 8.0

    measurements = {}

    def run() -> None:
        engine.locate_points("la", xs, ys)  # warm caches and lazy imports
        gc.collect()
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assignment = engine.locate_points("la", xs, ys)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert assignment.size == size
        measurements["live"] = (peak - baseline) / batch_bytes
        measurements["retained"] = (current - baseline) / batch_bytes

    benchmark.pedantic(run, rounds=1, iterations=1)

    assert measurements["live"] <= MAX_LIVE_BATCH_BUFFERS, (
        f"dispatch held {measurements['live']:.2f} batch-sized buffers live "
        f"at peak (budget {MAX_LIVE_BATCH_BUFFERS}); a whole-batch copy "
        "crept back into the locate path"
    )
    assert measurements["retained"] <= MAX_RETAINED_BATCH_BUFFERS, (
        f"dispatch retained {measurements['retained']:.2f} batch-sized "
        f"buffers after returning (budget {MAX_RETAINED_BATCH_BUFFERS}); "
        "something beyond the assignment survived the call"
    )

    _SECTIONS["4_alloc"] = format_table(
        [
            {
                "points": size,
                "batch_buffer_mb": batch_bytes / 1e6,
                "peak_live_buffers": measurements["live"],
                "live_budget": MAX_LIVE_BATCH_BUFFERS,
                "retained_buffers": measurements["retained"],
                "retained_budget": MAX_RETAINED_BATCH_BUFFERS,
            }
        ],
        title="Dispatch allocation budget — tracemalloc peak over one "
        "10^6-point engine dispatch, in batch-sized (8 MB) buffers; the "
        "budget pins the audited copy-free locate path",
    )
    _flush_sections(output_dir)


#: Ceiling on the tracemalloc peak of one 10^5-point binary
#: ``WireConnection.locate`` against an in-process ``WireServer`` (client
#: and server threads both traced), in request-payload units (16 bytes a
#: point, 1.6 MB).  Scatter-gather framing holds ~2.6: the server's one
#: ``recv_into`` buffer (1.0), the gather's int64 cell ids and answer
#: (0.5 each) with the finite check's and the grid's smaller
#: temporaries, while the answer goes out straight from the result array
#: and arrives in the client's own ``recv_into`` buffer (0.5).  Staging
#: the payload through ``bytes`` again — a ``tobytes``, a ``b"".join``, a
#: header concat, chunked receives joined — adds +0.5 to +1.0 per copy
#: (joined staging measured ~4.0).
MAX_WIRE_PAYLOAD_BUFFERS = 3.0


@pytest.mark.benchmark(group="serving")
def test_wire_allocation_budget(benchmark, output_dir):
    """One 10^5-point binary wire round trip within a fixed allocation budget.

    The wire twin of :func:`test_dispatch_allocation_budget`: tracemalloc
    traces every thread, so the peak over one ``WireConnection.locate``
    counts the buffers the client's encode and send, the server's
    receive, decode, gather and answer, and the client's receive keep
    live at once.
    """
    import gc
    import tracemalloc

    from repro.serving import WireConnection, WireServer
    from repro.serving.codecs import BinaryCodec

    partition = _build_partition()
    engine = ServingEngine()
    engine.deploy("la", PartitionServer(partition))
    bounds = partition.grid.bounds
    rng = np.random.default_rng(43)
    size = 100_000
    xs = rng.uniform(bounds.min_x, bounds.max_x, size)
    ys = rng.uniform(bounds.min_y, bounds.max_y, size)
    payload_bytes = float(len(BinaryCodec().encode_request("la", xs, ys)))
    expected = engine.locate_points("la", xs, ys)

    measurements = {}

    def run() -> None:
        with WireServer(engine, port=0).serve_background() as server:
            with WireConnection(server.host, server.port, codecs=("binary",)) as conn:
                conn.locate("la", xs, ys)  # warm caches and lazy imports
                gc.collect()
                tracemalloc.start()
                try:
                    baseline, _ = tracemalloc.get_traced_memory()
                    tracemalloc.reset_peak()
                    _, assignment = conn.locate("la", xs, ys)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert np.array_equal(assignment, expected)
        measurements["live"] = (peak - baseline) / payload_bytes

    benchmark.pedantic(run, rounds=1, iterations=1)

    assert measurements["live"] <= MAX_WIRE_PAYLOAD_BUFFERS, (
        f"one wire round trip held {measurements['live']:.2f} request-payload "
        f"buffers live at peak (budget {MAX_WIRE_PAYLOAD_BUFFERS}); a staging "
        "copy crept back into the framing or the codec"
    )

    _SECTIONS["5_wire_alloc"] = format_table(
        [
            {
                "points": size,
                "payload_mb": payload_bytes / 1e6,
                "peak_live_payloads": measurements["live"],
                "live_budget": MAX_WIRE_PAYLOAD_BUFFERS,
            }
        ],
        title="Wire allocation budget — tracemalloc peak over one 10^5-point "
        "binary WireConnection.locate against an in-process WireServer "
        "(both threads traced), in request-payload (1.6 MB) units",
    )
    _flush_sections(output_dir)
