"""The four workloads: set-up, one unit of work, and its output check.

All four run on the synthetic Los Angeles dataset (100,000 records, the
repository's canonical dataset seed 7) and the ACT task, split 70/30 with
the canonical split seed.  The workload seed picks the initial weights of
every logistic model and every generated point; the program only ever
sees those inputs.  Dataset and split stay fixed because they set how
much work a unit is: across dataset or split seeds the fair tree's
occupied neighborhoods, and with them the width of the retrained model,
vary by 20-33% (interquartile range over ten seeds), which would drown
any change a later commit makes.

* ``redistrict`` -- one unit is Algorithm 1 as an analyst runs it:
  initial fit, fair KD-tree (h=10, 64x64), re-district, retrain, ENCE /
  ECE / accuracy.  The ``ml`` layer does nearly all the work.
* ``height-sweep`` -- one unit builds fair KD-trees of heights 4..14 on a
  256x256 grid from the residuals of one fit made in set-up: split
  statistics and recursion do all the work, ``ml`` none.
* ``locate-bulk`` -- one unit is ``ServingClient.locate_points`` of 1e6
  points (10 binary frames of 1e5) against the in-process wire server;
  1% of the points lie off the map.
* ``locate-online`` -- one unit is a 64-point ``WireConnection.locate``
  against two forked workers, from two connections in a closed loop,
  while one of the two generator threads hot-swaps between two bundles
  holding different partitions once per second.

A wrong answer raises :class:`CheckFailed`, which fails the run; a
request the program refuses or drops counts as failed and the run goes on.
"""

from __future__ import annotations

import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro import DatasetConfig, GridConfig, act_task, load_edgap_city
from repro.config import ModelConfig
from repro.core.base import train_scores_on_dataset
from repro.core.fair_kdtree import FairKDTreePartitioner
from repro.core.pipeline import RedistrictingPipeline
from repro.exceptions import ReproError
from repro.io.artifacts import save_partition_artifact
from repro.ml.logistic import LogisticRegressionClassifier
from repro.serving.client import ServingClient
from repro.serving.engine import ServingEngine
from repro.serving.http import ServingHTTPServer
from repro.serving.wire import WireConnection

from layers import hop_us
from spans import Tracer

N_RECORDS = 100_000
DATASET_SEED = 7
SPLIT_SEED = 7
DEPLOYMENT = "la"


class CheckFailed(AssertionError):
    """The program answered wrongly."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Loop:
    """What one measured phase saw."""

    latencies: List[float] = field(default_factory=list)  # seconds per unit
    attempted: int = 0
    failed: int = 0
    rates: List[float] = field(default_factory=list)  # units/s per unit or window
    swaps: List[float] = field(default_factory=list)  # seconds per hot-swap

    def throughput(self) -> float:
        """Units per second: the median of the rates, steadier than a total
        over a run on a machine whose speed drifts within it."""
        return statistics.median(self.rates)


def closed_loop(
    step: Callable[[], Any],
    verify: Callable[[Any], None],
    seconds: float,
    tracer: Optional[Tracer],
    min_units: int = 1,
) -> Loop:
    """Run ``step`` back to back for ``seconds`` (and at least ``min_units``).

    One caller waits for each unit, so its rate is one over the unit's time.
    """
    loop = Loop()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(loop.latencies) < min_units:
        loop.attempted += 1
        began = time.perf_counter()
        try:
            with tracer.unit("unit") if tracer else nullcontext():
                out = step()
        except (ReproError, OSError):
            loop.failed += 1
            check(loop.failed <= 100, "more than 100 units failed")
            continue
        loop.latencies.append(time.perf_counter() - began)
        loop.rates.append(1.0 / loop.latencies[-1])
        verify(out)
    return loop


def dataset(grid: int):
    return load_edgap_city(
        DatasetConfig(city="los_angeles", n_records=N_RECORDS, grid=GridConfig(grid, grid), seed=DATASET_SEED)
    )


def logistic(seed: int) -> Callable[[], LogisticRegressionClassifier]:
    """Factory of the paper's logistic model, its initial weights drawn from ``seed``."""
    config = ModelConfig()
    return lambda: LogisticRegressionClassifier(
        learning_rate=config.learning_rate,
        max_iter=config.max_iter,
        regularization=config.regularization,
        seed=seed,
    )


def residuals_of(data, labels, seed: int) -> np.ndarray:
    """Residuals ``s_u - y_u`` of one logistic fit over the whole map."""
    base = data.with_neighborhoods(np.zeros(data.n_records, dtype=int))
    scores, _, _ = train_scores_on_dataset(base, labels, logistic(seed))
    return scores - labels


def label_oracle(partition, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Region of every point from the label grid alone, ``-1`` off the map.

    Written apart from the program's own lookup: cell ``floor(offset /
    cell size)``, points on the far edge clamped into the last cell.
    """
    grid = partition.grid
    box = grid.bounds
    inside = (xs >= box.min_x) & (xs <= box.max_x) & (ys >= box.min_y) & (ys <= box.max_y)
    cols = np.floor((xs[inside] - box.min_x) / ((box.max_x - box.min_x) / grid.cols)).astype(np.int64)
    rows = np.floor((ys[inside] - box.min_y) / ((box.max_y - box.min_y) / grid.rows)).astype(np.int64)
    expected = np.full(xs.shape, -1, dtype=np.int64)
    expected[inside] = partition.label_grid[np.minimum(rows, grid.rows - 1), np.minimum(cols, grid.cols - 1)]
    return expected


def points_near_records(data, rng: np.random.Generator, n: int, off_map: float):
    """``n`` points jittered around the records; a share ``off_map`` off the map."""
    box = data.grid.bounds
    picks = rng.integers(0, data.n_records, n)
    jitter = 0.5 * data.grid.cell_width
    xs = np.clip(data.xs[picks] + rng.normal(0.0, jitter, n), box.min_x, box.max_x)
    ys = np.clip(data.ys[picks] + rng.normal(0.0, jitter, n), box.min_y, box.max_y)
    away = rng.random(n) < off_map
    xs[away] = box.max_x + rng.uniform(0.01, 0.5, int(away.sum()))
    return xs, ys


class Workload:
    """One workload: :meth:`prepare`, :meth:`warm_up`, :meth:`measure`, :meth:`close`.

    ``prepare`` may run several times (set-up time is a median); each run
    replaces the previous state.  ``facts`` collects what the traced run
    reports beside the spans.
    """

    name = ""
    root = "unit"  # name of the span around one unit of work
    min_units = 1

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.facts: Dict[str, float] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def unit(self) -> Any:
        raise NotImplementedError

    def verify(self, out: Any) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Optional[Tracer] = None, min_units: int = 1) -> Loop:
        """A closed loop of :meth:`unit`, each output checked by :meth:`verify`."""
        return closed_loop(self.unit, self.verify, seconds, tracer, min_units)

    def details(self, loop: Loop) -> Dict[str, Any]:
        """This workload's own end-to-end figures, as ``name: (value, unit)``."""
        return {}

    def before_trace(self) -> None:
        """Untraced measurements the traced run needs (none by default)."""

    def after_trace(self, analysis) -> None:
        """Facts the traced run derives from its spans (none by default)."""

    def close(self) -> None:
        pass


class Redistrict(Workload):
    name = "redistrict"
    min_units = 3

    def prepare(self) -> None:
        self.data = dataset(64)
        self.task = act_task()
        self.factory = logistic(self.seed)
        self.first = None

    def warm_up(self) -> None:
        """Nothing: a run allocates its matrices afresh, so the first is not slower."""

    def unit(self):
        pipeline = RedistrictingPipeline(self.factory, seed=SPLIT_SEED)
        return pipeline.run(self.data, self.task, FairKDTreePartitioner(10))

    def verify(self, result) -> None:
        partition = result.partition
        check(partition.is_complete, "re-districted partition does not cover the map")
        check(len(partition) <= 2 ** 10, f"{len(partition)} neighborhoods from a height-10 tree")
        for metrics in (result.train_metrics, result.test_metrics):
            values = [metrics.accuracy, metrics.miscalibration, metrics.ece, metrics.ence, metrics.auc]
            check(all(np.isfinite(values)), f"non-finite evaluation metric in {metrics}")
        quality = (result.test_metrics.ence, result.test_metrics.accuracy, partition.regions)
        if self.first is None:
            self.first = quality
            occupied = np.unique(partition.label_grid[self.data.cell_rows, self.data.cell_cols]).size
            self.facts.update(leaves=float(len(partition)), leaves_occupied=float(occupied))
        check(quality == self.first, "the same seed gave a different partition, ENCE or accuracy")

    def details(self, loop: Loop) -> Dict[str, Any]:
        ence, accuracy, _ = self.first
        return {
            "build_s": (statistics.median(loop.latencies), "s"),
            "ence_test": (ence, "ENCE"),
            "accuracy_test": (accuracy, "fraction"),
        }


HEIGHTS = tuple(range(4, 15))


class HeightSweep(Workload):
    name = "height-sweep"
    min_units = 3

    def prepare(self) -> None:
        self.data = dataset(256)
        self.residuals = residuals_of(self.data, act_task().labels(self.data), self.seed)
        self.first = None

    def warm_up(self) -> None:
        for _ in range(3):
            self.verify(self.unit())

    def unit(self):
        return [FairKDTreePartitioner(h).build_from_residuals(self.data, self.residuals) for h in HEIGHTS]

    def verify(self, partitions) -> None:
        for height, partition in zip(HEIGHTS, partitions):
            check(partition.is_complete, f"height-{height} partition does not cover the map")
            check(len(partition) <= 2 ** height, f"{len(partition)} leaves at height {height}")
        if self.first is None:
            self.first = [partition.label_grid.copy() for partition in partitions]
            cells = (self.data.cell_rows, self.data.cell_cols)
            self.facts.update(
                leaves=float(sum(len(p) for p in partitions)),
                leaves_occupied=float(sum(np.unique(p.label_grid[cells]).size for p in partitions)),
            )
        for height, grid, partition in zip(HEIGHTS, self.first, partitions):
            check(np.array_equal(grid, partition.label_grid), f"height-{height} label grid changed between sweeps")

    def details(self, loop: Loop) -> Dict[str, Any]:
        return {"build_s": (statistics.median(loop.latencies), "s")}


def _served_partitions(seed: int):
    """The dataset and two different fair KD-trees (h=10 and h=9) on 64x64."""
    data = dataset(64)
    residuals = residuals_of(data, act_task().labels(data), seed)
    return data, [FairKDTreePartitioner(h).build_from_residuals(data, residuals) for h in (10, 9)]


BULK_POINTS = 1_000_000
BULK_FRAME = 100_000


class LocateBulk(Workload):
    name = "locate-bulk"
    server = None

    def prepare(self) -> None:
        self.close()
        data, (partition, _) = _served_partitions(self.seed)
        rng = np.random.default_rng([self.seed, 1])
        self.xs, self.ys = points_near_records(data, rng, BULK_POINTS, off_map=0.01)
        self.expected = label_oracle(partition, self.xs, self.ys)
        self.engine = ServingEngine()
        self.engine.deploy(DEPLOYMENT, partition)
        self.server = ServingHTTPServer(self.engine, wire_port=0).serve_background()
        host, port = self.server.server_address[:2]
        self.client = ServingClient(host=host, port=port, transport="binary", batch_size=BULK_FRAME)

    def unit(self) -> np.ndarray:
        return self.client.locate_points(DEPLOYMENT, self.xs, self.ys, strict=False)

    def verify(self, got: np.ndarray) -> None:
        check(got.dtype == np.int64 and np.array_equal(got, self.expected), "bulk answers differ from the label-grid oracle")

    def warm_up(self) -> None:
        for _ in range(5):
            self.verify(self.unit())

    def before_trace(self) -> None:
        """The honest baseline: the array gather on the client's own frames."""
        gathers = []
        for _ in range(3):
            for start in range(0, BULK_POINTS, BULK_FRAME):
                xs, ys = self.xs[start:start + BULK_FRAME], self.ys[start:start + BULK_FRAME]
                began = time.perf_counter_ns()
                self.engine.locate_batch(DEPLOYMENT, xs, ys, strict=False)
                gathers.append(time.perf_counter_ns() - began)
        self.gather_ns = statistics.fmean(gathers)

    def after_trace(self, analysis) -> None:
        calls = analysis.all_calls.get("WireConnection.locate", 0)
        if calls:
            self.facts["wire_tax_x"] = analysis.all_dur_ns["WireConnection.locate"] / calls / self.gather_ns

    def details(self, loop: Loop) -> Dict[str, Any]:
        return {
            "throughput_mpts_s": (loop.throughput() * BULK_POINTS / 1e6, "Mpts/s"),
            **latency_details(loop),
        }

    def close(self) -> None:
        if self.server is not None:
            self.client.close()
            self.server.close()
            self.server = None


ONLINE_POINTS = 64
WORKERS = 2
ONLINE_POOL = 2048
SEGMENTS = 8
WINDOW = 1.0  # seconds per throughput window, one swap in each
SWAP_EVERY = 1.0


class LocateOnline(Workload):
    name = "locate-online"
    root = "request"
    server = None

    def prepare(self) -> None:
        self.close()
        data, partitions = _served_partitions(self.seed)
        rng = np.random.default_rng([self.seed, 2])
        xs, ys = points_near_records(data, rng, ONLINE_POOL * ONLINE_POINTS, off_map=0.0)
        self.xs = xs.reshape(ONLINE_POOL, ONLINE_POINTS)
        self.ys = ys.reshape(ONLINE_POOL, ONLINE_POINTS)
        self.expected = [label_oracle(p, xs, ys).reshape(ONLINE_POOL, ONLINE_POINTS) for p in partitions]
        self.bundles = [
            str(save_partition_artifact(p, self.scratch / f"bundle-{i}", {"bundle": i}))
            for i, p in enumerate(partitions)
        ]
        self.engine = ServingEngine()
        self.version_of = {self.engine.deploy(DEPLOYMENT, self.bundles[0])["version"]: 0}
        self.serving = 0
        self.server = ServingHTTPServer(self.engine, workers=WORKERS).serve_background()

    def swap(self, tracer: Optional[Tracer]) -> float:
        """Deploy the other bundle and publish it; seconds until every worker acked."""
        target = 1 - self.serving
        began = time.perf_counter()
        with tracer.unit("swap") if tracer else nullcontext():
            version = self.engine.deploy(DEPLOYMENT, self.bundles[target])["version"]
            self.version_of[version] = target
            self.server.publish_wire()
        self.serving = target
        return time.perf_counter() - began

    def dial(self) -> WireConnection:
        host, port = self.server.wire_address
        return WireConnection(host, port, codecs=("binary",)).connect()

    def warm_up(self) -> None:
        connection = self.dial()
        try:
            for index in range(500):
                self.verify(index % ONLINE_POOL, self.request(connection, index % ONLINE_POOL))
        finally:
            connection.close()
        self.swap(None)
        self.swap(None)

    def request(self, connection: WireConnection, index: int):
        return connection.locate(DEPLOYMENT, self.xs[index], self.ys[index])

    def verify(self, index: int, answer) -> None:
        version, got = answer
        bundle = self.version_of.get(version)
        check(bundle is not None, f"answer from version {version}, which was never deployed")
        check(np.array_equal(got, self.expected[bundle][index]), f"answers differ from version {version}'s oracle")

    def measure(self, seconds: float, tracer: Optional[Tracer] = None, min_units: int = 1) -> Loop:
        """Two connections, closed loop; both re-dial at the start of every segment.

        Throughput is the median over the whole windows of ``WINDOW`` seconds
        of both connections' completed requests: a 2.5-s segment rate ranged
        from 21k to 42k requests/s within one run, so the median of eight
        segments moved with the few that a stall hit.
        """
        loop = Loop()
        segment = seconds / SEGMENTS
        barrier = threading.Barrier(2)
        windows = [[0] * (int(seconds / WINDOW) + 2) for _ in (0, 1)]
        placement = [[None, None] for _ in range(SEGMENTS)]
        bounds = [[0.0, 0.0] for _ in range(SEGMENTS)]
        latencies: List[List[float]] = [[], []]
        attempted, failed = [0, 0], [0, 0]
        errors: List[Exception] = []
        origin = time.perf_counter()

        def generate(me: int) -> None:
            connection = None
            index = me * ONLINE_POOL // 2
            next_swap = origin + SWAP_EVERY
            try:
                for seg in range(SEGMENTS):
                    if connection is not None:
                        connection.close()
                    barrier.wait()
                    connection = self.dial()
                    placement[seg][me] = connection.server_info.get("worker")
                    barrier.wait()
                    if me == 0:
                        bounds[seg][0] = time.perf_counter()
                    stop = origin + (seg + 1) * segment
                    while time.perf_counter() < stop:
                        if me == 0 and time.perf_counter() >= next_swap:
                            loop.swaps.append(self.swap(tracer))
                            next_swap += SWAP_EVERY
                        index = (index + 1) % ONLINE_POOL
                        attempted[me] += 1
                        began = time.perf_counter()
                        try:
                            with tracer.unit("request") if tracer else nullcontext():
                                answer = self.request(connection, index)
                        except (ReproError, OSError):
                            failed[me] += 1
                            check(failed[me] <= 100, "more than 100 requests failed")
                            connection.close()
                            connection = self.dial()
                            continue
                        ended = time.perf_counter()
                        latencies[me].append(ended - began)
                        windows[me][int((ended - origin) / WINDOW)] += 1
                        self.verify(index, answer)
                    barrier.wait()
                    if me == 0:
                        bounds[seg][1] = time.perf_counter()
            except threading.BrokenBarrierError:
                pass
            except Exception as exc:  # surfaced by the main thread below
                errors.append(exc)
                barrier.abort()
            finally:
                if connection is not None:
                    connection.close()

        threads = [threading.Thread(target=generate, args=(me,)) for me in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        loop.latencies = latencies[0] + latencies[1]
        loop.attempted, loop.failed = sum(attempted), sum(failed)
        whole = range(int(np.ceil((bounds[0][0] - origin) / WINDOW)), int(seconds / WINDOW))
        loop.rates = [(windows[0][i] + windows[1][i]) / WINDOW for i in whole]
        if not loop.rates:  # a run shorter than two windows
            loop.rates = [len(loop.latencies) / (bounds[-1][1] - bounds[0][0])]
        colocated = sum(1 for a, b in placement if a is not None and a == b)
        self.facts["colocated_share"] = colocated / SEGMENTS
        return loop

    def before_trace(self) -> None:
        self.cache_before = self.engine.stats["cache"]

    def after_trace(self, analysis) -> None:
        self.facts["hop_us"] = hop_us(analysis)
        after = self.engine.stats["cache"]
        hits = after["hits"] - self.cache_before["hits"]
        lookups = hits + after["misses"] - self.cache_before["misses"]
        self.facts["cache_hit_ratio"] = hits / lookups if lookups else 0.0

    def details(self, loop: Loop) -> Dict[str, Any]:
        return {
            "throughput_rps": (loop.throughput(), "1/s"),
            **latency_details(loop),
            "swap_p50_ms": (statistics.median(loop.swaps) * 1e3 if loop.swaps else 0.0, "ms"),
            "swaps": (len(loop.swaps), "count"),
            "colocated_share": (self.facts["colocated_share"], "fraction"),
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
            self.server = None
        shutil.rmtree(self.scratch, ignore_errors=True)


def latency_details(loop: Loop) -> Dict[str, Any]:
    """Median latency, the highest of p90/p99 with >= 10 samples beyond it, errors."""
    times = np.asarray(loop.latencies) * 1e3
    out = {"latency_p50_ms": (float(np.median(times)), "ms")}
    for percentile in (99, 90):
        if times.size * (100 - percentile) / 100 >= 10:
            out[f"latency_p{percentile}_ms"] = (float(np.percentile(times, percentile)), "ms")
            break
    out["samples"] = (int(times.size), "count")
    out["error_rate"] = (loop.failed / loop.attempted if loop.attempted else 0.0, "fraction")
    return out


WORKLOADS = {cls.name: cls for cls in (Redistrict, HeightSweep, LocateBulk, LocateOnline)}
