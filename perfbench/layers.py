"""Which layer calls the traced run wraps, and the per-layer metrics.

Every wrapper replaces the attribute its caller looks up, so the program
itself is untouched: a module global for functions imported by name
(``repro.core.fair_kdtree.best_axis_split``), a class attribute for
methods (``BinaryCodec.encode_request``).  :func:`install` returns a
handle whose ``remove()`` puts every original back.

Serving wrappers must be installed after a worker pool has forked, so the
workers run unwrapped code; the traced run installs everything once its
untraced half is over, long after set-up started the servers.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Tuple

from spans import Analysis, Tracer

#: Every per-layer metric, in report order, with its unit.  BENCHMARK.json
#: lists the same names and units (run.py checks that they agree).
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("ml.initial_fit_s", "s"),
    ("ml.retrain_fit_s", "s"),
    ("ml.predict_s", "s"),
    ("ml.preprocess_s", "s"),
    ("ml.fit_iterations", "count"),
    ("ml.feature_columns", "count"),
    ("ml.metrics_s", "s"),
    ("dataset.prepare_s", "s"),
    ("fairness.ence_s", "s"),
    ("split_engine.init_s", "s"),
    ("split_engine.line_sums_s", "s"),
    ("split_engine.line_sums_calls", "count"),
    ("split.best_axis_split_self_s", "s"),
    ("split.calls", "count"),
    ("fair_kdtree.recursion_self_s", "s"),
    ("fair_kdtree.leaves", "count"),
    ("fair_kdtree.leaves_occupied", "count"),
    ("partition.construct_s", "s"),
    ("partition.assign_s", "s"),
    ("client.locate_points_self_ms", "ms"),
    ("client.connects", "count"),
    ("codecs.encode_request_us", "us"),
    ("codecs.decode_request_us", "us"),
    ("codecs.encode_response_us", "us"),
    ("codecs.decode_response_us", "us"),
    ("codecs.finite_check_us", "us"),
    ("codecs.bytes_per_point", "B/point"),
    ("wire.locate_self_us", "us"),
    ("wire.send_frame_us", "us"),
    ("wire.recv_frame_us", "us"),
    ("wire.recv_wait_us", "us"),
    ("wire.frames", "count"),
    ("engine.locate_batch_self_us", "us"),
    ("engine.deploy_ms", "ms"),
    ("grid.locate_many_us", "us"),
    ("server.locate_points_self_us", "us"),
    ("backends.locate_cells_us", "us"),
    ("workers.publish_ms", "ms"),
    ("workers.hop_us", "us"),
    ("workers.colocated_share", "fraction"),
    ("cache.hit_ratio", "fraction"),
    ("bulk.wire_tax_x", "x"),
    ("unattributed_share", "fraction"),
    ("trace.overhead_pct", "%"),
)

#: Server-side spans that block waiting for the next request, not work.
IDLE = ("recv_frame[peer]",)

#: The client's own work inside one wire round trip.
_CLIENT_WORK = ("BinaryCodec.encode_request", "BinaryCodec.decode_response", "send_frame")


class _EngineProxy:
    """A split engine whose per-node queries record spans."""

    def __init__(self, engine: Any, tracer: Tracer) -> None:
        self._engine = engine
        self.line_sums = tracer.wrap(engine.line_sums, "SplitEngine.line_sums")
        self.region_count = tracer.wrap(engine.region_count, "SplitEngine.region_count")

    def __getattr__(self, name: str) -> Any:
        return getattr(self._engine, name)


class Installed:
    """The wrappers in place; :meth:`remove` restores the originals."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        own = attr in vars(owner)
        original = getattr(owner, attr)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, make(original))

    def remove(self) -> None:
        for owner, attr, own, original in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _client_or_peer(base: str) -> Callable[[Tracer], str]:
    """Span name telling a client-side call from the in-process server's."""
    client, peer = base, f"{base}[peer]"

    def name(tracer: Tracer) -> str:
        return client if tracer.current_name() is not None else peer

    return name


def _fit_name(tracer: Tracer) -> str:
    initial = tracer.current_name() == "train_scores_on_dataset"
    return "LogisticRegressionClassifier.fit[initial]" if initial else "LogisticRegressionClassifier.fit[retrain]"


def _fit_info(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    model, features = args[0], args[1]
    return {"iterations": model.n_iterations, "columns": int(features.shape[1])}


def _request_info(args: tuple, kwargs: dict, result: bytes) -> Dict[str, Any]:
    return {"bytes": len(result), "points": len(args[2])}


def _response_info(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"bytes": len(args[1])}


def install(tracer: Tracer) -> Installed:
    """Wrap every traced layer call; see the module docstring."""
    from repro.core import fair_kdtree, pipeline
    from repro.core.fair_kdtree import FairKDTreePartitioner
    from repro.datasets.dataset import SpatialDataset
    from repro.ml.logistic import LogisticRegressionClassifier
    from repro.ml.preprocessing import FeaturePipeline
    from repro.serving import wire
    from repro.serving.backends import DenseGridLocator
    from repro.serving.client import ServingClient
    from repro.serving.codecs import BinaryCodec
    from repro.serving.engine import ServingEngine
    from repro.serving.server import PartitionServer
    from repro.serving.workers import WorkerPool
    from repro.spatial.grid import Grid

    installed = Installed()

    def span(owner: Any, attr: str, name: Any, info: Any = None) -> None:
        installed.replace(owner, attr, lambda fn: tracer.wrap(fn, name, info))

    # ml
    span(fair_kdtree, "train_scores_on_dataset", "train_scores_on_dataset")
    span(LogisticRegressionClassifier, "fit", _fit_name, _fit_info)
    span(LogisticRegressionClassifier, "predict_proba", "LogisticRegressionClassifier.predict_proba")
    span(FeaturePipeline, "fit_transform", "FeaturePipeline.fit_transform")
    span(FeaturePipeline, "transform", "FeaturePipeline.transform")
    for metric in ("accuracy_score", "roc_auc_score", "expected_calibration_error", "miscalibration"):
        span(pipeline, metric, "ml.metrics")
    # dataset preparation the pipeline does around the model
    span(pipeline, "split_dataset", "dataset.prepare")
    span(SpatialDataset, "training_matrix", "dataset.prepare")
    # fairness
    span(pipeline, "expected_neighborhood_calibration_error", "expected_neighborhood_calibration_error")
    # split engine, split, tree recursion, partition
    installed.replace(
        fair_kdtree,
        "make_split_engine",
        lambda fn: _traced_engine_factory(fn, tracer),
    )
    span(fair_kdtree, "best_axis_split", "best_axis_split")
    span(FairKDTreePartitioner, "build_from_residuals", "FairKDTreePartitioner.build_from_residuals")
    span(fair_kdtree, "Partition", "Partition")
    span(SpatialDataset, "with_partition", "SpatialDataset.with_partition")
    # serving: client, codecs, wire, engine, gather, workers
    span(ServingClient, "locate_points", "ServingClient.locate_points")
    span(wire.WireConnection, "connect", "WireConnection.connect")
    span(wire.WireConnection, "locate", "WireConnection.locate")
    span(BinaryCodec, "encode_request", "BinaryCodec.encode_request", _request_info)
    span(BinaryCodec, "decode_request", "BinaryCodec.decode_request")
    span(BinaryCodec, "encode_response", "BinaryCodec.encode_response")
    span(BinaryCodec, "decode_response", "BinaryCodec.decode_response", _response_info)
    span(wire, "require_finite_coords", "require_finite_coords")
    span(wire, "send_frame", _client_or_peer("send_frame"))
    span(wire, "recv_frame", _client_or_peer("recv_frame"))
    span(ServingEngine, "locate_batch", "ServingEngine.locate_batch")
    span(ServingEngine, "deploy", "ServingEngine.deploy")
    span(Grid, "locate_many", "Grid.locate_many")
    span(PartitionServer, "locate_points", "PartitionServer.locate_points")
    span(DenseGridLocator, "locate_cells", "DenseGridLocator.locate_cells")
    span(WorkerPool, "publish", "WorkerPool.publish")
    return installed


def _traced_engine_factory(factory: Callable[..., Any], tracer: Tracer) -> Callable[..., Any]:
    def make_split_engine(*args: Any, **kwargs: Any) -> Any:
        index = tracer.begin("make_split_engine")
        try:
            engine = factory(*args, **kwargs)
        finally:
            tracer.end(index)
        return _EngineProxy(engine, tracer)

    return make_split_engine


def hop_us(analysis: Analysis) -> float:
    """Mean wire round trip minus the client's codec and send spans, in us.

    What is left is the time the request spent away from the client: the
    socket both ways and the worker's turnaround (worker-process internals
    cannot be traced from the benchmark process).
    """
    hops = []
    for key, (name, start, end) in analysis.spans.items():
        if name != "WireConnection.locate":
            continue
        local = 0
        for child in analysis.children_of.get(key, ()):
            child_name, c_start, c_end = analysis.spans[child]
            if child_name in _CLIENT_WORK:
                local += c_end - c_start
        hops.append(end - start - local)
    return statistics.fmean(hops) * 1e-3 if hops else 0.0


def per_layer(analysis: Analysis, facts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics from a traced run's spans.

    Time metrics are self time on the blocking path per unit of work, in
    the metric's unit; counts are per unit of work, except
    ``client.connects`` (per measured phase).  ``facts`` carries what the
    workload measured itself (leaves, placement, cache, wire tax, worker
    hop, overhead); layers a workload does not exercise read 0.
    """
    units = max(analysis.units, 1)
    scale = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}

    def self_time(unit: str, *names: str) -> float:
        return sum(analysis.self_ns.get(name, 0) for name in names) * scale[unit] / units

    def mean_call(unit: str, name: str) -> float:
        calls = analysis.all_calls.get(name, 0)
        return analysis.all_dur_ns.get(name, 0) * scale[unit] / calls if calls else 0.0

    fits = analysis.infos.get("LogisticRegressionClassifier.fit[initial]", []) + analysis.infos.get(
        "LogisticRegressionClassifier.fit[retrain]", []
    )
    retrains = analysis.infos.get("LogisticRegressionClassifier.fit[retrain]", [])
    requests = analysis.infos.get("BinaryCodec.encode_request", [])
    responses = analysis.infos.get("BinaryCodec.decode_response", [])
    points = sum(item["points"] for item in requests)
    wire_bytes = sum(item["bytes"] for item in requests) + sum(item["bytes"] for item in responses)
    recv_covered = analysis.dur_ns.get("recv_frame", 0) - analysis.self_ns.get("recv_frame", 0)

    metrics = {
        "ml.initial_fit_s": self_time("s", "LogisticRegressionClassifier.fit[initial]"),
        "ml.retrain_fit_s": self_time("s", "LogisticRegressionClassifier.fit[retrain]"),
        "ml.predict_s": self_time("s", "LogisticRegressionClassifier.predict_proba"),
        "ml.preprocess_s": self_time("s", "FeaturePipeline.fit_transform", "FeaturePipeline.transform"),
        "ml.fit_iterations": sum(item["iterations"] for item in fits) / units,
        "ml.feature_columns": float(max((item["columns"] for item in retrains), default=0)),
        "ml.metrics_s": self_time("s", "ml.metrics"),
        "dataset.prepare_s": self_time("s", "dataset.prepare"),
        "fairness.ence_s": self_time("s", "expected_neighborhood_calibration_error"),
        "split_engine.init_s": self_time("s", "make_split_engine"),
        "split_engine.line_sums_s": self_time("s", "SplitEngine.line_sums", "SplitEngine.region_count"),
        "split_engine.line_sums_calls": analysis.calls.get("SplitEngine.line_sums", 0) / units,
        "split.best_axis_split_self_s": self_time("s", "best_axis_split"),
        "split.calls": analysis.calls.get("best_axis_split", 0) / units,
        "fair_kdtree.recursion_self_s": self_time("s", "FairKDTreePartitioner.build_from_residuals"),
        "fair_kdtree.leaves": facts.get("leaves", 0.0),
        "fair_kdtree.leaves_occupied": facts.get("leaves_occupied", 0.0),
        "partition.construct_s": self_time("s", "Partition"),
        "partition.assign_s": self_time("s", "SpatialDataset.with_partition"),
        "client.locate_points_self_ms": self_time("ms", "ServingClient.locate_points"),
        "client.connects": float(analysis.all_calls.get("WireConnection.connect", 0)),
        "codecs.encode_request_us": self_time("us", "BinaryCodec.encode_request"),
        "codecs.decode_request_us": self_time("us", "BinaryCodec.decode_request"),
        "codecs.encode_response_us": self_time("us", "BinaryCodec.encode_response"),
        "codecs.decode_response_us": self_time("us", "BinaryCodec.decode_response"),
        "codecs.finite_check_us": self_time("us", "require_finite_coords"),
        "codecs.bytes_per_point": wire_bytes / points if points else 0.0,
        "wire.locate_self_us": self_time("us", "WireConnection.locate"),
        "wire.send_frame_us": self_time("us", "send_frame", "send_frame[peer]"),
        "wire.recv_frame_us": self_time("us", "recv_frame"),
        "wire.recv_wait_us": recv_covered * scale["us"] / units,
        "wire.frames": (analysis.calls.get("send_frame", 0) + analysis.calls.get("send_frame[peer]", 0)) / units,
        "engine.locate_batch_self_us": self_time("us", "ServingEngine.locate_batch"),
        "engine.deploy_ms": mean_call("ms", "ServingEngine.deploy"),
        "grid.locate_many_us": self_time("us", "Grid.locate_many"),
        "server.locate_points_self_us": self_time("us", "PartitionServer.locate_points"),
        "backends.locate_cells_us": self_time("us", "DenseGridLocator.locate_cells"),
        "workers.publish_ms": mean_call("ms", "WorkerPool.publish"),
        "workers.hop_us": facts.get("hop_us", 0.0),
        "workers.colocated_share": facts.get("colocated_share", 0.0),
        "cache.hit_ratio": facts.get("cache_hit_ratio", 0.0),
        "bulk.wire_tax_x": facts.get("wire_tax_x", 0.0),
        "unattributed_share": analysis.unattributed_share(),
        "trace.overhead_pct": facts.get("overhead_pct", 0.0),
    }
    assert list(metrics) == [name for name, _ in PER_LAYER]
    return metrics


def layer_table(analysis: Analysis) -> List[Tuple[str, float, float, int]]:
    """(span, self ms per unit, share of the unit, calls per unit), largest first."""
    units = max(analysis.units, 1)
    total = sum(analysis.root_durations) or 1
    rows = [
        (name, ns * 1e-6 / units, ns / total, analysis.calls[name] // units)
        for name, ns in analysis.self_ns.items()
    ]
    rows.append(("(unattributed)", analysis.root_self_ns * 1e-6 / units, analysis.root_self_ns / total, 0))
    return sorted(rows, key=lambda row: -row[1])
