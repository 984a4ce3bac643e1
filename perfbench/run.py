"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload locate-bulk --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Set-up (inputs from ``--seed``, the
set-up fit, bundles, servers and workers, warm-up) runs first and is
timed as ``setup_s``; then the workload runs for ``--seconds``.

``--trace 0`` measures untraced and reports the end-to-end metrics.
``--trace 1`` runs half the time untraced and half with every layer call
wrapped (see ``layers.py``) and reports the per-layer metrics; the spans
are written to ``perfbench/out/<workload>-seed<seed>-spans.json``.

Every output is checked; a wrong answer fails the run (exit code 1).  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are the same figures for people, with this workload's own metrics and
where the run ran.  The full record also goes to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-up runs this many times; ``setup_s`` is the median plus the warm-up.
SETUP_REPEATS = 3

#: Traced self times must account for all but this share of a unit.
UNATTRIBUTED_LIMIT = 0.15

#: End-to-end metrics (``--trace 0``), each defined for every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("memory_mb", "MB"),
)


def git_sha() -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> Dict[str, Any]:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "loadavg_1m": os.getloadavg()[0],
    }


def _children(pid: int) -> List[int]:
    kids: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            kids += [int(k) for k in (task / "children").read_text().split()]
        except OSError:
            continue
    return kids


def _pss_kb(pid: int) -> int:
    try:
        lines = Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines()
    except OSError:
        return 0  # the process exited after it was listed
    for line in lines:
        if line.startswith("Pss:"):
            return int(line.split()[1])
    return 0


def memory_mb() -> float:
    """PSS of this process and its worker processes (shared pages once).

    Taken after a collection and after handing free heap pages back to the
    system, so it counts what the program holds, not what malloc happens to
    cache: untrimmed, locate-bulk read 122 MB in one set of ten runs and
    151 MB in the next with the same code.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except AttributeError:
        pass  # not glibc: nothing to trim
    pids = [os.getpid()] + _children(os.getpid())
    return sum(_pss_kb(pid) for pid in pids) / 1024.0


def stop_children() -> None:
    """End every process this run started and wait until each has ended.

    The worker pool joins its workers on close; any it left are killed
    here.  Shared memory also starts multiprocessing's resource tracker,
    which would otherwise outlive this process by however long it takes
    to notice the exit, so it is stopped and reaped here too.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from spans import Tracer
    from workloads import WORKLOADS, CheckFailed

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if not args.trace else "per_layer"]}
    ours = dict(END_TO_END if not args.trace else layers.PER_LAYER)
    named = {w["name"] for w in spec["workloads"]}
    if declared != ours or named != set(WORKLOADS) or args.workload not in WORKLOADS:
        print("perfbench: BENCHMARK.json and perfbench disagree on metrics or workloads", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    origin = provenance(args.seed)
    workload = WORKLOADS[args.workload](args.seed, OUT / f"scratch-{os.getpid()}")
    record: Dict[str, Any] = {"workload": args.workload, "trace": args.trace, "provenance": origin}
    metrics: Dict[str, float] = {}
    details: Dict[str, Any] = {}
    attempted = failed = 0
    correct = True
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            began = time.perf_counter()
            workload.prepare()
            setups.append(time.perf_counter() - began)
        began = time.perf_counter()
        workload.warm_up()
        warm = time.perf_counter() - began
        record["setup"] = {"prepare_s": setups, "warm_up_s": warm}
        setup_s = statistics.median(setups) + warm
        if not args.trace:
            loop = workload.measure(args.seconds, None, workload.min_units)
            attempted, failed = loop.attempted, loop.failed
            details = workload.details(loop)
            metrics = {
                "setup_s": setup_s,
                "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
                "throughput_per_s": loop.throughput(),
            }
            del loop  # its per-request samples are the benchmark's memory, not the program's
            metrics["memory_mb"] = memory_mb()
        else:
            plain = workload.measure(args.seconds / 2, None, min(workload.min_units, 2))
            workload.before_trace()
            tracer = Tracer()
            installed = layers.install(tracer)
            try:
                loop = workload.measure(args.seconds / 2, tracer, min(workload.min_units, 2))
            finally:
                installed.remove()
            analysis = tracer.analyse(workload.root, layers.IDLE)
            workload.after_trace(analysis)
            workload.facts["overhead_pct"] = (
                statistics.median(loop.latencies) / statistics.median(plain.latencies) - 1.0
            ) * 100.0
            metrics = layers.per_layer(analysis, workload.facts)
            if metrics["unattributed_share"] > UNATTRIBUTED_LIMIT:
                print(f"perfbench: layer spans cover only {1 - metrics['unattributed_share']:.1%} "
                      "of the traced unit time", file=sys.stderr)
            record["layers"] = layers.layer_table(analysis)
            tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")
            attempted, failed = plain.attempted + loop.attempted, plain.failed + loop.failed
    except CheckFailed as exc:
        correct = False
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
    finally:
        try:
            workload.close()
        finally:
            stop_children()

    record.update(correct=correct, attempted=attempted, failed=failed, metrics=metrics, details=details)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    report(args, origin, metrics, dict(END_TO_END + layers.PER_LAYER), details, record.get("layers"))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": ours[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def report(args, origin, metrics, units, details, layer_rows) -> None:
    """The figures for people, above the JSON line."""
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{key}={value}" for key, value in origin.items() if key != "seed"))
    for name, value in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {units[name]}")
    for name, (value, unit) in details.items():
        print(f"  {args.workload}.{name:<{31 - len(args.workload)}} {value:>14.6g} {unit}")
    if layer_rows:
        print(f"  {'span (self time per unit)':<44} {'ms':>10} {'share':>7} {'calls':>7}")
        for name, ms, share, calls in layer_rows:
            print(f"  {name:<44} {ms:>10.4f} {share:>7.1%} {calls:>7}")


if __name__ == "__main__":
    sys.exit(main())
