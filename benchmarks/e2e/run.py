"""The end-to-end benchmark's one command.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once and prints, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.
Without ``--workload`` all five run in turn.  ``--repeat N`` and
``--check-bounds A.json B.json`` are the repeatability tools the bounds
in ``BENCHMARK.json`` were derived with.  See README.md beside this file.
"""

from __future__ import annotations

import os
import sys

if __package__ in (None, ""):
    # Run as a script: make ``benchmarks.e2e`` and ``repro`` importable and
    # drop the script directory, whose module names (wire, fleet ...) must
    # not shadow anything.
    _here = os.path.dirname(os.path.abspath(__file__))
    _root = os.path.dirname(os.path.dirname(_here))
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _here]
    sys.path[:0] = [_root, os.path.join(_root, "src")]

import argparse
import json
import math
import shutil
import statistics
import subprocess
import time
from typing import Any, Callable, Dict, List, Optional

from benchmarks.e2e import layers
from benchmarks.e2e.common import (
    DEFAULT_SEED,
    OUT_DIR,
    RECOVER_REPS,
    SETUP_REPS,
    load_spec,
    median,
    pin_to_one_cpu,
    ratio,
    scratch_root,
)
from benchmarks.e2e.fanout import FanoutWorkload
from benchmarks.e2e.fleet import FleetWorkload
from benchmarks.e2e.timeoutcomp import TimeoutCompensateWorkload
from benchmarks.e2e.tracing import SpanTracer
from benchmarks.e2e.wire import WireWorkload

#: name -> factory(seed, scale); names and reasons live in BENCHMARK.json.
WORKLOADS: Dict[str, Callable[[int, float], Any]] = {
    "fanout8_binfile": lambda seed, scale: FanoutWorkload("binfile", seed, scale),
    "fanout8_sqlstore": lambda seed, scale: FanoutWorkload("sqlstore", seed, scale),
    "wire_fanout1_openloop": WireWorkload,
    "timeout_compensate_virtual": TimeoutCompensateWorkload,
    "fleet_pubsub": FleetWorkload,
}

#: Share of ``--seconds`` a ``--trace 1`` run gives to each of its two
#: measured phases, untraced and traced.  They are equally long because
#: some workloads slow down as they run (README, "Defects met"), and
#: ``trace.overhead_share`` must not compare a long run with a short one.
#: The cProfile slice in between is a fixed message count.
TRACE_PHASE_SHARE = 0.4


def _set_up(factory: Callable[[], Any], root: str, reps: int, tag: str) -> Any:
    """Set the workload up ``reps`` times; keep the last, time them all."""
    times: List[float] = []
    workload = None
    for rep in range(reps):
        if workload is not None:
            workload.teardown()
            shutil.rmtree(directory, ignore_errors=True)
        workload = factory()
        directory = os.path.join(root, f"{tag}{rep}")
        os.makedirs(directory)
        started = time.perf_counter()
        workload.setup(directory)
        times.append(time.perf_counter() - started)
    return workload, times


def _recover(factory: Callable[[], Any], root: str, reps: int) -> Any:
    """The recovery phase, on a deployment of its own.

    A fresh set-up (timed like the others) leaves a fixed number of
    messages in flight, closes every store and restarts ``reps`` times,
    so ``recover_s`` does not depend on how much the measured phase got
    done.  Returns ``(the finished workload, its set-up time)``.
    """
    workload, setup_times = _set_up(factory, root, 1, "recovery")
    try:
        workload.recovery(reps)
        workload.verify()
    finally:
        workload.teardown()
    return workload, setup_times[0]


def run_untraced(factory: Callable[[], Any], seconds: float, root: str) -> Dict[str, Any]:
    workload, setup_times = _set_up(factory, root, SETUP_REPS - 1, "store")
    try:
        workload.measure(seconds)
        workload.verify()
    finally:
        workload.teardown()
    metrics = workload.end_to_end()
    detail = {key: metrics.pop(key) for key in list(metrics) if key.startswith("_")}
    metrics["peak_rss_mb"] = workload.rss.value()
    ran = [_Tally(workload)]
    del workload  # the recovery phase starts from a heap without it
    restarted, setup_time = _recover(factory, root, RECOVER_REPS)
    ran.append(_Tally(restarted))
    setup_times.append(setup_time)
    metrics["recover_s"] = restarted.recovered["recover_s"]
    metrics["setup_s"] = median(setup_times)
    detail["setup_times_s"] = setup_times
    detail["recovery"] = restarted.recovered
    return _result("end_to_end", ran, metrics, detail)


def run_traced(
    factory: Callable[[], Any], seconds: float, root: str, name: str
) -> Dict[str, Any]:
    # 1. Untraced: counters, load-generator diagnostics, one restart.
    workload, _ = _set_up(factory, root, 1, "plain")
    try:
        workload.measure(seconds * TRACE_PHASE_SHARE)
        workload.verify()
    finally:
        workload.teardown()
    restarted, _ = _recover(factory, root, 1)
    facts = workload.layer_facts()
    facts["recover_records_per_s"] = restarted.recovered["records_per_s"]
    untraced = workload.end_to_end()

    # 2. cProfile over a fixed slice: calls per conditional message.
    profiled, _ = _set_up(factory, root, 1, "profiled")
    try:
        calls = layers.profile_calls(profiled.profile_slice)
        profiled.verify()
    finally:
        profiled.teardown()

    # 3. Traced: the same workload, shorter, with spans on.  The tracer is
    # installed before set-up so objects built there bind the wrappers.
    tracer = SpanTracer()
    tracer.install()
    try:
        traced, _ = _set_up(factory, root, 1, "traced")
        try:
            tracer.reset()
            traced.measure(seconds * TRACE_PHASE_SHARE)
            tracer.summarize()
            traced_facts = traced.traced_facts(tracer)
            traced.verify()
        finally:
            traced.teardown()
    finally:
        tracer.uninstall()
    ran = [_Tally(w) for w in (workload, restarted, profiled, traced)]
    facts["fail_share"] = ratio(
        sum(t.failed for t in ran), sum(t.attempted for t in ran)
    )
    metrics = layers.per_layer(
        facts, calls, tracer, traced_facts, untraced["decided_per_s"]
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace_{name}.json")
    tracer.write(trace_path, {"workload": name, **traced_facts})
    detail = {
        "trace_file": os.path.relpath(trace_path),
        "spans": len(tracer.spans),
        "layer_self_s": tracer.layer_self_s(),
        "traced": traced_facts,
    }
    return _result("per_layer", ran, metrics, detail)


class _Tally:
    """What the result line needs from a finished workload instance."""

    def __init__(self, workload: Any) -> None:
        self.attempted = workload.attempted
        self.failed = workload.failures.count
        self.reasons = list(workload.failures.reasons)


def _result(
    kind: str, ran: List[_Tally], metrics: Dict[str, float], detail: Dict[str, Any]
) -> Dict[str, Any]:
    """``kind`` names the ``BENCHMARK.json`` list the metrics answer."""
    failed = sum(t.failed for t in ran)
    attempted = sum(t.attempted for t in ran)
    detail["fail_share"] = ratio(failed, attempted)
    return {
        "kind": kind,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
        "reasons": [reason for t in ran for reason in t.reasons],
    }


def run_once(name: str, seed: int, seconds: float, scale: float, trace: bool) -> Dict[str, Any]:
    factory = lambda: WORKLOADS[name](seed, scale)  # noqa: E731
    with scratch_root() as root:
        if trace:
            return run_traced(factory, seconds * scale, root, name)
        return run_untraced(factory, seconds * scale, root)


# -- reporting ----------------------------------------------------------------


def report(name: str, seed: int, result: Dict[str, Any], spec: Dict[str, Any]) -> str:
    """Human-readable table, then the one-line JSON the driver parses."""
    listed = spec[result["kind"]]
    units = {m["name"]: m["unit"] for m in listed}
    wanted = list(units)
    missing = [m for m in wanted if m not in result["metrics"]]
    if missing:
        raise RuntimeError(f"{name}: metrics not measured: {missing}")
    lines = [f"== {name}  seed={seed}  correct={result['correct']}"
             f"  attempted={result['attempted']}  failed={result['failed']}"]
    for metric in wanted:
        lines.append(f"  {metric:<44} {result['metrics'][metric]:>16.6g} {units[metric]}")
    for key, value in sorted(result["detail"].items()):
        lines.append(f"  # {key}: {json.dumps(value, default=str)[:300]}")
    for reason in result["reasons"]:
        lines.append(f"  ! {reason}")
    payload = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            metric: {"value": result["metrics"][metric], "unit": units[metric]}
            for metric in wanted
        },
    }
    for metric, entry in payload["metrics"].items():
        if not math.isfinite(entry["value"]):
            raise RuntimeError(f"{name}: {metric} is not finite")
    lines.append(json.dumps(payload))
    return "\n".join(lines)


# -- repeatability tools ------------------------------------------------------


def _child(name: str, seed: int, args: argparse.Namespace) -> Dict[str, Any]:
    """One run in a fresh process (its own peak RSS, its own heap)."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", name, "--seed", str(seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--trace", str(args.trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    sys.stdout.write(done.stdout)
    sys.stderr.write(done.stderr)
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{name} seed {seed}: exit code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and the two spreads the bounds are judged by."""
    middle = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (middle,) * 3
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "iqr_share": ratio(q3 - q1, abs(middle)),
        "range_share": ratio(max(values) - min(values), abs(middle)),
    }


def repeat(names: List[str], args: argparse.Namespace) -> int:
    """Run each workload N times on consecutive seeds; print the spreads."""
    collected: Dict[str, Dict[str, List[float]]] = {}
    ok = True
    for name in names:
        series: Dict[str, List[float]] = {}
        for rep in range(args.repeat):
            result = _child(name, args.seed + rep, args)
            ok = ok and result["correct"]
            for metric, entry in result["metrics"].items():
                series.setdefault(metric, []).append(entry["value"])
        collected[name] = series
        print(f"== {name}: {args.repeat} runs, seeds {args.seed}..{args.seed + args.repeat - 1}")
        print(f"  {'metric':<44} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'rng/med':>8}")
        for metric, values in series.items():
            s = spread(values)
            print(f"  {metric:<44} {s['median']:>12.5g} {s['q1']:>12.5g}"
                  f" {s['q3']:>12.5g} {s['iqr_share']:>8.3f} {s['range_share']:>8.3f}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(collected, handle, indent=1)
        print(f"saved {args.save}")
    return 0 if ok else 1


def check_bounds(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    """Do two result sets of the same code agree within the bounds?"""
    with open(path_a, encoding="utf-8") as handle:
        first = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        second = json.load(handle)
    bad = 0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in sorted(set(first) & set(second)):
            a, b = first[workload].get(name), second[workload].get(name)
            if not a or not b:
                continue
            sa, sb = spread(a), spread(b)
            worse = sign * ratio(sb["median"] - sa["median"], abs(sa["median"]))
            wide = name != "setup_s" and max(sa["iqr_share"], sb["iqr_share"]) > bound
            verdict = "ok"
            if worse > bound:
                verdict = "WORSE THAN BOUND"
            elif wide:
                verdict = "SPREAD WIDER THAN BOUND"
            bad += verdict != "ok"
            print(f"{workload:<28} {name:<24} A={sa['median']:<11.5g} B={sb['median']:<11.5g}"
                  f" worse={worse:+.3f} iqr={sa['iqr_share']:.3f}/{sb['iqr_share']:.3f}"
                  f" bound={bound:.2f} {verdict}")
    return 1 if bad else 0


# -- entry point --------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="length of the measured phase")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink seconds and every fixed count (smoke runs)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--repeat", type=int, default=0, metavar="N")
    parser.add_argument("--save", metavar="FILE", help="with --repeat: write the result set")
    parser.add_argument("--check-bounds", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.check_bounds:
        return check_bounds(args.check_bounds[0], args.check_bounds[1], spec)
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    if args.repeat:
        return repeat(names, args)
    if args.workload is None:
        results = [_child(name, args.seed, args) for name in names]
        return 0 if all(r["correct"] for r in results) else 1
    pin_to_one_cpu()
    result = run_once(args.workload, args.seed, args.seconds, args.scale, bool(args.trace))
    print(report(args.workload, args.seed, result, spec))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
