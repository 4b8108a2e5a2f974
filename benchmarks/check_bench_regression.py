"""Fail CI when a committed benchmark regresses against its baseline.

Usage (what the CI benchmark-smoke job runs)::

    cp BENCH_throughput.json /tmp/throughput.json     # committed baselines
    cp BENCH_persistence.json /tmp/persistence.json
    cp BENCH_query.json /tmp/query.json
    BENCH_SHORT=1 pytest benchmarks/test_throughput.py benchmarks/test_query.py
    python benchmarks/check_bench_regression.py \
        --gate /tmp/throughput.json:BENCH_throughput.json \
        --gate /tmp/persistence.json:BENCH_persistence.json \
        --gate /tmp/query.json:BENCH_query.json

Each ``--gate baseline:current[:tolerance]`` pair is compared on the
metrics the file carries (auto-detected from its shape):

* ``BENCH_throughput.json`` — ``msgs_per_sec``, plus
  ``multiprocess.speedup_vs_1`` (wire-transport process scaling at 4
  receiver processes) when the file carries a ``multiprocess`` section;
* ``BENCH_persistence.json`` — ``flushes_per_sec`` per journal backend
  (each backend gated separately, so one backend regressing cannot hide
  behind another improving), plus the exact ``records_per_send`` and
  ``bytes_per_send`` of each backend;
* ``BENCH_query.json`` — ``speedup_10k``, the worst selector-pushdown
  speedup over the linear scan at depth 10k;
* ``BENCH_pubsub.json`` — ``speedup_10k_subs``, the subscription-trie
  matching speedup over the linear pattern scan at 10k subscriptions.

The counts are machine-independent, so they are gated at **zero
tolerance upward** whatever tolerance the gate was given: one more record
or byte per send than the committed baseline fails, fewer asks for the
baseline to be refreshed.  All other metrics are higher-is-better; a gate
fails when the current value is
more than ``tolerance`` (default 25%) below the baseline.  Wall-clock
numbers on shared CI runners are noisy even with best-of-N reporting, so
the tolerance is deliberately loose: the gate exists to catch real
hot-path regressions (a lost optimization, an accidental per-message
flush, a selector scan that stopped using the index), not 5% scheduling
jitter.  Ratio metrics like ``speedup_10k`` divide out machine speed and
are steadier than raw rates.

Improvements never fail; the job log suggests refreshing the committed
baseline when the current run is substantially faster.

The legacy single-file interface (``--baseline``/``--current``
[``--tolerance``]) is still accepted and behaves exactly as before.
"""

import argparse
import json
import sys

DEFAULT_TOLERANCE = 0.25


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: cannot read benchmark JSON ({exc})")


def _positive(path, name, value):
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise SystemExit(f"{path}: no usable {name} field ({exc})")
    if value <= 0:
        raise SystemExit(f"{path}: non-positive {name} {value!r}")
    return value


def extract_metrics(path, data):
    """name -> value (higher is better), auto-detected from the shape."""
    if "msgs_per_sec" in data:
        metrics = {
            "msgs_per_sec": _positive(path, "msgs_per_sec", data["msgs_per_sec"])
        }
        if "multiprocess" in data:
            # Process-scaling ratio (4-or-more receiver processes vs. 1
            # over the wire transport).  A ratio, so machine speed
            # divides out — but it does depend on the runner's core
            # count, hence the looser tolerance the CI job passes.
            metrics["multiprocess speedup_vs_1"] = _positive(
                path,
                "multiprocess speedup_vs_1",
                data["multiprocess"].get("speedup_vs_1"),
            )
        return metrics
    if "backends" in data:
        metrics = {}
        for entry in data["backends"]:
            backend = entry.get("backend", "?")
            metrics[f"{backend} flushes_per_sec"] = _positive(
                path, f"{backend} flushes_per_sec", entry.get("flushes_per_sec")
            )
        if not metrics:
            raise SystemExit(f"{path}: empty backends list")
        return metrics
    if "speedup_10k" in data:
        return {"speedup_10k": _positive(path, "speedup_10k", data["speedup_10k"])}
    if "speedup_10k_subs" in data:
        return {
            "speedup_10k_subs": _positive(
                path, "speedup_10k_subs", data["speedup_10k_subs"]
            )
        }
    raise SystemExit(f"{path}: unrecognized benchmark shape (keys {sorted(data)})")


#: exact per-backend counts of ``BENCH_persistence.json`` (lower is better)
COUNT_FIELDS = ("records_per_send", "bytes_per_send")


def extract_counts(data):
    """name -> exact count, for the shapes that carry any."""
    return {
        f"{entry.get('backend', '?')} {field}": entry[field]
        for entry in data.get("backends", ())
        for field in COUNT_FIELDS
        if field in entry
    }


def check_counts(current_path, baseline, current):
    """Zero tolerance upward; returns the number of counts that grew."""
    failures = 0
    for name, base in sorted(baseline.items()):
        now = current.get(name)
        print(f"{current_path}: {name} baseline {base}, current {now} (exact count)")
        if now is None or now > base:
            print(
                f"FAIL: {name} grew (or is missing); counts do not depend on"
                f" the machine, so this is the code.",
                file=sys.stderr,
            )
            failures += 1
        elif now < base:
            print(f"note: {name} fell — commit the fresh {current_path}.")
    return failures


def check_gate(baseline_path, current_path, tolerance):
    """Print the comparison; return the number of regressed metrics."""
    baseline_data, current_data = _load(baseline_path), _load(current_path)
    baseline = extract_metrics(baseline_path, baseline_data)
    current = extract_metrics(current_path, current_data)
    failures = check_counts(
        current_path, extract_counts(baseline_data), extract_counts(current_data)
    )
    for name, base in sorted(baseline.items()):
        if name not in current:
            print(
                f"{current_path}: metric {name!r} missing from current run",
                file=sys.stderr,
            )
            failures += 1
            continue
        now = current[name]
        floor = base * (1.0 - tolerance)
        change = (now - base) / base * 100.0
        print(
            f"{current_path}: {name} baseline {base:.2f}, current {now:.2f} "
            f"({change:+.1f}%), floor {floor:.2f} (tolerance {tolerance:.0%})"
        )
        if now < floor:
            print(
                f"FAIL: {name} regressed past the tolerance; if this is an"
                f" intentional trade-off, refresh the committed"
                f" {current_path} baseline in the same change.",
                file=sys.stderr,
            )
            failures += 1
        elif now > base * (1.0 + tolerance):
            print(
                f"note: {name} beats the baseline by more than the"
                f" tolerance — consider committing the fresh {current_path}"
                f" so the gate tracks the new level."
            )
    return failures


def parse_gate(spec):
    """'baseline:current[:tolerance]' -> (baseline, current, tolerance)."""
    parts = spec.split(":")
    if len(parts) == 2:
        return parts[0], parts[1], None
    if len(parts) == 3:
        try:
            tolerance = float(parts[2])
        except ValueError:
            raise SystemExit(f"--gate {spec!r}: bad tolerance {parts[2]!r}")
        return parts[0], parts[1], tolerance
    raise SystemExit(f"--gate {spec!r}: expected baseline:current[:tolerance]")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Gate CI on benchmark regressions."
    )
    parser.add_argument(
        "--gate", action="append", default=[], metavar="BASELINE:CURRENT[:TOL]",
        help="gate one benchmark file pair (repeatable)",
    )
    parser.add_argument(
        "--baseline", help="legacy: single baseline JSON (the reference)"
    )
    parser.add_argument(
        "--current", help="legacy: single current JSON produced by this run"
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below baseline (default 0.25)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")

    gates = [parse_gate(spec) for spec in args.gate]
    if args.baseline or args.current:
        if not (args.baseline and args.current):
            parser.error("--baseline and --current must be given together")
        gates.append((args.baseline, args.current, None))
    if not gates:
        parser.error("nothing to gate: pass --gate or --baseline/--current")

    failures = 0
    for baseline_path, current_path, tolerance in gates:
        if tolerance is not None and not 0 <= tolerance < 1:
            raise SystemExit(
                f"--gate {baseline_path}:{current_path}: tolerance"
                f" {tolerance!r} must be in [0, 1)"
            )
        failures += check_gate(
            baseline_path,
            current_path,
            args.tolerance if tolerance is None else tolerance,
        )
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
