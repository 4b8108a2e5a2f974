"""Fail CI when a committed benchmark regresses against its baseline.

Usage (what the CI benchmark-smoke job runs)::

    cp BENCH_persistence.json /tmp/persistence.json   # committed baselines
    cp BENCH_query.json /tmp/query.json
    cp BENCH_restart.json /tmp/restart.json
    pytest benchmarks/test_persistence_backends.py
    BENCH_SHORT=1 pytest benchmarks/test_query.py
    pytest benchmarks/test_restart_scaling.py
    python benchmarks/check_bench_regression.py \
        --gate /tmp/persistence.json:BENCH_persistence.json \
        --gate /tmp/query.json:BENCH_query.json:0.5 \
        --gate /tmp/restart.json:BENCH_restart.json

Each ``--gate baseline:current[:tolerance]`` pair is compared on what the
file carries (auto-detected from its shape), and only on what does not
depend on the machine — no wall-clock rate is gated:

* ``BENCH_persistence.json`` — the exact ``records_per_send`` and
  ``bytes_per_send`` of each store.  **Zero tolerance upward**, whatever
  tolerance the gate was given: one more record or byte per send than the
  committed baseline fails, fewer asks for the baseline to be refreshed.
* ``BENCH_restart.json`` — per restart shape, the exact
  ``messages_live``, ``messages_decoded``, ``records_scanned`` and
  ``bytes_rewritten``, gated the same way: a restart that resurrects,
  reads or writes back more than the committed baseline fails.
* ``BENCH_query.json`` — ``speedup_10k``, the worst selector-pushdown
  speedup over the linear scan at depth 10k;
* ``BENCH_pubsub.json`` — ``speedup_10k_subs``, the subscription-trie
  matching speedup over the linear pattern scan at 10k subscriptions.

The two ratios divide machine speed out; they are higher-is-better and
fail when the current value is more than ``tolerance`` (default 25%)
below the baseline.  Improvements never fail; the job log suggests
refreshing the committed baseline when the current run is substantially
better.
"""

import argparse
import json
import sys

DEFAULT_TOLERANCE = 0.25

#: ratio metrics (higher is better), each the top-level key of its file
RATIO_FIELDS = ("speedup_10k", "speedup_10k_subs")
#: exact per-backend counts of ``BENCH_persistence.json`` (lower is better)
COUNT_FIELDS = ("records_per_send", "bytes_per_send")
#: exact per-shape counts of ``BENCH_restart.json`` (lower is better)
RESTART_SHAPES = ("all_live", "consumed")
RESTART_FIELDS = (
    "messages_live", "messages_decoded", "records_scanned", "bytes_rewritten",
)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"{path}: cannot read benchmark JSON ({exc})")


def extract_ratios(path, data):
    """name -> ratio, for the shapes that carry one."""
    ratios = {}
    for name in RATIO_FIELDS:
        if name in data:
            try:
                ratios[name] = float(data[name])
            except (TypeError, ValueError) as exc:
                raise SystemExit(f"{path}: no usable {name} field ({exc})")
            if ratios[name] <= 0:
                raise SystemExit(f"{path}: non-positive {name} {data[name]!r}")
    return ratios


def extract_counts(data):
    """name -> exact count, for the shapes that carry any."""
    counts = {
        f"{entry.get('backend', '?')} {field}": entry[field]
        for entry in data.get("backends", ())
        for field in COUNT_FIELDS
        if field in entry
    }
    for shape in RESTART_SHAPES:
        entry = data.get(shape)
        if isinstance(entry, dict):
            counts.update(
                (f"{shape} {field}", entry[field])
                for field in RESTART_FIELDS
                if field in entry
            )
    return counts


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


def check_ratios(current_path, baseline, current, tolerance):
    """Returns the number of ratios more than ``tolerance`` below baseline."""
    failures = 0
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


def check_gate(baseline_path, current_path, tolerance):
    """Print the comparison; return the number of regressed metrics."""
    baseline, current = _load(baseline_path), _load(current_path)
    baseline_ratios = extract_ratios(baseline_path, baseline)
    current_ratios = extract_ratios(current_path, current)
    for path, data, ratios in (
        (baseline_path, baseline, baseline_ratios),
        (current_path, current, current_ratios),
    ):
        counted = ("backends", *RESTART_SHAPES)
        if not any(key in data for key in counted) and not ratios:
            raise SystemExit(
                f"{path}: unrecognized benchmark shape (keys {sorted(data)})"
            )
    return check_counts(
        current_path, extract_counts(baseline), extract_counts(current)
    ) + check_ratios(current_path, baseline_ratios, current_ratios, tolerance)


def parse_gate(spec):
    """'baseline:current[:tolerance]' -> (baseline, current, tolerance)."""
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise SystemExit(f"--gate {spec!r}: expected baseline:current[:tolerance]")
    try:
        tolerance = float(parts[2]) if len(parts) == 3 else DEFAULT_TOLERANCE
    except ValueError:
        raise SystemExit(f"--gate {spec!r}: bad tolerance {parts[2]!r}")
    if not 0 <= tolerance < 1:
        raise SystemExit(f"--gate {spec!r}: tolerance must be in [0, 1)")
    return parts[0], parts[1], tolerance


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Gate CI on benchmark regressions."
    )
    parser.add_argument(
        "--gate", action="append", required=True, metavar="BASELINE:CURRENT[:TOL]",
        help="gate one benchmark file pair (repeatable)",
    )
    args = parser.parse_args(argv)
    failures = sum(check_gate(*parse_gate(spec)) for spec in args.gate)
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
