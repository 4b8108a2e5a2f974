"""Smoke test of the end-to-end benchmark (not part of tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs once untraced and once traced at ``--scale 0.02``
(a fraction of a second measured, a handful of messages in flight).
"""

import glob
import math
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import run  # noqa: E402
from benchmarks.e2e.common import OUT_DIR, load_spec  # noqa: E402
from benchmarks.e2e.tracing import WRAP_TABLE  # noqa: E402

SPEC = load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _wrapped_attributes():
    return [owner.__dict__[attribute] for _, owner, attribute, _, _ in WRAP_TABLE]


def test_spec_and_registry_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in names


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_workload_emits_its_metrics(workload, trace):
    before = _wrapped_attributes()
    result = run.run_once(
        workload, seed=7, seconds=float(SPEC["run_seconds"]), scale=0.02, trace=trace
    )
    # The report is what the driver parses: it refuses a missing or
    # non-finite metric itself.
    last_line = run.report(workload, 7, result, SPEC).splitlines()[-1]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) >= {m["name"] for m in wanted}
    for metric in wanted:
        assert math.isfinite(result["metrics"][metric["name"]]), metric["name"]
    assert result["failed"] == 0, result["reasons"]
    assert result["correct"] and result["attempted"] >= 1
    assert result["detail"]["fail_share"] == 0
    assert '"metrics"' in last_line
    if not trace:
        assert all(result["metrics"][m["name"]] > 0 for m in wanted)
    else:
        assert os.path.exists(os.path.join(OUT_DIR, f"trace_{workload}.json"))
    # The tracer put back exactly what it replaced.
    after = _wrapped_attributes()
    assert all(a is b for a, b in zip(before, after))
    # No store directory or socket file survives the run.
    assert glob.glob(os.path.join(OUT_DIR, "run-*")) == []
    assert glob.glob(os.path.join(OUT_DIR, "**", "*.sock"), recursive=True) == []
