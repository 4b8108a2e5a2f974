"""The CI benchmark gate: metric auto-detection and multi-file gating."""

import json
import sys

import pytest

sys.path.insert(0, "benchmarks")

from check_bench_regression import extract_metrics, main  # noqa: E402


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestMetricDetection:
    def test_throughput_shape(self, tmp_path):
        path = write(tmp_path / "t.json", {"msgs_per_sec": 500.0})
        assert extract_metrics(path, {"msgs_per_sec": 500.0}) == {
            "msgs_per_sec": 500.0
        }

    def test_persistence_shape_gates_each_backend(self):
        data = {
            "backends": [
                {"backend": "file", "flushes_per_sec": 100.0},
                {"backend": "sqlstore", "flushes_per_sec": 50.0},
            ]
        }
        assert extract_metrics("p.json", data) == {
            "file flushes_per_sec": 100.0,
            "sqlstore flushes_per_sec": 50.0,
        }

    def test_query_shape(self):
        assert extract_metrics("q.json", {"speedup_10k": 3.5}) == {
            "speedup_10k": 3.5
        }

    def test_pubsub_shape(self):
        data = {"speedup_10k_subs": 42.0, "results": [], "scales": [100]}
        assert extract_metrics("ps.json", data) == {"speedup_10k_subs": 42.0}

    def test_throughput_shape_with_multiprocess_section(self):
        data = {
            "msgs_per_sec": 500.0,
            "multiprocess": {"speedup_vs_1": 3.2, "counts": []},
        }
        assert extract_metrics("t.json", data) == {
            "msgs_per_sec": 500.0,
            "multiprocess speedup_vs_1": 3.2,
        }

    def test_unrecognized_shape_fails(self):
        with pytest.raises(SystemExit):
            extract_metrics("x.json", {"mystery": 1})


class TestGating:
    def test_regression_fails(self, tmp_path):
        base = write(tmp_path / "b.json", {"speedup_10k": 10.0})
        curr = write(tmp_path / "c.json", {"speedup_10k": 2.0})
        assert main(["--gate", f"{base}:{curr}"]) == 1

    def test_within_tolerance_passes(self, tmp_path):
        base = write(tmp_path / "b.json", {"speedup_10k": 10.0})
        curr = write(tmp_path / "c.json", {"speedup_10k": 9.0})
        assert main(["--gate", f"{base}:{curr}"]) == 0

    def test_per_gate_tolerance_override(self, tmp_path):
        base = write(tmp_path / "b.json", {"msgs_per_sec": 100.0})
        curr = write(tmp_path / "c.json", {"msgs_per_sec": 60.0})
        assert main(["--gate", f"{base}:{curr}"]) == 1
        assert main(["--gate", f"{base}:{curr}:0.5"]) == 0

    def test_one_backend_regression_cannot_hide(self, tmp_path):
        base = write(
            tmp_path / "b.json",
            {"backends": [
                {"backend": "file", "flushes_per_sec": 100.0},
                {"backend": "sqlstore", "flushes_per_sec": 50.0},
            ]},
        )
        curr = write(
            tmp_path / "c.json",
            {"backends": [
                {"backend": "file", "flushes_per_sec": 500.0},
                {"backend": "sqlstore", "flushes_per_sec": 10.0},
            ]},
        )
        assert main(["--gate", f"{base}:{curr}"]) == 1

    def test_counts_are_gated_at_zero_tolerance_upward(self, tmp_path):
        def rows(bytes_per_send, records_per_send=17, rate=100.0):
            return {"backends": [{
                "backend": "binfile", "flushes_per_sec": rate,
                "bytes_per_send": bytes_per_send, "records_per_send": records_per_send,
            }]}

        base = write(tmp_path / "b.json", rows(5000))
        same = write(tmp_path / "same.json", rows(5000, rate=90.0))
        one_more_byte = write(tmp_path / "byte.json", rows(5001, rate=400.0))
        one_more_record = write(tmp_path / "record.json", rows(5000, 18))
        fewer = write(tmp_path / "fewer.json", rows(2000))
        no_counts = write(tmp_path / "none.json", {
            "backends": [{"backend": "binfile", "flushes_per_sec": 100.0}]
        })
        assert main(["--gate", f"{base}:{same}"]) == 0
        # Not even a loose rate tolerance (or a faster run) buys a byte.
        assert main(["--gate", f"{base}:{one_more_byte}:0.9"]) == 1
        assert main(["--gate", f"{base}:{one_more_record}"]) == 1
        assert main(["--gate", f"{base}:{fewer}"]) == 0
        assert main(["--gate", f"{base}:{no_counts}"]) == 1  # a count went missing
        assert main(["--gate", f"{no_counts}:{base}"]) == 0  # an older baseline

    def test_missing_metric_in_current_fails(self, tmp_path):
        base = write(
            tmp_path / "b.json",
            {"backends": [{"backend": "file", "flushes_per_sec": 100.0}]},
        )
        curr = write(tmp_path / "c.json", {"backends": []})
        with pytest.raises(SystemExit):
            main(["--gate", f"{base}:{curr}"])

    def test_multiprocess_speedup_regression_cannot_hide(self, tmp_path):
        base = write(
            tmp_path / "b.json",
            {"msgs_per_sec": 100.0, "multiprocess": {"speedup_vs_1": 3.0}},
        )
        curr = write(
            tmp_path / "c.json",
            {"msgs_per_sec": 200.0, "multiprocess": {"speedup_vs_1": 1.0}},
        )
        assert main(["--gate", f"{base}:{curr}"]) == 1

    def test_legacy_interface_still_works(self, tmp_path):
        base = write(tmp_path / "b.json", {"msgs_per_sec": 100.0})
        curr = write(tmp_path / "c.json", {"msgs_per_sec": 101.0})
        assert main(["--baseline", base, "--current", curr]) == 0
