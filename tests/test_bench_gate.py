"""The CI benchmark gate: exact counts, ratios, and multi-file gating."""

import json
import sys

import pytest

sys.path.insert(0, "benchmarks")

from check_bench_regression import extract_ratios, main  # noqa: E402


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestMetricDetection:
    def test_query_shape(self):
        assert extract_ratios("q.json", {"speedup_10k": 3.5}) == {
            "speedup_10k": 3.5
        }

    def test_pubsub_shape(self):
        data = {"speedup_10k_subs": 42.0, "results": [], "scales": [100]}
        assert extract_ratios("ps.json", data) == {"speedup_10k_subs": 42.0}

    def test_unrecognized_shape_fails(self, tmp_path):
        mystery = write(tmp_path / "x.json", {"mystery": 1})
        with pytest.raises(SystemExit):
            main(["--gate", f"{mystery}:{mystery}"])

    def test_wall_clock_rates_are_not_a_shape(self, tmp_path):
        rate = write(tmp_path / "t.json", {"msgs_per_sec": 500.0})
        with pytest.raises(SystemExit):
            main(["--gate", f"{rate}:{rate}"])


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
        base = write(tmp_path / "b.json", {"speedup_10k_subs": 100.0})
        curr = write(tmp_path / "c.json", {"speedup_10k_subs": 60.0})
        assert main(["--gate", f"{base}:{curr}"]) == 1
        assert main(["--gate", f"{base}:{curr}:0.5"]) == 0

    def test_counts_are_gated_at_zero_tolerance_upward(self, tmp_path):
        def rows(bytes_per_send, records_per_send=17):
            return {"backends": [{
                "backend": "binfile",
                "bytes_per_send": bytes_per_send, "records_per_send": records_per_send,
            }]}

        base = write(tmp_path / "b.json", rows(5000))
        same = write(tmp_path / "same.json", rows(5000))
        one_more_byte = write(tmp_path / "byte.json", rows(5001))
        one_more_record = write(tmp_path / "record.json", rows(5000, 18))
        fewer = write(tmp_path / "fewer.json", rows(2000))
        no_counts = write(tmp_path / "none.json", {"backends": [{"backend": "binfile"}]})
        assert main(["--gate", f"{base}:{same}"]) == 0
        # Not even a loose ratio tolerance buys a byte.
        assert main(["--gate", f"{base}:{one_more_byte}:0.9"]) == 1
        assert main(["--gate", f"{base}:{one_more_record}"]) == 1
        assert main(["--gate", f"{base}:{fewer}"]) == 0
        assert main(["--gate", f"{base}:{no_counts}"]) == 1  # a count went missing
        assert main(["--gate", f"{no_counts}:{base}"]) == 0  # an older baseline

    def test_restart_counts_are_gated_at_zero_tolerance_upward(self, tmp_path):
        def restart(live, decoded=None, scanned=1_000):
            shape = {
                "messages_live": live,
                "messages_decoded": live if decoded is None else decoded,
                "records_scanned": scanned,
                "seconds": 9.9,  # wall clock: never gated
            }
            return {"fanout": 8, "all_live": dict(shape), "consumed": shape}

        base = write(tmp_path / "b.json", restart(500))
        assert main(["--gate", f"{base}:{write(tmp_path / 's.json', restart(500))}"]) == 0
        for grown in (restart(501), restart(500, decoded=501), restart(500, scanned=1_001)):
            assert main(["--gate", f"{base}:{write(tmp_path / 'g.json', grown)}:0.9"]) == 1
        assert main(["--gate", f"{base}:{write(tmp_path / 'f.json', restart(250))}"]) == 0

    def test_restart_bytes_rewritten_is_gated_at_zero_tolerance_upward(self, tmp_path):
        def restart(rewritten):
            shape = {
                "messages_live": 500, "messages_decoded": 500,
                "records_scanned": 1_000, "bytes_rewritten": rewritten,
            }
            return {"fanout": 8, "all_live": dict(shape, bytes_rewritten=0), "consumed": shape}

        base = write(tmp_path / "b.json", restart(5_520_000))
        assert main(["--gate", f"{base}:{write(tmp_path / 's.json', restart(5_520_000))}"]) == 0
        grown = write(tmp_path / "g.json", restart(5_520_001))
        assert main(["--gate", f"{base}:{grown}:0.9"]) == 1
        assert main(["--gate", f"{base}:{write(tmp_path / 'f.json', restart(5_000_000))}"]) == 0
        # A current file that stopped reporting it fails as well.
        missing = restart(5_520_000)
        del missing["consumed"]["bytes_rewritten"]
        assert main(["--gate", f"{base}:{write(tmp_path / 'm.json', missing)}"]) == 1

    def test_missing_metric_in_current_fails(self, tmp_path):
        base = write(tmp_path / "b.json", {"speedup_10k": 10.0, "backends": []})
        curr = write(tmp_path / "c.json", {"backends": []})
        assert main(["--gate", f"{base}:{curr}"]) == 1

    def test_one_gate_failing_fails_the_run(self, tmp_path):
        good = write(tmp_path / "g.json", {"speedup_10k": 10.0})
        bad = write(tmp_path / "c.json", {"speedup_10k": 2.0})
        assert main(["--gate", f"{good}:{good}", "--gate", f"{good}:{bad}"]) == 1
