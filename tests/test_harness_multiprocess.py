"""MultiprocessDeployment: real subprocess hosts, guaranteed cleanup.

The deployment spawns ``python -m repro.net.host`` children; the
invariant under test is that *every* exit path — success, a failing
assertion mid-test, a child that crashes during startup — leaves no
orphan processes and no unix-socket files behind.
"""

import os

import pytest

from repro.harness.runner import MultiprocessDeployment


def all_exited(deployment):
    return all(proc.poll() is not None for proc in deployment.procs)


def test_unix_deployment_end_to_end():
    with MultiprocessDeployment(receivers=1, messages=10, timeout_s=60.0) as deployment:
        result = deployment.run()
    assert result["decided_success"] == 10
    assert result["pending"] == 0
    assert result["sends_per_sec"] > 0
    assert set(result["decision_latency_ms"]) == {"p50", "p95", "p99"}
    assert any(label.startswith("out:") for label in result["wire"])


def test_tcp_deployment_end_to_end():
    with MultiprocessDeployment(
        receivers=1, messages=5, transport="tcp", timeout_s=60.0
    ) as deployment:
        result = deployment.run()
    assert result["decided_success"] == 5
    assert result["pending"] == 0


def test_cleanup_runs_on_test_failure(tmp_path):
    """A failure after startup must not leak processes or socket files."""
    socket_dir = str(tmp_path / "socks")
    deployment = MultiprocessDeployment(
        receivers=2, messages=5, socket_dir=socket_dir, timeout_s=60.0
    )
    with pytest.raises(RuntimeError, match="simulated test failure"):
        with deployment:
            deployment.start_receivers()
            assert len(deployment.procs) == 2
            assert any(f.endswith(".sock") for f in os.listdir(socket_dir))
            raise RuntimeError("simulated test failure")
    assert all_exited(deployment)
    # Provided dir is kept, but the socket files inside it are removed.
    assert os.path.isdir(socket_dir)
    assert not [f for f in os.listdir(socket_dir) if f.endswith(".sock")]


def test_crashed_receiver_surfaces_and_cleans(tmp_path):
    """A child that dies during startup raises (with its stderr) and the
    deployment still tears down whatever did start."""
    socket_dir = str(tmp_path / "socks")
    os.makedirs(socket_dir)
    # Occupy the first receiver's socket path with a plain file so its
    # bind fails and the host process exits during startup.
    with open(os.path.join(socket_dir, "r0.sock"), "w", encoding="utf-8"):
        pass
    deployment = MultiprocessDeployment(
        receivers=1, messages=5, socket_dir=socket_dir, timeout_s=30.0
    )
    with pytest.raises(RuntimeError, match="before 'READY '"):
        with deployment:
            deployment.start_receivers()
    assert all_exited(deployment)


def test_owned_socket_dir_removed():
    deployment = MultiprocessDeployment(receivers=1, messages=1)
    socket_dir = deployment.socket_dir
    assert os.path.isdir(socket_dir)
    deployment.cleanup()
    assert not os.path.exists(socket_dir)


def test_constructor_validation():
    with pytest.raises(ValueError):
        MultiprocessDeployment(receivers=0, messages=1)
    with pytest.raises(ValueError):
        MultiprocessDeployment(receivers=1, messages=1, transport="carrier")
