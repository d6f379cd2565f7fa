"""Process-shard boot: concurrent forks, reaping on failure, fd hygiene.

Counted, not timed: the order of forks and handshakes, the liveness of
every forked child, the descriptors a child holds and the parent's open-fd
count are facts a slow box cannot blur.
"""

import atexit
import dataclasses
import gc
import os
import socket
import subprocess
import threading
import time
import warnings
import weakref

import pytest

from repro.database.schema import SchemaError
from repro.sharding import ShardError, build_topology, sharded_federation
from repro.sharding import topology as topology_module
from repro.sharding import worker
from repro.sharding.shards import ProcessShard
from repro.sharding.topology import process_shards

needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads fds through /proc"
)


def _silent(boot):
    return lambda: time.sleep(60)


def _noisy(boot):
    """The real boot, after 1 MiB written to stderr: 16 pipe buffers' worth."""

    def flood():
        os.write(2, b"x" * 2**20)
        return boot()

    return flood


def _failing(boot):
    def fail():
        raise RuntimeError("boot refused on purpose")

    return fail


def _topology(shards=2, seed=5):
    return build_topology(
        shards=shards, parties_per_shard=3, tables=4, rows_per_table=12,
        partitioned=1, seed=seed,
    )


@pytest.fixture
def recorded_fork(monkeypatch):
    """Record every ``os.fork`` and every handshake, in order.

    ``events`` is the interleaved log; ``children`` the forked pids;
    ``swaps[i]``, when set, wraps the i-th worker's boot in the child (it is
    given the real boot and returns the one the worker runs).
    """
    events, children, swaps = [], [], {}
    fork = os.fork

    def recorded():
        pid = fork()
        if pid:
            events.append("launch")
            children.append(pid)
        return pid

    run = worker.run

    def swapped(boot, announce, stderr):
        # In the i-th child, the gateway has recorded i forks.
        swap = swaps.get(len(children))
        return run(swap(boot) if swap else boot, announce, stderr)

    handshake = ProcessShard.handshake

    def recorded_handshake(self, boot_timeout=30.0):
        events.append("handshake")
        return handshake(self, boot_timeout)

    monkeypatch.setattr(os, "fork", recorded)
    monkeypatch.setattr(worker, "run", swapped)
    monkeypatch.setattr(ProcessShard, "handshake", recorded_handshake)
    return events, children, swaps


def _all_reaped(children):
    """Whether every pid was already reaped (a live or zombie child is not)."""
    for pid in children:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


def test_every_worker_is_launched_before_any_handshake(recorded_fork):
    events, children, _swaps = recorded_fork
    shards = process_shards(_topology(shards=3))
    try:
        assert events == ["launch"] * 3 + ["handshake"] * 3
        assert [shard.index for shard in shards] == [0, 1, 2]
        assert [shard.process.pid for shard in shards] == children
        assert all(shard._request({"op": "ping"})["ok"] for shard in shards)
    finally:
        for shard in shards:
            shard.close()
    assert _all_reaped(children)


def test_every_shard_is_built_before_the_first_fork_and_kept_by_no_one(
    recorded_fork, monkeypatch
):
    events, children, _swaps = recorded_fork
    built = []
    build = topology_module._shard_federation

    def recorded_build(*args, **kwargs):
        federation = build(*args, **kwargs)
        events.append("build")
        built.append(weakref.ref(federation))
        return federation

    monkeypatch.setattr(topology_module, "_shard_federation", recorded_build)
    shards = process_shards(_topology(shards=3))
    try:
        assert events == ["build"] * 3 + ["launch"] * 3 + ["handshake"] * 3
        gc.collect()
        assert len(built) == 3
        assert [ref() for ref in built] == [None] * 3
        assert all(shard._request({"op": "ping"})["ok"] for shard in shards)
    finally:
        for shard in shards:
            shard.close()
    assert _all_reaped(children)


def test_unbootable_shard_raises_with_its_stderr_and_reaps_every_worker(
    recorded_fork,
):
    _events, children, swaps = recorded_fork
    # Shard 1's worker raises in the child, after every worker is forked.
    swaps[1] = _failing
    with pytest.raises(ShardError) as caught:
        process_shards(_topology(shards=3))
    message = str(caught.value)
    assert "shard 1 worker failed to start" in message
    assert "RuntimeError: boot refused on purpose" in message
    assert len(children) == 3
    assert _all_reaped(children)


def test_unbuildable_shard_is_refused_before_anything_is_forked(recorded_fork):
    events, children, _swaps = recorded_fork
    topology = _topology(shards=3)
    # Shard 1's first party holds a row its INTEGER column refuses: its
    # build raises, in the gateway.
    broken = [dict(shard) for shard in topology.assignments]
    owner = sorted(broken[1])[0]
    table = topology.shard_tables(1)[0]
    broken[1][owner] = {**broken[1][owner], table: ["not-a-number"]}
    topology = dataclasses.replace(topology, assignments=tuple(broken))

    with pytest.raises(ShardError) as caught:
        process_shards(topology)
    message = str(caught.value)
    assert "shard 1" in message
    assert (
        "SchemaError: column 'value' expects INTEGER, got 'not-a-number'"
        in message
    )
    assert isinstance(caught.value.__cause__, SchemaError)
    assert events == [] and children == []


def test_silent_worker_is_killed_at_boot_timeout(recorded_fork):
    _events, children, swaps = recorded_fork
    swaps[1] = _silent
    began = time.monotonic()
    with pytest.raises(ShardError, match="shard 1 worker failed to start"):
        process_shards(_topology(shards=2), boot_timeout=1.0)
    assert time.monotonic() - began < 30.0
    assert len(children) == 2
    assert _all_reaped(children)


def test_worker_that_floods_stderr_still_serves(recorded_fork):
    _events, children, swaps = recorded_fork
    swaps[0] = _noisy
    shards = process_shards(_topology(shards=1), timeout=5.0)
    try:
        assert shards[0]._request({"op": "ping"})["ok"]
        assert shards[0].members()
    finally:
        for shard in shards:
            shard.close()
    assert _all_reaped(children)


@needs_proc
def test_a_worker_holds_its_own_fds_only_and_frees_a_gateway_port(recorded_fork):
    _events, children, _swaps = recorded_fork
    gateway = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    gateway.bind(("127.0.0.1", 0))
    gateway.listen(1)
    port = gateway.getsockname()[1]
    shards = process_shards(_topology(shards=1))
    try:
        gateway.close()
        # A worker that kept its inherited copy would still hold the port.
        again = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            again.bind(("127.0.0.1", port))
            again.listen(1)
        finally:
            again.close()
        pid = shards[0].process.pid
        held = {
            int(fd): os.readlink(f"/proc/{pid}/fd/{fd}")
            for fd in os.listdir(f"/proc/{pid}/fd")
        }
        stderr = os.readlink(f"/proc/self/fd/{shards[0]._stderr.fileno()}")
        assert held.pop(0) == held.pop(1) == os.devnull
        assert held.pop(2) == stderr
        # What is left is the worker's own listener: no pipe, no file, no
        # socket of the gateway's.
        assert len(held) == 1 and next(iter(held.values())).startswith("socket:")
    finally:
        for shard in shards:
            shard.close()
    assert _all_reaped(children)


def test_a_failing_child_runs_no_gateway_atexit_handler_or_finally(
    recorded_fork, tmp_path
):
    _events, children, swaps = recorded_fork
    swaps[0] = _failing
    gateway = os.getpid()
    marker = tmp_path / "gateway-code-ran-in-a-child"

    def mark():
        if os.getpid() != gateway:
            marker.write_text(str(os.getpid()))

    atexit.register(mark)
    try:
        with pytest.raises(ShardError, match="boot refused on purpose"):
            try:
                process_shards(_topology(shards=1))
            finally:
                mark()
    finally:
        atexit.unregister(mark)
    assert len(children) == 1 and _all_reaped(children)
    assert not marker.exists()


def test_process_shards_run_no_subprocess(recorded_fork, monkeypatch):
    _events, children, _swaps = recorded_fork
    popened = []

    class RefusedPopen(subprocess.Popen):
        def __init__(self, args, **kwargs):
            popened.append(args)
            raise AssertionError(f"process_shards ran a subprocess: {args!r}")

    monkeypatch.setattr(subprocess, "Popen", RefusedPopen)
    shards = process_shards(_topology(shards=2))
    for shard in shards:
        shard.close()
    assert popened == []
    assert len(children) == 2 and _all_reaped(children)


def test_a_live_thread_refuses_the_fork(recorded_fork):
    events, children, _swaps = recorded_fork
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        with pytest.raises(ShardError, match="unsafe with 2 threads alive"):
            process_shards(_topology(shards=2))
    finally:
        release.set()
        thread.join()
    assert events == [] and children == []


@needs_proc
def test_closed_and_killed_shards_hold_no_fds_and_warn_nothing():
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    topology = _topology(shards=2)
    sharded_federation(topology, processes=True).close()  # one-time opens
    gc.collect()
    before = open_fds()
    # Keep every dead federation reachable: fds must go at close()/kill(),
    # not whenever the collector finds the shard objects.
    dead = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for cycle in range(3):
            federation = sharded_federation(topology, processes=True)
            if cycle == 1:
                federation.shards[0].kill()
            federation.close()
            dead.append(federation)
        assert open_fds() == before
        del dead, federation
        gc.collect()
    leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert not leaks, [str(w.message) for w in leaks]
