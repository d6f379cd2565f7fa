"""Process-shard boot: concurrent launch, reaping on failure, no leaked fds.

Counted, not timed: the order of launches and handshakes, the liveness of
every launched child and the parent's open-fd count are facts a slow box
cannot blur.
"""

import dataclasses
import gc
import os
import subprocess
import sys
import time
import warnings

import pytest

from repro.sharding import ShardError, build_topology, sharded_federation
from repro.sharding.shards import ProcessShard
from repro.sharding.topology import process_shards

SILENT = "import time; time.sleep(60)"
#: A real worker that first writes 1 MiB to stderr: 16 pipe buffers' worth.
NOISY = (
    "import sys; sys.stderr.write('x' * 2**20); sys.stderr.flush();"
    "from repro.sharding.worker import main; sys.exit(main())"
)


def _topology(shards=2, seed=5):
    return build_topology(
        shards=shards, parties_per_shard=3, tables=4, rows_per_table=12,
        partitioned=1, seed=seed,
    )


@pytest.fixture
def recorded_popen(monkeypatch):
    """Record every ``subprocess.Popen`` and every handshake, in order.

    ``events`` is the interleaved log; ``children`` the launched processes;
    ``programs[i]``, when set, replaces the i-th launch's ``-m`` worker by a
    ``python -c`` program.
    """
    events, children, programs = [], [], {}

    class RecordedPopen(subprocess.Popen):
        def __init__(self, args, **kwargs):
            program = programs.get(len(children))
            if program is not None:
                args = [sys.executable, "-c", program]
            super().__init__(args, **kwargs)
            events.append("launch")
            children.append(self)

    original = ProcessShard.handshake

    def handshake(self, boot_timeout=30.0):
        events.append("handshake")
        return original(self, boot_timeout)

    monkeypatch.setattr(subprocess, "Popen", RecordedPopen)
    monkeypatch.setattr(ProcessShard, "handshake", handshake)
    return events, children, programs


def _all_reaped(children):
    return all(child.poll() is not None for child in children)


def test_every_worker_is_launched_before_any_handshake(recorded_popen):
    events, children, _programs = recorded_popen
    shards = process_shards(_topology(shards=3))
    try:
        assert events == ["launch"] * 3 + ["handshake"] * 3
        assert [shard.index for shard in shards] == [0, 1, 2]
        assert [shard.process for shard in shards] == children
        assert all(shard._request({"op": "ping"})["ok"] for shard in shards)
    finally:
        for shard in shards:
            shard.close()
    assert _all_reaped(children)


def test_unbootable_shard_raises_with_its_stderr_and_reaps_every_worker(
    recorded_popen,
):
    _events, children, _programs = recorded_popen
    topology = _topology(shards=3)
    # Shard 1's first party holds a row no worker can cast: its build raises.
    broken = [dict(shard) for shard in topology.assignments]
    owner = sorted(broken[1])[0]
    table = topology.shard_tables(1)[0]
    broken[1][owner] = {**broken[1][owner], table: ["not-a-number"]}
    topology = dataclasses.replace(topology, assignments=tuple(broken))

    with pytest.raises(ShardError) as caught:
        process_shards(topology)
    message = str(caught.value)
    assert "shard 1" in message
    assert "ValueError" in message and "not-a-number" in message
    assert len(children) == 3
    assert _all_reaped(children)


def test_silent_worker_is_killed_at_boot_timeout(recorded_popen):
    _events, children, programs = recorded_popen
    programs[1] = SILENT
    began = time.monotonic()
    with pytest.raises(ShardError, match="shard 1 worker failed to start"):
        process_shards(_topology(shards=2), boot_timeout=1.0)
    assert time.monotonic() - began < 30.0
    assert len(children) == 2
    assert _all_reaped(children)


def test_worker_that_floods_stderr_still_serves(recorded_popen):
    _events, children, programs = recorded_popen
    programs[0] = NOISY
    shards = process_shards(_topology(shards=1), timeout=5.0)
    try:
        assert shards[0]._request({"op": "ping"})["ok"]
        assert shards[0].members()
    finally:
        for shard in shards:
            shard.close()
    assert _all_reaped(children)


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="counts fds through /proc"
)
def test_closed_and_killed_shards_hold_no_fds_and_warn_nothing():
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    topology = _topology(shards=2)
    sharded_federation(topology, processes=True).close()  # one-time opens
    gc.collect()
    before = open_fds()
    # Keep every dead federation reachable: fds must go at close()/kill(),
    # not whenever the collector finds the Popen objects.
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
