"""What a fresh interpreter loads to reach one module — counted, not timed.

Package ``__init__`` files export lazily (``repro/_lazy.py``), so importing
a leaf loads the modules it uses and nothing else.  Each case runs in its
own interpreter and inspects ``sys.modules``; a regression here is the shard
worker's boot time, the gateway's set-up or the figure path's start-up growing
again (DESIGN.md, "Cold start").
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def loaded_after(statements: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter that ran ``statements``."""
    program = f"{statements}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def under(modules, *prefixes):
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


def test_bare_import_loads_no_subpackage_and_no_numpy():
    modules = loaded_after("import repro")
    assert under(modules, "repro") == ["repro", "repro._lazy"]
    assert not under(modules, "numpy")


#: The TPC-H builder and the thread pool it builds parties on: neither is on
#: a shard worker's or the figure registry's start-up path.
PARTY_BUILDER = ("repro.database.tpch", "concurrent.futures.thread")


def test_shard_worker_closure():
    modules = loaded_after("import repro.sharding.worker")
    assert not under(
        modules,
        "repro.experiments", "repro.service", "repro.cli",
        "repro.deploy.runner", "repro.deploy.async_runner",
        "repro.deploy.tcp_node", "asyncio", "_ssl", *PARTY_BUILDER,
    )
    # 132 before the packages went lazy, 65 after.
    assert len(under(modules, "repro")) <= 70


def test_driver_closure_carries_no_channel_cipher():
    """Ring links carry plaintext: no cipher module, and no ``hmac``."""
    modules = loaded_after("import repro.core.driver")
    assert "repro.core.driver" in modules
    assert "repro.network.crypto" not in modules
    assert "hmac" not in modules


#: What no figure-path interpreter loads: the gateway and its transports, the
#: federation / planner / DP stack only ``ext-dp`` and ``ext-tpch-sweep`` run,
#: the storage engines, and the trial pool a gated run never starts.
NOT_ON_FIGURE_PATH = (
    "repro.service", "repro.sharding", "repro.deploy", "asyncio",
    "repro.federation", "repro.planner", "repro.privacy.dp",
    "repro.database.engines", "multiprocessing", "concurrent.futures.process",
)
#: The figure package before any figure runs: the registry, no figure module.
REGISTRY_ONLY = ["repro.experiments.figures", "repro.experiments.figures.registry"]


def test_figure_registry_closure():
    modules = loaded_after("import repro.experiments.figures.registry")
    assert not under(modules, *NOT_ON_FIGURE_PATH, *PARTY_BUILDER)
    # 95 while the registry imported all 19 figure modules up front, 44 after.
    assert len(under(modules, "repro")) <= 45
    assert under(modules, "repro.experiments.figures") == REGISTRY_ONLY


def test_running_a_paper_figure_loads_no_more_than_it_runs():
    """The registry's saving is not deferred to the first figure's run."""
    modules = loaded_after(
        "from repro.experiments.figures.registry import run_experiment\n"
        "run_experiment('fig6', trials=5)"
    )
    assert "repro.experiments.figures.fig6" in modules
    assert not under(modules, *NOT_ON_FIGURE_PATH)


def test_cli_list_loads_no_figure_module():
    modules = loaded_after("from repro.cli import main\nassert main(['list']) == 0")
    assert under(modules, "repro.experiments.figures") == REGISTRY_ONLY


def _bench_imports() -> str:
    """The ``repro`` imports of the frozen benchmark's workload builders."""
    lines = []
    for name in ("workloads.py", "harness.py"):
        tree = ast.parse((ROOT / "bench" / name).read_text())
        lines += [
            ast.unparse(node) for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "repro"
        ]
    return "\n".join(lines)


def test_every_span_target_is_loaded_before_a_recorder_installs():
    """``bench/spans.py::Recorder.install`` imports each target module inside
    its patch loop and finds the holders of a patched function by scanning
    the modules loaded *so far*: a target first imported there would bind the
    wrappers installed a moment earlier and keep them after ``uninstall``.
    So everything it targets must already be loaded by the benchmark's own
    imports — ``experiments/__init__`` loads ``runner`` for this reason.
    """
    statements = _bench_imports()
    assert "repro.service" in statements and "repro.sharding" in statements
    modules = loaded_after(statements)
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import spans
    finally:
        sys.path.remove(str(ROOT / "bench"))
    targets = sorted({target[1] for target in spans.TARGETS})
    assert len(targets) >= 17
    assert [t for t in targets if t not in modules] == []


@pytest.mark.parametrize(
    "first",
    [
        "import repro.privacy.precision",
        "import repro.privacy",
        "import repro",
        "from repro.privacy.precision import precision",
    ],
)
def test_precision_is_the_function_in_every_import_order(first):
    """``repro.privacy.precision`` names a submodule and a re-exported
    function; the package must hand out the function whichever came first."""
    program = (
        f"{first}\n"
        "import types, repro, repro.privacy\n"
        "from repro.privacy import precision\n"
        "from repro import precision as top\n"
        "assert isinstance(precision, types.FunctionType), precision\n"
        "assert top is precision is repro.privacy.precision is repro.precision\n"
        "assert precision([3, 2], [3, 1], 2) == 0.5\n"
    )
    subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
