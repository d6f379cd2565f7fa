"""Every example script must run clean — examples are part of the API surface.

Each runs in a subprocess exactly as a user would invoke it, and the test
checks both the exit status and a content marker proving the script got to
its payoff (not just imported and exited).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: script name -> a marker string its output must contain.
EXPECTED_MARKERS = {
    "quickstart.py": "worst-case LoP",
    "retail_sales.py": "probabilistic",
    "security_watchlist.py": "remap each round",
    "knn_classifier.py": "diagnosis",
    "parameter_tuning.py": "privacy/efficiency knee",
    "federated_analytics.py": "audit log",
    "tcp_deployment.py": "all agree",
    "governed_consortium.py": "exposure ledger",
}


def test_every_example_has_a_marker():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert scripts == set(EXPECTED_MARKERS), (
        "examples changed: update EXPECTED_MARKERS"
    )


@pytest.mark.parametrize("script", sorted(EXPECTED_MARKERS))
def test_example_runs_clean(script):
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script)],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert completed.returncode == 0, completed.stderr
    assert EXPECTED_MARKERS[script] in completed.stdout, completed.stdout[-500:]
    assert completed.stderr == ""
