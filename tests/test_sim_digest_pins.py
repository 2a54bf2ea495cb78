"""The benchmark's simulated outcome, pinned: every workload's ``sim_digest``.

``perfbench/run.py`` digests what a run simulated — every operation's
simulated latency and outcome — apart from how long the host took.  A
pure-speed change must leave all four digests exactly as they are; this
test makes that a gate instead of a check run by hand.  A change that
means to move simulated time (event order, a protocol or model change)
updates this table in the same commit and says so in its description.

The values are the same on Python 3.9, 3.11 and 3.12.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

#: ``perfbench/run.py --workload W --seed 1 --quick --trace 0``
SIM_DIGESTS = {
    "write_strong":
        "8a8ddf40a6be2dcec04c2fef1956909e676570cb77381621c47564d685b581ab",
    "read_strong":
        "9da21fedfa8f90af334932c7b2f1b99bd05962412b1e443b6bdb07199132caa2",
    "mixed_openloop":
        "1de5f90f3549d065bd71cbf7fda5899e585cf8047b7de805f3e3bdcaf2b453a1",
    "failover":
        "47538d39e55aef40f61a768f665abf91b0f8da1b7256c620d7d55eed9c8fe0bf",
}


@pytest.mark.parametrize("workload", sorted(SIM_DIGESTS))
def test_the_simulated_outcome_is_pinned(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--quick", "--trace", "0"],
        cwd=REPO, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    digests = re.findall(r"^\s*sim_digest ([0-9a-f]{64})\b", done.stdout,
                         re.MULTILINE)
    assert digests == [SIM_DIGESTS[workload]], done.stdout[-2000:]
