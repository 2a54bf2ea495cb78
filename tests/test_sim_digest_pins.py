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
        "b0e872c28b676ed029b5b78180006a28430f7080e2b1c7ec736eedcb1bc79651",
    "read_strong":
        "91874140a2d734b24211efae26877eb188f3fd42841873336bc8db0182092880",
    "mixed_openloop":
        "702b0cf9ce2667bc88aab7a88e3484eebc2a4220b889ed43b5128996c5bd2524",
    "failover":
        "96ce277243514807f8ffc233624e6f4f18930e9bcb35ef9f3a136739119a6592",
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
