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
        "8569777845c9e588175714a452eaae12654e002d78d21a506331a513a7fc13fa",
    "read_strong":
        "15b3aac270f3a20a813e5e638d3e3dd642c140e9d2cf6511d52e374ff33dfdbd",
    "mixed_openloop":
        "ddf5ec2f522c1d54f6910e50d9a3299d8f2ebfcd741cd6ca04f295d29077b2cf",
    "failover":
        "47e43d323c4cc928f8f47c37acd2f13604bc92b306f10290da64ed3247c63bdb",
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
