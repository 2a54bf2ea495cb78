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
        "c42c6e26309c6277e44d670f7da38e867ab2adc492e8215edfa5a29bbc4899e5",
    "read_strong":
        "556269ad78c921104f81e1bede9e3194964b47347ac76b40a28fe0bfce38e245",
    "mixed_openloop":
        "531ca0b0d3c3026673b9af54b6da376c8d8e99ad9bc476ea8b191652a6b539d1",
    "failover":
        "090fa294aec28d65f72118b36cda854bf1bd357dd369bb7642c8932a049bffec",
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
