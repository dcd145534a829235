"""The one dispatch loop against the two loops it replaced.

``data/parent_7541f89_expected.json`` is ``dispatch_bits.py`` run with
commit 7541f89's ``src/`` on the path, the last commit to hold a plain
and a fault-aware replica set; the simulation is virtual-clocked, so
the working tree must reproduce every digit on every host.
"""

import json
from pathlib import Path

import pytest

from tests.serve import dispatch_bits

EXPECTED = json.loads(
    (Path(__file__).parent / "data" / "parent_7541f89_expected.json").read_text()
)


@pytest.mark.parametrize("router,policy,fault", dispatch_bits.cells())
def test_serving_reproduces_the_parent_bitwise(router, policy, fault):
    assert dispatch_bits.digest(router, policy, fault) == EXPECTED[f"{router}/{policy}/{fault}"]
