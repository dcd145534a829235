"""Both MLP engines against the commit before their one product function.

``data/parent_3e2ec41_engines.json`` is ``engine_bits.py`` run with
commit 3e2ec41's ``src/`` on the path: per engine and layer shape, the
digests of the forward, the inference passes, and the backward with a
fresh and with an accumulating gradient.  Every product is a BLAS
``sgemm``, so the comparison runs only on the host that recorded it.
"""

import json
from pathlib import Path

import pytest

from tests.conftest import skip_unless_recorded_here
from tests.core import engine_bits

RECORDED = json.loads((Path(__file__).parent / "data" / "parent_3e2ec41_engines.json").read_text())


@pytest.mark.parametrize("cell", engine_bits.cells(), ids=lambda c: engine_bits.name(*c))
def test_engine_bits_are_the_parents(cell):
    skip_unless_recorded_here(RECORDED["host"])
    assert engine_bits.digest(*cell) == RECORDED["cells"][engine_bits.name(*cell)]
