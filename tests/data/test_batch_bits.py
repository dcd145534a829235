"""The Criteo generator's batches against the commit before its data kernels.

``data/parent_7e426b8_batches.json`` is ``batch_bits.py`` run with commit
7e426b8's ``src/`` on the path, the last commit that spelled the Zipf
tail and the teacher's bag sums in NumPy alone.  Under each kernel tier
every batch -- dense features, ids, offsets, labels -- must be the
parent's on every host; the teacher's logits go through a BLAS
``dgemv``, so they are compared only on the host that recorded them.
"""

import json
from pathlib import Path

import pytest

from tests.conftest import skip_unless_recorded_here
from tests.data import batch_bits

RECORDED = json.loads((Path(__file__).parent / "data" / "parent_7e426b8_batches.json").read_text())


@pytest.mark.parametrize("cell", batch_bits.cells(), ids=lambda c: batch_bits.name(*c))
def test_batches_are_the_parents(cell, kernel_tier):
    got, want = batch_bits.digest(*cell), RECORDED["cells"][batch_bits.name(*cell)]
    assert got["batches"] == want["batches"]
    skip_unless_recorded_here(RECORDED["host"])
    assert got["logits"] == want["logits"]
