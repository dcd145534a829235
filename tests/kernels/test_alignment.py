"""Cache-line alignment: where row arrays start, and that it never moves a bit.

Two things are pinned here.  *Where*: every array a native row kernel
reads rows from or writes rows to -- the embedding slab and its table
views, the Split-BF16 halves, a tiered slab, the dense slab's flats and
the pooled forward's output -- starts on a 64-byte line, and the fused
update scatters the bag gradient where it arrives, with no copy to place.  *Bits*: pool, scatter-add and the Split-BF16
update on a line-aligned array and on a copy 4, 16 or 32 bytes past a
line give the same bytes, under each kernel tier -- alignment moves
bytes, never bits, and the native entries take an array off a line.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import embedding
from repro.core.embedding import EmbeddingBag, SplitEmbeddingBag
from repro.core.model import DLRM
from repro.core.optim import SplitSGD
from repro.core.update import FusedBackwardUpdate
from repro.kernels import dispatch, native
from repro.kernels.workspace import LINE_BYTES, Workspace, aligned_empty
from repro.tiering.store import build_tiered
from tests.conftest import TIERED, tiny_config
from tests.kernels.test_native import halves, lookups, needs_native
from tests.kernels.test_segment import special_values

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf: wanted inputs


def placed(a: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``a`` whose first byte lies ``offset`` bytes past a line."""
    out = aligned_empty(a.nbytes + offset, np.uint8)[offset:].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def on_a_line(*arrays: np.ndarray) -> bool:
    return all(a.ctypes.data % LINE_BYTES == 0 for a in arrays)


@pytest.mark.parametrize("dtype", [np.float32, np.uint16, np.int64, np.uint8])
@pytest.mark.parametrize("shape", [0, 1, 7, (3, 5), (0, 16), (1000, 64)])
def test_aligned_empty(shape, dtype):
    a = aligned_empty(shape, dtype)
    assert a.shape == ((shape,) if isinstance(shape, int) else shape) and a.dtype == dtype
    assert a.flags.c_contiguous and a.flags.writeable
    assert a.size == 0 or on_a_line(a)  # an empty array has no first byte to place


class TestWhereRowsLive:
    @pytest.mark.parametrize("dim", [16, 32, 64])
    def test_fp32_slab_and_every_table_view(self, dim):
        model = DLRM(tiny_config(rows=37, dim=dim), seed=0)
        assert on_a_line(model.slab.weight, *(t.weight for t in model.tables.values()))

    @pytest.mark.parametrize("dim", [8, 16, 32])
    def test_split_bf16_halves(self, dim):
        model = DLRM(tiny_config(rows=37, dim=dim), seed=0, storage="split_bf16")
        assert on_a_line(model.slab.hi, model.slab.lo)
        if dim % 32 == 0:  # a 2-byte row of whole lines: every view starts one
            assert on_a_line(*(a for t in model.tables.values() for a in (t.hi, t.lo)))

    def test_a_stand_alone_table(self):
        assert on_a_line(EmbeddingBag(37, 16, rng=np.random.default_rng(0)).weight)

    def test_a_tiered_slab(self, tmp_path):
        plans = {1: types.SimpleNamespace(mode="hot_cold", hot_rows=np.arange(0, 37, 5))}
        model = build_tiered(
            lambda alloc: DLRM(tiny_config(rows=37, dim=16), seed=0, slab_alloc=alloc),
            plans,
            cold_dir=str(tmp_path),
        )
        assert on_a_line(model.slab.weight, model.tables[1].store.weight)

    def test_the_dense_slab_flats(self):
        model = DLRM(tiny_config(), seed=0)
        opt = SplitSGD(lr=0.1)
        opt.register(model.parameters())
        dense = model.dense
        assert on_a_line(dense.values, dense.grads, opt.state_view(model.parameters()[0]))

    @needs_native
    @pytest.mark.parametrize("offset", [0, 4, 16])
    def test_the_pooled_output(self, rng, offset):
        source = placed(rng.standard_normal((20, 16)).astype(np.float32), offset)
        idx, offsets, _ = lookups(rng, 20, 9, 5)
        assert on_a_line(native.pool_rows(source, idx, offsets))

    @pytest.mark.parametrize("bag_cls", [EmbeddingBag, SplitEmbeddingBag])
    def test_the_deltas_the_fused_update_scatters(self, monkeypatch, rng, bag_cls):
        """The bag-level gradient itself, on whatever line it arrives:
        the C loop scales it, so no scaled copy exists to place."""
        seen = []
        for name in ("scatter_add_exact", "split_scatter_add"):
            real = getattr(dispatch, name)

            def spy(*args, real=real, **kwargs):
                seen.append(args[-3])  # both take the deltas, the offsets and the scale last
                return real(*args, **kwargs)

            monkeypatch.setattr(embedding, name, spy)
        table = bag_cls(20, 16, rng=rng)
        idx, offsets, _ = lookups(rng, 20, 9, 5)
        grad_out = placed(rng.standard_normal((9, 16)).astype(np.float32), 16)
        FusedBackwardUpdate().apply_fused(table, grad_out, idx, offsets, 0.1)
        assert len(seen) == 1 and seen[0] is grad_out and not on_a_line(seen[0])


@pytest.mark.usefixtures("kernel_tier")
class TestAlignmentMovesBytesNeverBits:
    @given(
        dim=st.integers(1, 130),
        n_bags=st.sampled_from([0, 1, 9]),
        max_len=st.sampled_from([0, 1, 4, 40]),
        offset=st.sampled_from([4, 16, 32]),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None, **TIERED)
    def test_pool_scatter_and_split_update(self, dim, n_bags, max_len, offset, seed):
        """13 rows under up to 360 look-ups: duplicates, and empty bags."""
        rng = np.random.default_rng(seed)
        w = special_values(rng, (13, dim), 0.05)
        hi, lo = halves(w)
        idx, offsets, _ = lookups(rng, 13, n_bags, max_len)
        grads = special_values(rng, (n_bags, dim), 0.05)

        def run(at: int) -> list[np.ndarray]:
            weight, h, l, deltas = (placed(a, at) for a in (w, hi, lo, grads))
            assert on_a_line(weight, h, l) == (at == 0)
            pooled = [dispatch.pool_rows(s, idx, offsets, Workspace()) for s in (weight, h)]
            dispatch.scatter_add_exact(weight, idx, deltas, offsets, -0.05)
            dispatch.split_scatter_add(h, l, 16, idx, deltas, offsets, -0.05)
            return [*pooled, weight, h, l]

        for a, b in zip(run(0), run(offset), strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
