"""Optimizers: SGD, Split-SGD-BF16 (Sect. VII) and master-weight SGD."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bf16 import combine_fp32, quantize_bf16
from repro.core.embedding import EmbeddingBag, SparseGrad, SplitEmbeddingBag
from repro.core import optim
from repro.core.model import DLRM
from repro.core.optim import SGD, MasterWeightSGD, SparseAdagrad, SplitSGD
from repro.core.param import DenseSlab, Parameter
from repro.core.update import make_strategy
from repro.data.synthetic import bounded_zipf
from tests.conftest import (
    TIERED,
    bag_of,
    bucket_by_row_ranges,
    pending_grads,
    racefree_update_oracle,
    random_batch,
    split_fp32,
    state_bytes,
    tiny_config,
)
from tests.core.test_dense_slab import padding_mask, state_flat


def master_value(opt: SplitSGD, p: Parameter) -> np.ndarray:
    """The implicit FP32 master weight of ``p``: its hi half joined with
    the lo half ``opt`` keeps."""
    return (p.value.view(np.uint32) | opt.state_view(p)).view(np.float32)


def make_param(rng, shape=(6, 4)):
    return Parameter(rng.standard_normal(shape).astype(np.float32))


class TestSGD:
    def test_dense_step(self, rng):
        p = make_param(rng)
        g = rng.standard_normal(p.shape).astype(np.float32)
        before = p.value.copy()
        p.accumulate_grad(g)
        SGD(lr=0.1).step_dense([p])
        np.testing.assert_allclose(p.value, before - 0.1 * g, rtol=1e-6)
        assert p.grad is None  # grad cleared after step

    def test_skips_params_without_grad(self, rng):
        p = make_param(rng)
        before = p.value.copy()
        SGD(lr=0.1).step_dense([p])
        np.testing.assert_array_equal(p.value, before)

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)

    def test_default_strategy_is_racefree(self):
        assert SGD(lr=0.1).strategy.cost_key == "racefree"


class TestSplitSGD:
    def test_register_quantises_model_weights(self, rng):
        p = make_param(rng)
        original = p.value.copy()
        opt = SplitSGD(lr=0.1)
        opt.register([p])
        hi, _ = split_fp32(original)
        # Model tensor now holds exactly the truncated BF16 half.
        np.testing.assert_array_equal(p.value, combine_fp32(hi, np.zeros_like(hi)))
        # ... while the master is still reconstructible bit-for-bit.
        np.testing.assert_array_equal(master_value(opt, p), original)

    def test_update_is_fp32_accurate(self, rng):
        """Split-SGD's master trajectory must equal plain FP32 SGD."""
        w0 = rng.standard_normal((5, 3)).astype(np.float32)
        p_split = Parameter(w0.copy())
        opt = SplitSGD(lr=0.05)
        opt.register([p_split])
        ref_master = w0.copy()
        for step in range(20):
            g = np.random.default_rng(step).standard_normal((5, 3)).astype(np.float32)
            p_split.accumulate_grad(g)
            opt.step_dense([p_split])
            ref_master -= np.float32(0.05) * g
        np.testing.assert_array_equal(master_value(opt, p_split), ref_master)

    def test_small_updates_not_lost(self):
        """The classic mixed-precision failure: updates below the BF16 ULP
        vanish without master accumulation.  Split-SGD keeps them."""
        p = Parameter(np.array([1.0], dtype=np.float32))
        opt = SplitSGD(lr=1.0)
        opt.register([p])
        tiny = np.array([2.0**-12], dtype=np.float32)  # < BF16 ULP at 1.0
        for _ in range(1024):
            p.accumulate_grad(-tiny)  # push upward
            opt.step_dense([p])
        # 1024 * 2^-12 = 0.25 accumulated exactly in the master.
        assert master_value(opt, p)[0] == pytest.approx(1.25, rel=1e-6)
        assert p.value[0] >= np.float32(1.242)  # visible in BF16 too

    def test_fp24_loses_small_updates(self):
        """With only 8 extra LSBs (the FP24 ablation), sub-ULP updates
        accumulate with visible quantisation error."""
        p16 = Parameter(np.array([1.0], dtype=np.float32))
        p8 = Parameter(np.array([1.0], dtype=np.float32))
        full = SplitSGD(lr=1.0, lo_bits=16)
        fp24 = SplitSGD(lr=1.0, lo_bits=8)
        full.register([p16])
        fp24.register([p8])
        tiny = np.array([2.0**-20], dtype=np.float32)
        for _ in range(256):
            p16.accumulate_grad(-tiny)
            p8.accumulate_grad(-tiny)
            full.step_dense([p16])
            fp24.step_dense([p8])
        full_gain = master_value(full, p16)[0] - 1.0
        fp24_gain = master_value(fp24, p8)[0] - 1.0
        assert full_gain == pytest.approx(256 * 2.0**-20, rel=1e-6)
        assert fp24_gain < full_gain  # FP24 dropped part of the signal

    def test_unregistered_param_raises(self, rng):
        p = make_param(rng)
        p.accumulate_grad(np.ones(p.shape, np.float32))
        with pytest.raises(RuntimeError, match="not registered"):
            SplitSGD(lr=0.1).step_dense([p])

    def test_state_bytes_is_two_per_element(self, rng):
        p = make_param(rng, (10, 10))
        opt = SplitSGD(lr=0.1)
        opt.register([p])
        assert state_bytes(opt, [p]) == 200

    def test_name_reflects_lo_bits(self):
        assert SplitSGD(lr=0.1).name == "split-sgd-bf16"
        assert SplitSGD(lr=0.1, lo_bits=8).name == "split-sgd-fp24"


class TestMasterWeightSGD:
    def test_model_weights_track_quantised_master(self, rng):
        p = make_param(rng)
        opt = MasterWeightSGD(lr=0.1)
        opt.register([p])
        g = rng.standard_normal(p.shape).astype(np.float32)
        p.accumulate_grad(g)
        opt.step_dense([p])
        np.testing.assert_array_equal(p.value, quantize_bf16(opt.state_view(p)))

    def test_state_bytes_is_four_per_element(self, rng):
        """The capacity overhead Split-SGD eliminates: a full FP32 copy."""
        p = make_param(rng, (10, 10))
        opt = MasterWeightSGD(lr=0.1)
        opt.register([p])
        assert state_bytes(opt, [p]) == 400
        q, split = make_param(rng, (10, 10)), SplitSGD(lr=0.1)
        split.register([q])
        assert state_bytes(opt, [p]) == 2 * state_bytes(split, [q])

    def test_trajectory_close_to_split_sgd(self, rng):
        """Both mixed-precision schemes keep FP32-exact masters, so their
        trajectories are identical; only storage differs."""
        w0 = rng.standard_normal((4, 4)).astype(np.float32)
        pa, pb = Parameter(w0.copy()), Parameter(w0.copy())
        a = SplitSGD(lr=0.02)
        b = MasterWeightSGD(lr=0.02)
        a.register([pa])
        b.register([pb])
        for step in range(10):
            g = np.random.default_rng(100 + step).standard_normal((4, 4)).astype(np.float32)
            pa.accumulate_grad(g)
            pb.accumulate_grad(g)
            a.step_dense([pa])
            b.step_dense([pb])
        np.testing.assert_array_equal(master_value(a, pa), b.state_view(pb))


class TestSinglePassUpdates:
    """The vectorized update strategies vs. the seed's formulations."""

    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    @pytest.mark.parametrize("threads", [1, 3, 28])
    def test_racefree_single_pass_matches_mask_scans(self, rng, storage, threads):
        rows, dim = 24, 4
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        cls = SplitEmbeddingBag if storage == "split_bf16" else EmbeddingBag
        grad = SparseGrad(
            rng.integers(0, rows, size=90, dtype=np.int64),
            rng.standard_normal((90, dim)).astype(np.float32),
        )
        fast_table = bag_of(w0, cls)
        make_strategy("racefree").apply(fast_table, grad, 0.05)
        naive_table = bag_of(w0, cls)
        naive_counts = racefree_update_oracle(naive_table, grad, 0.05, threads)
        assert np.array_equal(fast_table.dense_weight(), naive_table.dense_weight())
        counts = bucket_by_row_ranges(grad.indices, rows, threads)
        np.testing.assert_array_equal(counts, naive_counts)

    @staticmethod
    def fused_against_backward_then_update(rng, storage, rows, dim, indices, offsets, threads):
        w0 = rng.standard_normal((rows, dim)).astype(np.float32)
        cls = SplitEmbeddingBag if storage == "split_bf16" else EmbeddingBag
        dy = rng.standard_normal((offsets.size - 1, dim)).astype(np.float32)
        naive_table = bag_of(w0, cls)
        grad = naive_table.backward(dy, indices, offsets)
        racefree_update_oracle(naive_table, grad, 0.1, threads)
        fused_table = bag_of(w0, cls)
        make_strategy("fused").apply_fused(fused_table, dy, indices, offsets, 0.1)
        assert np.array_equal(fused_table.dense_weight(), naive_table.dense_weight())

    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_fused_apply_matches_backward_then_update(self, rng, storage):
        rows, n = 20, 12
        lengths = rng.integers(0, 5, size=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        indices = rng.integers(0, rows, size=int(offsets[-1]), dtype=np.int64)
        self.fused_against_backward_then_update(rng, storage, rows, 4, indices, offsets, 7)

    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_fused_apply_on_three_zipf_rows_and_a_socket_of_threads(self, rng, storage):
        """Criteo's smallest cardinality: 512 bags of 32 Zipf(1.05)
        look-ups into three rows -- runs thousands long -- on the paper's
        28 threads per socket, more threads than rows."""
        indices = bounded_zipf(rng, 512 * 32, 3, alpha=1.05)
        offsets = np.arange(0, 512 * 32 + 1, 32, dtype=np.int64)
        self.fused_against_backward_then_update(rng, storage, 3, 64, indices, offsets, 28)

    @pytest.mark.parametrize("storage", ["fp32", "split_bf16"])
    def test_fused_train_step_matches_materialized(self, storage):
        """DLRM.train_step's fused dispatch == the SparseGrad path, bitwise."""
        cfg = tiny_config()
        kw = dict(seed=11, storage=storage)
        a, b = DLRM(cfg, **kw), DLRM(cfg, **kw)
        make = SplitSGD if storage == "split_bf16" else SGD
        opt_a = make(lr=0.05, strategy=make_strategy("reference"))
        opt_b = make(lr=0.05, strategy=make_strategy("fused"))
        opt_a.register(a.parameters())
        opt_b.register(b.parameters())
        for step in range(3):
            batch = random_batch(cfg, 16, seed=step, ragged=True)
            la = a.train_step(batch, opt_a)
            lb = b.train_step(batch, opt_b)
            assert la == lb
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)
        for t in a.table_ids:
            assert np.array_equal(a.tables[t].dense_weight(), b.tables[t].dense_weight())

    def test_fused_strategy_with_adagrad_falls_back(self):
        """SparseAdagrad overrides step_sparse; the fused dispatch must
        defer to it (and still train identically to any other strategy)."""
        cfg = tiny_config()
        a, b = DLRM(cfg, seed=2), DLRM(cfg, seed=2)
        opt_a = SparseAdagrad(lr=0.05, strategy=make_strategy("reference"))
        opt_b = SparseAdagrad(lr=0.05, strategy=make_strategy("fused"))
        opt_a.register(a.parameters())
        opt_b.register(b.parameters())
        for step in range(2):
            batch = random_batch(cfg, 8, seed=step)
            assert a.train_step(batch, opt_a) == b.train_step(batch, opt_b)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.value, pb.value)
        for t in a.table_ids:
            assert np.array_equal(a.tables[t].weight, b.tables[t].weight)


class TestParameter:
    def test_accumulate_validates_shape(self, rng):
        p = make_param(rng)
        with pytest.raises(ValueError):
            p.accumulate_grad(np.zeros((1, 1), np.float32))

    def test_accumulate_adds(self, rng):
        p = make_param(rng)
        g = np.ones(p.shape, np.float32)
        p.accumulate_grad(g)
        p.accumulate_grad(g)
        np.testing.assert_array_equal(p.grad, 2 * g)


# -- Split-SGD against a literal per-element reference ------------------------
#
# The reference below knows nothing of repro.core.bf16: it is the paper's
# Sect. VII update spelled out on Python ints and floats, one element at a
# time.  A double holds every FP32 product exactly and rounds every FP32
# sum/difference innocuously (53 >= 2*24 + 2), so rounding each operation
# back to FP32 reproduces FP32 hardware arithmetic bit for bit.

_QNAN = 0x7FC00000
_SPECIAL_BITS = [
    0x00000000, 0x80000000,  # +-0
    0x00000001, 0x80000001, 0x007FFFFF,  # denormals
    0x00800000, 0x7F7FFFFF, 0xFF7FFFFF,  # min normal, +-FLT_MAX
    0x7F800000, 0xFF800000,  # +-inf
    _QNAN,
    0x3F800000, 0x3F80FFFF, 0x3F7FFFFF,  # 1.0, lo half all ones, carry into hi
]


def _is_nan_bits(bits: int) -> bool:
    return (bits & 0x7F800000) == 0x7F800000 and (bits & 0x007FFFFF) != 0


f32_bits = st.one_of(
    st.sampled_from(_SPECIAL_BITS),
    st.integers(0, 2**32 - 1).filter(lambda b: not _is_nan_bits(b)),
)


def _bits_to_float(bits: int) -> float:
    return struct.unpack("<f", struct.pack("<I", bits))[0]


def _round_to_f32_bits(x: float) -> int:
    try:
        return struct.unpack("<I", struct.pack("<f", x))[0]
    except OverflowError:  # finite double beyond FLT_MAX rounds to inf
        return 0xFF800000 if x < 0 else 0x7F800000


def _as_f32(x: float) -> float:
    return _bits_to_float(_round_to_f32_bits(x))


def reference_split_sgd_step(
    hi: int, lo: int, grad_bits: int, lr: float, lo_bits: int
) -> tuple[int, int]:
    """One element of Split-SGD: (hi, lo) uint16 halves in and out."""
    master = _bits_to_float((hi << 16) | lo)
    scaled = _as_f32(_as_f32(lr) * _bits_to_float(grad_bits))
    new = _round_to_f32_bits(master - scaled)
    keep = ((1 << lo_bits) - 1) << (16 - lo_bits)
    return new >> 16, new & 0xFFFF & keep


class TestSplitSGDLiteralReference:
    @pytest.mark.usefixtures("kernel_tier")
    @given(
        st.lists(st.tuples(f32_bits, f32_bits, f32_bits), min_size=1, max_size=40),
        st.sampled_from([0.05, 1.0, 1e-3, 3.0]),
        st.sampled_from([0, 8, 16]),
    )
    @settings(max_examples=150, deadline=None, **TIERED)
    def test_two_steps_match_per_element_reference(self, rows, lr, lo_bits):
        w_bits, g1_bits, g2_bits = (np.array(col, dtype=np.uint32) for col in zip(*rows))
        p = Parameter(w_bits.view(np.float32).copy())
        opt = SplitSGD(lr=lr, lo_bits=lo_bits)
        opt.register([p])
        keep = ((1 << lo_bits) - 1) << (16 - lo_bits)
        want = [(int(b) >> 16, int(b) & 0xFFFF & keep) for b in w_bits]
        with np.errstate(all="ignore"):
            for g_bits in (g1_bits, g2_bits):
                p.accumulate_grad(g_bits.view(np.float32))
                opt.step_dense([p])
                want = [
                    reference_split_sgd_step(hi, lo, int(g), lr, lo_bits)
                    for (hi, lo), g in zip(want, g_bits)
                ]
        got_hi = p.value.view(np.uint32)
        got_lo = opt.state_dict([p])["lo.0"]
        for i, (hi, lo) in enumerate(want):
            if _is_nan_bits(hi << 16 | lo):
                # NaN sign is the architecture's choice (x86 makes
                # inf - inf negative); a quiet NaN has an empty lo half.
                assert int(got_hi[i]) & 0x7FFFFFFF == _QNAN and got_lo[i] == 0
            else:
                assert (int(got_hi[i]), int(got_lo[i])) == (hi << 16, lo), i


#: Every dense optimizer: name -> (factory, the table storage it trains on).
DENSE_OPTIMIZERS = {
    "sgd": (lambda: SGD(lr=0.05), "fp32"),
    "momentum": (lambda: SGD(lr=0.05, momentum=0.9), "fp32"),
    "split16": (lambda: SplitSGD(lr=0.05), "split_bf16"),
    "split8": (lambda: SplitSGD(lr=0.05, lo_bits=8), "split_bf16"),
    "split0": (lambda: SplitSGD(lr=0.05, lo_bits=0), "split_bf16"),
    "adagrad": (lambda: SparseAdagrad(lr=0.05), "fp32"),
    "master_weight": (lambda: MasterWeightSGD(lr=0.05), "fp32"),
}


def _models_with_grads(name, steps=1):
    """Two identical tiny models, registered, each with a full set of
    pending gradients (after ``steps - 1`` whole training steps)."""
    make_opt, storage = DENSE_OPTIMIZERS[name]
    cfg = tiny_config()
    out = []
    for _ in range(2):
        model = DLRM(cfg, seed=3, storage=storage)
        opt = make_opt()
        opt.register(model.parameters())
        for step in range(steps - 1):
            model.train_step(random_batch(cfg, 16, seed=step), opt)
        pending_grads(model, random_batch(cfg, 16, seed=99))
        out.append((model, opt))
    return out


def _dense_state(model, opt):
    params = model.parameters()
    return [p.value.copy() for p in params], opt.state_dict(params)


class TestFlatStepEqualsPerViewStep:
    """One span over the slab's flats == the same kernel on each view."""

    @pytest.mark.parametrize("name", DENSE_OPTIMIZERS)
    @pytest.mark.parametrize("block", [None, 48], ids=["one-block", "48-element-blocks"])
    def test_whole_slab_vs_one_parameter_at_a_time(self, name, block, monkeypatch):
        if block is not None:  # blocks that straddle slots and end ragged
            monkeypatch.setattr(optim, "STEP_BLOCK", block)
        (flat, flat_opt), (views, views_opt) = _models_with_grads(name, steps=3)
        assert flat.dense.size > 10 * 48 and flat.dense.size % 48
        flat_opt.step_dense(flat.parameters())
        for p in views.parameters():
            views_opt.step_dense([p])
        values_a, state_a = _dense_state(flat, flat_opt)
        values_b, state_b = _dense_state(views, views_opt)
        for a, b in zip(values_a, values_b):
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))
        assert set(state_a) == set(state_b)
        assert (len(state_a) > 2) == (name != "sgd")  # there is state to get wrong
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)
        assert all(p.grad is None for p in flat.parameters() + views.parameters())

    @pytest.mark.parametrize("name", DENSE_OPTIMIZERS)
    def test_a_missing_gradient_splits_the_slab_into_two_runs(self, name):
        (mixed, mixed_opt), (single, single_opt) = _models_with_grads(name)
        skipped = 2
        for model in (mixed, single):
            model.parameters()[skipped].zero_grad()
        before, _ = _dense_state(mixed, mixed_opt)
        mixed_opt.step_dense(mixed.parameters())
        for p in single.parameters():
            single_opt.step_dense([p])
        values_a, state_a = _dense_state(mixed, mixed_opt)
        values_b, state_b = _dense_state(single, single_opt)
        for i, (a, b) in enumerate(zip(values_a, values_b)):
            np.testing.assert_array_equal(a.view(np.uint32), b.view(np.uint32))
            assert (i == skipped) == np.array_equal(a, before[i])
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key], err_msg=key)


_SHAPES = st.lists(
    st.sampled_from([(1,), (3,), (16,), (33,), (5, 7), (4, 8), (2, 3, 5)]), min_size=1, max_size=6
)


class TestAnyPartitionIntoRunsIsTheSameStep:
    """However a step's parameters are listed -- the whole slab, tensor
    by tensor, any partition into runs, gradients missing here and there
    -- and wherever it reads them (the slab's gradient flat, or a
    ``reduced`` flat in its layout), weights and state come out bitwise
    equal, and no padding element of any flat ever leaves zero."""

    @staticmethod
    def replica(name, shapes, seed):
        rng = np.random.default_rng(seed)
        params = [Parameter(rng.standard_normal(s).astype(np.float32)) for s in shapes]
        slab, opt = DenseSlab(params), DENSE_OPTIMIZERS[name][0]()
        opt.register(params)
        return params, slab, opt

    @staticmethod
    def flats(params, slab, opt):
        out = {"values": slab.values, "grads": slab.grads}
        if opt.state_key is not None:
            out["state"] = state_flat(opt, slab, params)
        return out

    @pytest.mark.parametrize("name", DENSE_OPTIMIZERS)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_whole_slab_tensor_by_tensor_and_any_partition(self, name, data):
        shapes = data.draw(_SHAPES)
        n, seed = len(shapes), data.draw(st.integers(0, 2**16))
        block = data.draw(st.sampled_from([1 << 16, 48, 5]))
        saved, optim.STEP_BLOCK = optim.STEP_BLOCK, block
        try:
            replicas = [self.replica(name, shapes, seed) for _ in range(4)]
        finally:  # an optimizer sizes its scratch when it is built
            optim.STEP_BLOCK = saved
        pad = padding_mask(replicas[0][1])
        for step in range(3):
            absent = data.draw(st.sets(st.integers(0, n - 1)))
            cuts = sorted(data.draw(st.sets(st.integers(1, n - 1))) if n > 1 else [])
            pieces = list(zip([0, *cuts], [*cuts, n]))
            rng = np.random.default_rng([seed, step])
            grads = [rng.standard_normal(s).astype(np.float32) for s in shapes]
            # What the fourth replica reads instead of its own gradients.
            reduced = replicas[3][1].zeros(np.float32)
            for slot, g in enumerate(grads):
                replicas[3][1].view(reduced, slot)[...] = g
            reduced.flags.writeable = False
            optim.STEP_BLOCK = block
            try:
                for k, (params, slab, opt) in enumerate(replicas):
                    for i, (p, g) in enumerate(zip(params, grads)):
                        if i not in absent:  # the fourth's own are never read
                            p.accumulate_grad(g if k < 3 else np.full_like(g, np.nan))
                    if k == 0:
                        opt.step_dense(params)
                    elif k == 1:
                        for p in params:
                            opt.step_dense([p])
                    elif k == 2:
                        for a, b in pieces:
                            opt.step_dense(params[a:b])
                    else:
                        opt.step_dense(params, reduced=reduced)
                    assert all(p.grad is None for p in params)
            finally:
                optim.STEP_BLOCK = saved
            want = self.flats(*replicas[0])
            want_state = replicas[0][2].state_dict(replicas[0][0])
            for k, replica in enumerate(replicas[1:], start=1):
                for what, flat in self.flats(*replica).items():
                    bits = f"u{flat.itemsize}"
                    assert not flat.view(bits)[pad].any(), (k, what, "padding")
                    if what != "grads":
                        np.testing.assert_array_equal(
                            flat.view(bits), want[what].view(bits), err_msg=f"{k} {what}"
                        )
                state = replica[2].state_dict(replica[0])
                assert list(state) == list(want_state)
                for key in state:
                    np.testing.assert_array_equal(state[key], want_state[key], err_msg=key)

    def test_reduced_must_have_the_slabs_layout(self):
        params, slab, opt = self.replica("sgd", [(3,), (4,)], 0)
        loose = Parameter(np.zeros(3, np.float32))
        for p in params + [loose]:
            p.fresh_grad()[...] = 1.0
        with pytest.raises(RuntimeError, match="layout of the slab"):
            opt.step_dense(params, reduced=np.zeros(slab.size - 16, np.float32))
        with pytest.raises(RuntimeError, match="layout of the slab"):
            opt.step_dense([loose], reduced=slab.zeros(np.float32))


class TestDenseStepAllocatesNothing:
    @pytest.mark.parametrize("make_opt", [lambda: SGD(lr=0.05), lambda: SplitSGD(lr=0.05)])
    def test_steady_state_step_stays_under_64k(self, make_opt, rng):
        # 3 x 128 KB tensors: one per-tensor temporary would trip the guard.
        params = [Parameter(rng.standard_normal((128, 256)).astype(np.float32)) for _ in range(3)]
        DenseSlab(params)
        opt = make_opt()
        opt.register(params)
        grads = [rng.standard_normal(p.shape).astype(np.float32) for p in params]

        def step():
            for p, g in zip(params, grads):
                p.accumulate_grad(g)
            opt.step_dense(params)

        step()  # the first gradients allocate the slab's gradient flat
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, f"dense step allocated {peak} bytes"
