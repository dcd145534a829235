"""The dense slab: parameters, gradients and optimizer state as views of flats.

Pins the never-rebind contract of :mod:`repro.core.param`: whatever
writes a weight, a gradient or a Split-SGD lo half -- construction, a
training step, ``load_state_dict``, a checkpoint resume on any executor
-- writes *through* the views, so the flats an optimizer steps span by
span are always the tensors the layers compute with.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.core.optim import SGD, SplitSGD
from repro.core.param import DenseSlab, Parameter
from repro.kernels.workspace import LINE_BYTES
from repro.train import make_trainer
from tests.conftest import opt_state, pending_grads, random_batch, tiny_config
from tests.train.test_trainer import tiny_spec


def padding_mask(slab: DenseSlab) -> np.ndarray:
    """True at every element of a slab-shaped flat that no slot covers."""
    mask = np.ones(slab.size, dtype=bool)
    for slot in range(len(slab)):
        slab.view(mask, slot)[...] = False
    return mask


def state_flat(opt: SGD, slab: DenseSlab, params: list[Parameter]) -> np.ndarray:
    """``opt``'s whole state flat for ``slab``, padding included, reached
    through the public view of slot 0 (which starts the flat)."""
    first = opt.state_view(params[0]).reshape(-1)
    assert params[0].slab is slab and params[0].slot == 0
    return np.lib.stride_tricks.as_strided(first, shape=(slab.size,), strides=first.strides)


def assert_aliases_slab(model: DLRM, opt: SplitSGD | None = None) -> None:
    """Every value, gradient and lo half is a view of its flat."""
    slab = model.dense
    lo_flat = None if opt is None else state_flat(opt, slab, model.parameters())
    for slot, p in enumerate(model.parameters()):
        assert (p.slab, p.slot) == (slab, slot)
        for view, flat in ((p.value, slab.values), (p.fresh_grad(), slab.grads)):
            assert np.shares_memory(view, flat)
            assert view.flags["C_CONTIGUOUS"] and view.ctypes.data % LINE_BYTES == 0
            assert view.ctypes.data - flat.ctypes.data == 4 * slab.offsets[slot]
        p.zero_grad()
        if opt is not None:
            lo = opt.state_view(p)
            assert lo.dtype == np.uint16 and lo.shape == p.shape
            assert lo.flags["C_CONTIGUOUS"]
            assert lo.ctypes.data - lo_flat.ctypes.data == 2 * slab.offsets[slot]


class TestParameter:
    def test_first_gradient_is_copied_then_accumulated(self, rng):
        p = Parameter(np.zeros((3, 2), np.float32))
        g = rng.standard_normal((3, 2)).astype(np.float32)
        assert p.grad is None
        p.accumulate_grad(g)
        assert p.grad is not g and np.array_equal(p.grad, g)
        storage = p.grad
        p.accumulate_grad(g)
        assert p.grad is storage and np.array_equal(p.grad, g + g)
        p.zero_grad()
        assert p.grad is None
        p.accumulate_grad(g)  # stale contents are overwritten, not added to
        assert p.grad is storage and np.array_equal(p.grad, g)

    def test_fresh_grad_hands_out_the_storage_once(self):
        p = Parameter(np.zeros(4, np.float32))
        buf = p.fresh_grad()
        assert p.grad is buf
        with pytest.raises(RuntimeError, match="already pending"):
            p.fresh_grad()

    def test_grad_cannot_be_rebound(self):
        p = Parameter(np.zeros(4, np.float32))
        with pytest.raises(AttributeError):
            p.grad = np.ones(4, np.float32)

    def test_standalone_parameter_steps_without_a_slab(self, rng):
        p = Parameter(rng.standard_normal(5).astype(np.float32))
        before = p.value.copy()
        p.accumulate_grad(np.ones(5, np.float32))
        SGD(lr=0.5).step_dense([p])
        assert p.slab is None
        np.testing.assert_array_equal(p.value, before - np.float32(0.5))


class TestDenseSlab:
    def test_adoption_keeps_values_and_pending_gradients(self, rng):
        params = [Parameter(rng.standard_normal(s).astype(np.float32)) for s in ((3, 5), (7,))]
        values = [p.value.copy() for p in params]
        params[1].accumulate_grad(np.full(7, 2.0, np.float32))
        slab = DenseSlab(params)
        assert slab.offsets == [0, 16] and slab.size == 32
        for p, v in zip(params, values):
            np.testing.assert_array_equal(p.value, v)
        assert params[0].grad is None
        np.testing.assert_array_equal(params[1].grad, np.full(7, 2.0, np.float32))
        assert not slab.values[padding_mask(slab)].any()

    def test_rejects_a_parameter_already_adopted(self):
        p = Parameter(np.zeros(3, np.float32))
        DenseSlab([p])
        with pytest.raises(ValueError, match="already belongs"):
            DenseSlab([p])

    def test_a_step_walks_the_maximal_runs_of_consecutive_pending_slots(self, monkeypatch):
        params = [Parameter(np.zeros(3, np.float32)) for _ in range(4)]
        slab = DenseSlab(params)
        loose = Parameter(np.zeros(3, np.float32))
        opt, spans, steps = SGD(lr=0.5), [], {}
        update = opt._update
        monkeypatch.setattr(opt, "_update", lambda v, g, s: (spans.append(v.size), update(v, g, s)))

        def sizes_of_a_step(listed, pending):
            spans.clear()
            for p in pending:
                p.fresh_grad()[...] = 1.0
                steps[p] = steps.get(p, 0) + 1
            opt.step_dense(listed)
            assert all(p.grad is None for p in listed)
            return spans.copy()

        assert sizes_of_a_step(params, []) == []  # nothing pending
        assert sizes_of_a_step(params, params) == [slab.size]  # the model: one span
        assert sizes_of_a_step(params[1:3], params[1:3]) == [32]
        assert sizes_of_a_step(params, [params[0], params[2], params[3]]) == [16, 32]
        assert sizes_of_a_step(params[::-1], params) == [16] * 4  # listed out of slot order
        assert sizes_of_a_step(params[:2] + [loose] + params[2:], params + [loose]) == [32, 3, 32]
        # Listed twice, stepped once.
        assert sizes_of_a_step([params[0], params[0]], params[:1]) == [16]
        for p in params + [loose]:
            np.testing.assert_array_equal(p.value, np.full(3, -0.5 * steps[p], np.float32))
        assert not slab.values[padding_mask(slab)].any() and loose.slab is None

    def test_dropping_a_model_frees_its_flats_without_the_cyclic_gc(self):
        gc.disable()
        try:
            model = DLRM(tiny_config(), seed=0)
            flats = weakref.ref(model.dense)
            del model
            assert flats() is None
        finally:
            gc.enable()

    def test_a_model_that_only_infers_never_allocates_gradients(self):
        cfg = tiny_config()
        model = DLRM(cfg, seed=0)
        model.infer(random_batch(cfg, 8, seed=0))
        assert model.dense._grads is None
        pending_grads(model, random_batch(cfg, 8, seed=0))
        assert model.dense._grads is not None

    def test_unregistered_parameter_of_a_registered_slab_is_refused(self):
        model = DLRM(tiny_config(), seed=0, storage="split_bf16")
        opt = SplitSGD(lr=0.1)
        opt.register(model.bottom.parameters())
        stranger = model.top.parameters()[0]
        stranger.fresh_grad()
        with pytest.raises(RuntimeError, match="not registered with SplitSGD"):
            opt.step_dense([stranger])


class TestModelAliasesItsSlab:
    def test_after_construction_and_load_state_dict(self):
        cfg = tiny_config()
        model = DLRM(cfg, seed=1, storage="split_bf16")
        opt = SplitSGD(lr=0.05)
        opt.register(model.parameters())
        assert_aliases_slab(model, opt)

        donor = DLRM(cfg, seed=2, storage="split_bf16")
        donor_opt = SplitSGD(lr=0.05)
        donor_opt.register(donor.parameters())
        donor.train_step(random_batch(cfg, 16, seed=0), donor_opt)
        model.load_state_dict(donor.state_dict())
        opt.load_state_dict(donor_opt.state_dict(donor.parameters()), model.parameters())
        assert_aliases_slab(model, opt)
        np.testing.assert_array_equal(model.dense.values, donor.dense.values)
        np.testing.assert_array_equal(
            state_flat(opt, model.dense, model.parameters()),
            state_flat(donor_opt, donor.dense, donor.parameters()),
        )

        # The loaded state is live: both models now train identically.
        batch = random_batch(cfg, 16, seed=1)
        assert model.train_step(batch, opt) == donor.train_step(batch, donor_opt)
        np.testing.assert_array_equal(model.dense.values, donor.dense.values)

    @pytest.mark.parametrize("make_opt", [lambda: SGD(lr=0.05), lambda: SplitSGD(lr=0.05, lo_bits=8)])
    def test_padding_stays_zero_over_50_steps(self, make_opt):
        cfg = tiny_config()
        model = DLRM(cfg, seed=5, storage="split_bf16")
        opt = make_opt()
        opt.register(model.parameters())
        pad = padding_mask(model.dense)
        assert pad.any()  # tiny_config's 12x10 weight does not fill its slot
        for step in range(50):
            model.train_step(random_batch(cfg, 16, seed=step), opt)
        flats = [model.dense.values, model.dense.grads]
        if isinstance(opt, SplitSGD):
            flats.append(state_flat(opt, model.dense, model.parameters()))
        for flat in flats:
            assert not flat.view(f"u{flat.itemsize}")[pad].any()
        assert_aliases_slab(model, opt if isinstance(opt, SplitSGD) else None)


def split_spec(ranks: int):
    over = {"parallel": {"ranks": ranks, "platform": "cluster"}} if ranks > 1 else {}
    return tiny_spec(
        precision={"storage": "split_bf16"},
        optimizer={"name": "split_sgd", "lr": 0.05},
        schedule={"steps": 6, "batch_size": 32, "eval_size": 64},
        **over,
    )


class TestResumeKeepsTheSlab:
    @pytest.mark.parametrize("ranks", [1, 2], ids=["local", "inline"])
    def test_resume_then_train_equals_uninterrupted_run(self, ranks, tmp_path):
        spec = split_spec(ranks)
        straight = make_trainer(spec).fit(6)

        half = make_trainer(spec).fit(3)
        half.save_checkpoint(tmp_path / "half.npz")
        resumed = make_trainer(spec)
        resumed.load_checkpoint(tmp_path / "half.npz")
        if ranks == 1:
            replicas = [(resumed.model, resumed.optimizer)]
        else:
            replicas = list(zip(resumed.dist.models, resumed.dist.optimizers))
        for model, opt in replicas:
            assert_aliases_slab(model, opt)
        resumed.fit(3)

        assert resumed.losses[-3:] == straight.losses[-3:]
        for a, b in (
            (resumed.model_state_dict(), straight.model_state_dict()),
            (opt_state(resumed), opt_state(straight)),
        ):
            assert set(a) == set(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key], err_msg=key)
        for model, opt in replicas:
            assert_aliases_slab(model, opt)
