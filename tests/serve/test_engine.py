"""InferenceEngine: bit-identical scoring, warm buffers, state isolation."""

import numpy as np
import pytest

from repro.core.model import DLRM
from repro.serve.engine import InferenceEngine
from tests.conftest import pending_grads, predict_proba, random_batch, tiny_config


class TestBitIdentity:
    @pytest.mark.parametrize("engine_kind", ["reference", "bf16"])
    def test_logits_match_model_forward(self, engine_kind):
        """Acceptance criterion: engine == DLRM forward, bit for bit."""
        cfg = tiny_config()
        model = DLRM(cfg, seed=3, engine=engine_kind)
        eng = InferenceEngine(model)
        for seed in (0, 1):
            batch = random_batch(cfg, 16, seed=seed, ragged=True)
            want = DLRM(cfg, seed=3, engine=engine_kind).forward(batch)
            assert np.array_equal(eng.predict_logits(batch), want)

    def test_probabilities_match_predict_proba(self):
        cfg = tiny_config()
        model = DLRM(cfg, seed=1)
        eng = InferenceEngine(model)
        batch = random_batch(cfg, 8, seed=2)
        want = predict_proba(DLRM(cfg, seed=1), batch)
        np.testing.assert_array_equal(eng.predict(batch), want)

    def test_split_bf16_storage_supported(self):
        cfg = tiny_config()
        model = DLRM(cfg, seed=5, storage="split_bf16")
        eng = InferenceEngine(model)
        batch = random_batch(cfg, 8, seed=0)
        want = DLRM(cfg, seed=5, storage="split_bf16").forward(batch)
        assert np.array_equal(eng.predict_logits(batch), want)


class TestWarmPath:
    def test_buffers_reused_up_to_capacity(self):
        cfg = tiny_config()
        eng = InferenceEngine(DLRM(cfg, seed=0))
        eng.predict(random_batch(cfg, 16, seed=0))
        allocated = eng._ws.allocations
        assert eng.cold_calls == 1 and allocated > 0
        eng.predict(random_batch(cfg, 16, seed=1))
        # Smaller micro-batches (the batcher's deadline closes) score
        # into slice views of the same workspace -- still warm.
        eng.predict(random_batch(cfg, 8, seed=2))
        assert (eng.cold_calls, eng._ws.allocations) == (1, allocated)
        # Only a capacity increase reallocates.
        eng.predict(random_batch(cfg, 32, seed=3))
        assert eng.cold_calls == 2 and eng._ws.allocations > allocated

    def test_workspace_does_not_grow_with_batch_size_diversity(self):
        cfg = tiny_config()
        eng = InferenceEngine(DLRM(cfg, seed=0))
        eng.warmup(32)
        resident = eng._ws.nbytes
        for n in (3, 7, 12, 25, 32, 1):
            eng.predict(random_batch(cfg, n, seed=n))
        assert eng._ws.nbytes == resident
        assert eng.cold_calls == 1  # the warmup only

    def test_warmup_preallocates(self):
        cfg = tiny_config()
        eng = InferenceEngine(DLRM(cfg, seed=0))
        eng.warmup(16)
        allocated = eng._ws.allocations
        assert eng.cold_calls == 1 and allocated > 0
        eng.predict(random_batch(cfg, 16, seed=0))
        assert (eng.cold_calls, eng._ws.allocations) == (1, allocated)

    def test_returned_arrays_do_not_alias_buffers(self):
        cfg = tiny_config()
        eng = InferenceEngine(DLRM(cfg, seed=0))
        a = eng.predict_logits(random_batch(cfg, 16, seed=0))
        snapshot = a.copy()
        eng.predict_logits(random_batch(cfg, 16, seed=1))
        np.testing.assert_array_equal(a, snapshot)


class TestStateIsolation:
    def test_serving_between_loss_and_backward_is_harmless(self):
        """Inference on a training replica must not perturb gradients."""
        cfg = tiny_config()
        served = DLRM(cfg, seed=9)
        control = DLRM(cfg, seed=9)
        train_batch = random_batch(cfg, 16, seed=0)
        infer_batch = random_batch(cfg, 16, seed=1)
        eng = InferenceEngine(served)
        served.loss(train_batch)
        eng.predict(infer_batch)  # interleaved traffic
        served_dembs = served.dense_backward(served.loss_fn.backward(), train_batch)
        _, control_dembs = pending_grads(control, train_batch)
        for a, b in zip(served.parameters(), control.parameters()):
            assert np.array_equal(a.grad, b.grad)
        for a, b in zip(served_dembs, control_dembs):
            np.testing.assert_array_equal(a, b)


class TestValidation:
    def test_partial_replica_rejected(self):
        cfg = tiny_config()
        shard = DLRM(cfg, seed=0, table_ids=[0, 1])  # missing tables 2, 3
        with pytest.raises(ValueError):
            InferenceEngine(shard)

    def test_infer_rejects_partial_replica_too(self):
        cfg = tiny_config()
        shard = DLRM(cfg, seed=0, table_ids=[0, 1])
        with pytest.raises(ValueError):
            shard.infer(random_batch(cfg, 8, seed=0))
