"""MLP layers: gradients vs. finite differences, the engines' one forward."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mlp import ENGINES, MLP, FullyConnected, sigmoid


class TestActivations:
    def test_relu(self):
        w = np.array([[-1.0], [0.0], [2.0]], dtype=np.float32)
        fc = FullyConnected(1, 3, activation="relu", state={"weight": w, "bias": np.zeros(3, np.float32)})
        np.testing.assert_array_equal(fc.infer(np.ones((1, 1), np.float32)), [[0.0, 0.0, 2.0]])

    def test_sigmoid_stable_at_extremes(self):
        x = np.array([-100.0, 0.0, 100.0], dtype=np.float32)
        s = sigmoid(x)
        assert s[0] == pytest.approx(0.0, abs=1e-30)
        assert s[1] == pytest.approx(0.5)
        assert s[2] == pytest.approx(1.0)

    @given(st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_sigmoid_matches_definition(self, v):
        got = sigmoid(np.array([v], dtype=np.float32))[0]
        want = 1.0 / (1.0 + np.exp(-v))
        assert got == pytest.approx(want, rel=1e-5)

    def test_sigmoid_out_parameter(self, rng):
        x = rng.standard_normal(32).astype(np.float32)
        want = sigmoid(x)
        out = np.empty_like(x)
        got = sigmoid(x, out=out)
        assert got is out
        np.testing.assert_array_equal(got, want)

    def test_sigmoid_out_may_alias_input(self, rng):
        """The GEMM epilogues overwrite the logits buffer in place."""
        x = rng.standard_normal(64).astype(np.float32)
        want = sigmoid(x.copy())
        got = sigmoid(x, out=x)
        assert got is x
        np.testing.assert_array_equal(got, want)


class TestFullyConnectedForward:
    def test_linear_algebra(self, rng):
        fc = FullyConnected(4, 3, rng=rng, activation=None)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        np.testing.assert_allclose(
            fc.forward(x), x @ fc.weight.value.T + fc.bias.value, rtol=1e-5
        )

    def test_relu_applied(self, rng):
        fc = FullyConnected(4, 3, rng=rng, activation="relu")
        y = fc.forward(rng.standard_normal((8, 4)).astype(np.float32))
        assert (y >= 0).all()

    def test_input_shape_validated(self, rng):
        fc = FullyConnected(4, 3, rng=rng)
        with pytest.raises(ValueError):
            fc.forward(np.zeros((5, 7), np.float32))

    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            FullyConnected(4, 3, rng=rng, activation="gelu")

    @pytest.mark.parametrize("engine", ["cuda", "blocked"])
    def test_rejects_unknown_engine(self, rng, engine):
        with pytest.raises(ValueError, match="engine must be one of"):
            FullyConnected(4, 4, rng=rng, engine=engine)


def numeric_grad(f, x, eps=1e-3):
    g = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        old = x[i]
        x[i] = old + eps
        up = f()
        x[i] = old - eps
        down = f()
        x[i] = old
        g[i] = (up - down) / (2 * eps)
        it.iternext()
    return g


class TestGradients:
    @pytest.mark.parametrize("activation", [None, "relu", "sigmoid"])
    def test_weight_bias_input_grads_match_finite_differences(self, activation):
        rng = np.random.default_rng(7)
        fc = FullyConnected(5, 4, rng=rng, activation=activation)
        x = rng.standard_normal((6, 5)).astype(np.float32)
        # loss = sum(y * target) for a fixed random target.
        target = rng.standard_normal((6, 4)).astype(np.float32)

        def loss():
            return float((fc.forward(x.copy()) * target).sum())

        loss()  # populate caches
        dx = fc.backward(target)
        dw_num = numeric_grad(loss, fc.weight.value)
        db_num = numeric_grad(loss, fc.bias.value)
        dx_num = numeric_grad(loss, x)
        np.testing.assert_allclose(fc.weight.grad, dw_num, rtol=2e-2, atol=2e-3)
        np.testing.assert_allclose(fc.bias.grad, db_num, rtol=2e-2, atol=2e-3)
        np.testing.assert_allclose(dx, dx_num, rtol=2e-2, atol=2e-3)

    def test_backward_before_forward_raises(self, rng):
        fc = FullyConnected(3, 2, rng=rng)
        with pytest.raises(RuntimeError):
            fc.backward(np.zeros((1, 2), np.float32))

    def test_grads_accumulate_across_backwards(self, rng):
        fc = FullyConnected(3, 2, rng=rng, activation=None)
        x = rng.standard_normal((4, 3)).astype(np.float32)
        dy = rng.standard_normal((4, 2)).astype(np.float32)
        fc.forward(x)
        fc.backward(dy)
        g1 = fc.weight.grad.copy()
        fc.forward(x)
        fc.backward(dy)
        np.testing.assert_allclose(fc.weight.grad, 2 * g1, rtol=1e-5)


class TestMLP:
    def test_stack_shapes(self, rng):
        mlp = MLP(10, (8, 6, 1), rng=rng)
        y = mlp.forward(rng.standard_normal((4, 10)).astype(np.float32))
        assert y.shape == (4, 1)
        assert mlp.in_features == 10 and mlp.out_features == 1

    def test_hidden_layers_use_relu_last_configurable(self, rng):
        mlp = MLP(5, (4, 3), rng=rng, last_activation=None)
        assert mlp.layers[0].activation == "relu"
        assert mlp.layers[1].activation is None

    def test_backward_returns_input_grad(self, rng):
        mlp = MLP(5, (4, 2), rng=rng, last_activation=None)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        mlp.forward(x)
        dx = mlp.backward(np.ones((3, 2), np.float32))
        assert dx.shape == x.shape

    @pytest.mark.parametrize("engine", ENGINES)
    def test_no_input_grad_skips_only_the_first_layers_bwd_d(self, rng, engine):
        # The dense features of DLRM's bottom MLP need no gradient: the
        # first layer's dz @ W is skipped, and no weight or gradient bit moves.
        x = rng.standard_normal((6, 13)).astype(np.float32)
        dy = rng.standard_normal((6, 4)).astype(np.float32)
        full, lean = (MLP(13, (8, 4), rng=np.random.default_rng(3), engine=engine) for _ in "ab")
        for mlp in (full, lean):
            mlp.forward(x)
        assert full.backward(dy).shape == x.shape
        assert lean.backward(dy, input_grad=False) is None
        for a, b in zip(full.parameters(), lean.parameters()):
            assert a.value.tobytes() == b.value.tobytes() and a.grad.tobytes() == b.grad.tobytes()
        for mlp in (full, lean):
            mlp.forward(x)
        seg = lean.backward_segment(dy, 1, 2, input_grad=False)  # not layer 0: still returned
        assert seg.tobytes() == full.backward_segment(dy, 1, 2).tobytes()
        assert lean.backward_segment(seg, 0, 1, input_grad=False) is None

    def test_parameters_and_zero_grad(self, rng):
        mlp = MLP(5, (4, 2), rng=rng)
        assert len(mlp.parameters()) == 4  # 2 layers x (W, b)
        x = rng.standard_normal((3, 5)).astype(np.float32)
        mlp.forward(x)
        mlp.backward(np.ones((3, 2), np.float32))
        assert all(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_empty_layer_list_rejected(self, rng):
        with pytest.raises(ValueError):
            MLP(5, (), rng=rng)


@pytest.mark.parametrize("activation", [None, "relu", "sigmoid"])
@pytest.mark.parametrize("engine", ENGINES)
class TestOneForward:
    """``forward`` is ``infer`` into the layer's workspace plus the two
    saved references: the three ways to ask for a layer's output agree
    to the bit on every engine, and only ``forward`` leaves state."""

    def test_forward_infer_and_infer_into_a_buffer_agree_bitwise(self, rng, engine, activation):
        fc = FullyConnected(6, 5, rng=rng, activation=activation, engine=engine)
        x = rng.standard_normal((7, 6)).astype(np.float32)
        plain = fc.infer(x)
        buf = np.full((7, 5), np.nan, np.float32)
        into = fc.infer(x, out=buf)
        assert into is buf and fc._x is None and fc._y is None  # no autograd state
        trained = fc.forward(x)
        assert trained is fc._y and fc._x is x
        assert np.shares_memory(trained, fc._ws.take("fwd.z", (7, 5)))  # the workspace buffer
        for other in (into, trained):
            np.testing.assert_array_equal(plain.view(np.uint32), other.view(np.uint32))
        # A buffer of the wrong shape, dtype or layout is ignored, not an error.
        for bad in (np.empty((7, 4), np.float32), np.empty((7, 5)), np.empty((5, 7), np.float32).T):
            out = fc.infer(x, out=bad)
            assert out is not bad
            np.testing.assert_array_equal(plain.view(np.uint32), out.view(np.uint32))
        assert fc._y is trained  # infer never touched what backward needs

    def test_a_self_feeding_call_never_writes_the_buffer_it_reads(self, rng, engine, activation):
        fc = FullyConnected(5, 5, rng=rng, activation=activation, engine=engine)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        y1 = fc.forward(x)  # the workspace buffer, deliberately not copied
        snapshot = y1.copy()
        want = fc.infer(snapshot)
        y2 = fc.forward(y1)  # input aliases the buffer forward would write
        assert fc._x is y1 and not np.shares_memory(y2, y1)
        np.testing.assert_array_equal(y1, snapshot)
        again = fc.infer(y1, out=y1)  # and so may a caller's own buffer
        assert again is not y1
        np.testing.assert_array_equal(y1, snapshot)
        for got in (y2, again):
            np.testing.assert_array_equal(want.view(np.uint32), got.view(np.uint32))


@pytest.mark.parametrize("engine", ENGINES)
class TestOneProduct:
    """FWD, BWD_D and BWD_W all call the layer's one product function,
    into ``out=`` where the result has a home, and ``out=`` never
    changes a bit."""

    @pytest.mark.parametrize("n,c,k", [(1, 1, 1), (7, 6, 5), (33, 5, 100)])
    @pytest.mark.parametrize("transposed", [False, True], ids=["a", "aT"])
    def test_out_is_bitwise_a_fresh_product(self, rng, engine, n, c, k, transposed):
        dot = FullyConnected(1, 1, rng=rng, engine=engine)._dot
        a = rng.standard_normal((c, n) if transposed else (n, c)).astype(np.float32)
        a = a.T if transposed else a
        b = rng.standard_normal((c, k)).astype(np.float32)
        want = dot(a, b)
        buf = np.full((n, k), np.nan, np.float32)
        assert dot(a, b, out=buf) is buf
        np.testing.assert_array_equal(want.view(np.uint32), buf.view(np.uint32))

    def test_every_pass_calls_the_one_product(self, rng, engine):
        fc = FullyConnected(6, 5, rng=rng, activation="relu", engine=engine)
        calls = []
        product = fc._dot

        def spy(a, b, out=None):
            calls.append(out)
            return product(a, b, out=out)

        fc._dot = spy
        x = rng.standard_normal((7, 6)).astype(np.float32)
        dy = rng.standard_normal((7, 5)).astype(np.float32)
        fc.forward(x)
        assert len(calls) == 1 and calls[0] is fc._y  # FWD, into the workspace
        fc.backward(dy)
        # BWD_W's first dW goes straight into the gradient storage, BWD_D into the workspace.
        assert len(calls) == 3 and calls[1] is fc.weight.grad
        assert calls[2] is not None and np.shares_memory(calls[2], fc._ws.take("bwd.dx", (7, 6)))
        fc.backward(dy)
        assert len(calls) == 5 and calls[3] is None  # an accumulating dW has no home

    def test_an_accumulated_dw_adds_the_fresh_product(self, rng, engine):
        fc = FullyConnected(6, 5, rng=rng, activation=None, engine=engine)
        x = rng.standard_normal((7, 6)).astype(np.float32)
        dy = rng.standard_normal((7, 5)).astype(np.float32)
        fc.forward(x)
        fc.backward(dy)
        first = fc.weight.grad.copy()
        np.testing.assert_array_equal(first.view(np.uint32), fc._dot(dy.T, x).view(np.uint32))
        fc.backward(dy)
        want = first + fc._dot(dy.T, x)
        np.testing.assert_array_equal(want.view(np.uint32), fc.weight.grad.view(np.uint32))


class TestWorkspaceSteadyState:
    def test_no_allocations_after_first_step(self, rng):
        """Once shapes are seen, forward+backward reuse the arena."""
        mlp = MLP(6, (8, 4), rng=rng, last_activation="sigmoid")
        x = rng.standard_normal((10, 6)).astype(np.float32)
        dy = rng.standard_normal((10, 4)).astype(np.float32)
        mlp.forward(x)
        mlp.backward(dy)
        allocs = sum(layer._ws.allocations for layer in mlp.layers)
        resident = sum(layer._ws.nbytes for layer in mlp.layers)
        assert resident > 0
        for _ in range(4):
            mlp.forward(x)
            mlp.backward(dy)
            mlp.zero_grad()
        assert sum(layer._ws.allocations for layer in mlp.layers) == allocs
        assert sum(layer._ws.nbytes for layer in mlp.layers) == resident

    def test_gradients_unchanged_by_buffer_reuse(self, rng):
        """Reused scratch must not perturb numerics across repeat steps."""
        mlp = MLP(5, (7, 3), rng=rng, last_activation=None)
        x = rng.standard_normal((6, 5)).astype(np.float32)
        dy = rng.standard_normal((6, 3)).astype(np.float32)
        mlp.forward(x)
        mlp.backward(dy)
        first = [p.grad.copy() for p in mlp.parameters()]
        mlp.zero_grad()
        mlp.forward(x)
        mlp.backward(dy)
        for g, p in zip(first, mlp.parameters()):
            np.testing.assert_array_equal(g, p.grad)

    def test_forward_output_valid_until_next_forward(self, rng):
        fc = FullyConnected(4, 4, rng=rng, activation=None)
        a = fc.forward(rng.standard_normal((3, 4)).astype(np.float32)).copy()
        b = fc.forward(rng.standard_normal((3, 4)).astype(np.float32))
        assert not np.array_equal(a, b)  # buffer was legitimately reused

    def test_self_feeding_layer_is_safe(self, rng):
        """fc(fc(x)) with the un-copied output: the GEMM must not write
        the buffer it is reading from."""
        fc = FullyConnected(4, 4, rng=rng, activation="relu")
        x = rng.standard_normal((5, 4)).astype(np.float32)
        y1 = fc.forward(x)  # workspace view, deliberately not copied
        snapshot = y1.copy()
        y2 = fc.forward(y1)
        want = np.maximum(snapshot @ fc.weight.value.T + fc.bias.value, 0.0)
        np.testing.assert_allclose(y2, want, rtol=1e-5, atol=1e-6)

    def test_self_feeding_backward_is_safe(self, rng):
        """Feeding a layer's own (un-copied) dx back as dy: the BWD_D
        GEMM must not write the buffer it is reading from."""
        fc = FullyConnected(4, 4, rng=rng, activation=None)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        dy = rng.standard_normal((5, 4)).astype(np.float32)
        fc.forward(x)
        dx1 = fc.backward(dy)  # workspace view, deliberately not copied
        snapshot = dx1.copy()
        fc.forward(x)
        dx2 = fc.backward(dx1)  # dz aliases the bwd.dx buffer
        np.testing.assert_allclose(dx2, snapshot @ fc.weight.value, rtol=1e-5, atol=1e-6)
