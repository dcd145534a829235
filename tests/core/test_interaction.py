"""Interaction operators: shapes, values and gradients."""

import numpy as np
import pytest

from repro.core.interaction import CatInteraction, DotInteraction, make_interaction


def setup_inputs(rng, n=5, s=3, e=4):
    dense = rng.standard_normal((n, e)).astype(np.float32)
    embs = [rng.standard_normal((n, e)).astype(np.float32) for _ in range(s)]
    return dense, embs


class TestCatInteraction:
    def test_concatenates_in_order(self, rng):
        dense, embs = setup_inputs(rng)
        cat = CatInteraction(3, 4)
        out = cat.forward(dense, embs)
        assert out.shape == (5, 16)
        np.testing.assert_array_equal(out[:, :4], dense)
        np.testing.assert_array_equal(out[:, 8:12], embs[1])

    def test_backward_splits(self, rng):
        dense, embs = setup_inputs(rng)
        cat = CatInteraction(3, 4)
        cat.forward(dense, embs)
        dout = rng.standard_normal((5, 16)).astype(np.float32)
        dd, de = cat.backward(dout)
        np.testing.assert_array_equal(dd, dout[:, :4])
        np.testing.assert_array_equal(de[2], dout[:, 12:16])

    def test_table_count_validated(self, rng):
        dense, embs = setup_inputs(rng)
        with pytest.raises(ValueError):
            CatInteraction(2, 4).forward(dense, embs)


class TestDotInteractionForward:
    def test_output_width(self, rng):
        dense, embs = setup_inputs(rng, s=3, e=4)
        dot = DotInteraction(3, 4)
        out = dot.forward(dense, embs)
        # E + V(V-1)/2 with V = 4.
        assert out.shape == (5, 4 + 6)

    def test_pairwise_values(self, rng):
        dense, embs = setup_inputs(rng, n=2, s=2, e=3)
        dot = DotInteraction(2, 3)
        out = dot.forward(dense, embs)
        z = [dense, embs[0], embs[1]]
        # tril(k=-1) ordering over V=3: (1,0), (2,0), (2,1).
        for sample in range(2):
            expected = [
                np.dot(z[1][sample], z[0][sample]),
                np.dot(z[2][sample], z[0][sample]),
                np.dot(z[2][sample], z[1][sample]),
            ]
            np.testing.assert_allclose(out[sample, 3:], expected, rtol=1e-5)

    def test_dense_passthrough(self, rng):
        dense, embs = setup_inputs(rng)
        out = DotInteraction(3, 4).forward(dense, embs)
        np.testing.assert_array_equal(out[:, :4], dense)

    def test_no_self_interaction_terms(self, rng):
        """The diagonal (z_i . z_i) must not appear in the output."""
        e = 4
        dense = np.ones((1, e), dtype=np.float32)
        embs = [np.zeros((1, e), dtype=np.float32) for _ in range(2)]
        out = DotInteraction(2, e).forward(dense, embs)
        # With zero embeddings every pair involves a zero vector.
        assert not out[0, e:].any()

    def test_shape_mismatch_raises(self, rng):
        dense, embs = setup_inputs(rng)
        embs[1] = embs[1][:, :2]
        with pytest.raises(ValueError):
            DotInteraction(3, 4).forward(dense, embs)


@pytest.mark.parametrize("kind", ["dot", "cat"])
def test_infer_is_forward_to_the_bit_and_leaves_a_pending_backward_alone(rng, kind):
    op = make_interaction(kind, 3, 4)
    first = [rng.standard_normal((5, 4)).astype(np.float32) for _ in range(4)]
    other = [rng.standard_normal((2, 4)).astype(np.float32) for _ in range(4)]
    dout = rng.standard_normal((5, op.out_features)).astype(np.float32)
    out = op.forward(first[0], first[1:])
    want = op.backward(dout)
    again = op.infer(first[0], first[1:])
    np.testing.assert_array_equal(again.view(np.uint32), out.view(np.uint32))
    assert op.infer(other[0], other[1:]).shape == (2, op.out_features)
    got = op.backward(dout)  # still the first batch's Z
    for a, b in zip([want[0], *want[1]], [got[0], *got[1]]):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ValueError, match="expected 3 embedding outputs"):
        op.infer(first[0], first[1:3])


class TestDotInteractionBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        n, s, e = 3, 2, 4
        dense, embs = setup_inputs(rng, n, s, e)
        dot = DotInteraction(s, e)
        target = rng.standard_normal((n, dot.out_features)).astype(np.float32)

        def loss(d, em):
            return float((DotInteraction(s, e).forward(d, em) * target).sum())

        dot.forward(dense, embs)
        dd, de = dot.backward(target)
        eps = 1e-3

        def fd(arr, index, rebuild):
            old = arr[index]
            arr[index] = old + eps
            up = rebuild()
            arr[index] = old - eps
            down = rebuild()
            arr[index] = old
            return (up - down) / (2 * eps)

        for i in range(n):
            for j in range(e):
                g = fd(dense, (i, j), lambda: loss(dense, embs))
                assert dd[i, j] == pytest.approx(g, rel=2e-2, abs=2e-3)
                g0 = fd(embs[0], (i, j), lambda: loss(dense, embs))
                assert de[0][i, j] == pytest.approx(g0, rel=2e-2, abs=2e-3)

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            DotInteraction(2, 4).backward(np.zeros((1, 7), np.float32))


@pytest.mark.usefixtures("kernel_tier")
class TestAWrongShapedGradientRaises:
    """Naming the expected and the received shape: never a broadcast
    of one column over every pair or of one row over the batch, never
    truncated table gradients."""

    def test_a_dot_gradient_one_column_too_wide(self, rng):
        dot = DotInteraction(3, 4)
        dot.forward(*setup_inputs(rng))
        with pytest.raises(ValueError, match=r"\(5, 10\), got \(5, 11\)"):
            dot.backward(np.zeros((5, 11), np.float32))

    def test_a_dot_gradient_of_one_row(self, rng):
        dot = DotInteraction(3, 4)
        dot.forward(*setup_inputs(rng))
        with pytest.raises(ValueError, match=r"\(5, 10\), got \(1, 10\)"):
            dot.backward(np.zeros((1, 10), np.float32))

    def test_a_cat_gradient_too_narrow(self, rng):
        cat = CatInteraction(3, 4)
        cat.forward(*setup_inputs(rng))
        for width in (12, 4, 0):
            with pytest.raises(ValueError, match=rf"\(N, 16\), got \(5, {width}\)"):
                cat.backward(np.zeros((5, width), np.float32))


class TestFactory:
    def test_dot(self):
        assert isinstance(make_interaction("dot", 3, 4), DotInteraction)

    def test_cat(self):
        assert isinstance(make_interaction("cat", 3, 4), CatInteraction)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_interaction("outer", 3, 4)
