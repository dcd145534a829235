"""The dot interaction on both kernel tiers: the same bytes, a checked entry, its own state.

The native entries run ``kernels.c``'s explicit FMA chains, which promise
the bits of the NumPy tier's stacked ``np.matmul`` (OpenBLAS ``ssyrk``
forward, ``sgemm`` backward) for ``E <= native.MAX_DOT_DIM``;
:func:`repro.kernels.native.blas_agrees` is this host's answer to whether
they keep that promise.  Pinned here: forward, ``infer`` and backward of
:class:`~repro.core.interaction.DotInteraction` under each tier, byte for
byte against :mod:`repro.kernels.interaction` called directly, specials
mixed in; each refusal falling back to the NumPy tier's outcome; a
backward that reads only the interaction's own copy of the vectors; and
a float64 ``einsum`` oracle within the rounding bound of a recursive dot
product.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.interaction import DotInteraction
from repro.kernels import dispatch, interaction, native
from repro.kernels.native import build
from tests.conftest import TIERED
from tests.kernels.test_segment import SPECIALS

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf: wanted inputs

needs_native = pytest.mark.skipif(
    build.library() is None, reason=f"native tier unavailable: {build.load()[1]}"
)

#: (N, S, E) of the repo benchmark's dot-interaction workloads.
SUITE_SHAPES = [(512, 8, 64), (142, 26, 128), (96, 8, 64), (512, 4, 128)]


def draw(rng, shape, share=0.0):
    """FP32 normals scaled by 2^-20..2^20, a ``share`` of SPECIALS mixed in."""
    a = np.ldexp(rng.standard_normal(shape, dtype=np.float32), rng.integers(-20, 21, shape))
    mask = rng.random(shape) < share
    a[mask] = rng.choice(SPECIALS, size=int(mask.sum()))
    return a.astype(np.float32, copy=False)


def vectors(rng, n, s, e, share=0.0):
    return draw(rng, (n, e), share), [draw(rng, (n, e), share) for _ in range(s)]


def same(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_tiers_agree(n, s, e, share, seed):
    """Forward, infer and backward through the dispatch, against the
    NumPy tier called directly."""
    rng = np.random.default_rng(seed)
    dense, embs = vectors(rng, n, s, e, share)
    dot = DotInteraction(s, e)
    z = np.empty((n, s + 1, e), np.float32)
    want = interaction.interact(dense, embs, z)
    assert same(dot.forward(dense, embs), want)
    assert same(dot.infer(dense, embs), want)
    if e == 1:
        return  # the backward entry declines E = 1: see TestARefusalTakesTheNumPyTier
    dout = draw(rng, want.shape, share)
    got = dot.backward(dout)
    assert all(same(a, b) for a, b in zip(got, interaction.interact_backward(z, dout), strict=True))


@pytest.mark.usefixtures("kernel_tier")
class TestTheTiersAgreeByteForByte:
    @given(
        n=st.integers(0, 600),
        s=st.integers(1, 30),
        e=st.integers(2, native.MAX_DOT_DIM),
        share=st.sampled_from([0.0, 0.01, 0.2]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None, **TIERED)
    def test_forward_infer_and_backward(self, n, s, e, share, seed):
        """Any E up to the cap -- vector bodies, tails and neither -- with
        ±0, subnormals, ±inf and NaN in the vectors and the gradient.
        (E = 1 is a refusal of the backward entry: see below.)"""
        assert_tiers_agree(n, s, e, share, seed)

    @pytest.mark.parametrize("n, s, e", SUITE_SHAPES)
    def test_the_benchmarks_shapes(self, n, s, e):
        assert_tiers_agree(n, s, e, 0.001, seed=n + s + e)

    @pytest.mark.parametrize("v", [2, 8, 9, 10, 16, 17, 27, 31])
    @pytest.mark.parametrize("e", [1, 7, 8, 9, 64, 128, 256])
    def test_the_tiles_edges(self, v, e):
        """V one short of, at and past the 8 x 8 tile's rows and columns;
        E across the 8- and 16-float vector bodies, their tails and the cap."""
        assert_tiers_agree(4, v - 1, e, 0.05, seed=100 * v + e)


def forward_case(what: str):
    """Valid forward inputs (``what == "none"``), or one thing wrong."""
    rng = np.random.default_rng(3)
    e = native.MAX_DOT_DIM + 1 if what == "E past the cap" else 8
    dense, embs = vectors(rng, 5, 3, e)
    z = np.zeros((5, 4, e), np.float32)
    if what == "float64 embedding":
        embs[1] = embs[1].astype(np.float64)
    elif what == "strided embedding":
        embs[1] = np.repeat(embs[1], 2, axis=1)[:, ::2]
    elif what == "fortran dense":
        dense = np.asfortranarray(dense)
    elif what == "narrow embedding":
        embs[1] = np.ascontiguousarray(embs[1][:, :7])
    elif what == "z of another shape":
        z = np.zeros((5, 3, e), np.float32)
    elif what == "read-only z":
        z.flags.writeable = False
    elif what == "z over an input":
        buf = np.zeros((20, e), np.float32)
        buf[15:] = dense
        z, dense = buf.reshape(5, 4, e), buf[15:]
    return dense, embs, z


def backward_case(what: str):
    """Valid backward inputs (``what == "none"``), or one thing wrong."""
    rng = np.random.default_rng(4)
    e = {"E past the cap": native.MAX_DOT_DIM + 1, "E = 1": 1}.get(what, 8)
    z = draw(rng, (5, 4, e))
    dout = draw(rng, (5, e + 6))
    if what == "float64 dout":
        dout = dout.astype(np.float64)
    elif what == "strided dout":
        dout = np.repeat(dout, 2, axis=1)[:, ::2]
    elif what == "float64 z":
        z = z.astype(np.float64)
    elif what == "strided z":
        z = np.repeat(z, 2, axis=2)[:, :, ::2]
    elif what == "a column too many":
        dout = draw(rng, (5, e + 7))
    elif what == "one row":
        dout = np.ascontiguousarray(dout[:1])
    return z, dout


def outcome(fn, *args):
    """The bytes of what ``fn`` returns (a tuple's parts in order), or
    the type of what it raises."""
    try:
        got = fn(*args)
    except Exception as exc:  # noqa: BLE001 - whatever the NumPy tier raises, both must
        return type(exc)
    return [np.asarray(a).tobytes() for a in (got if isinstance(got, tuple) else (got,))]


@needs_native
class TestARefusalTakesTheNumPyTier:
    """A refusal writes nothing, and the dispatch then returns or raises
    exactly what the NumPy tier does with the same arguments."""

    @pytest.mark.parametrize(
        "what",
        ["float64 embedding", "strided embedding", "fortran dense", "narrow embedding",
         "E past the cap", "z of another shape", "read-only z", "z over an input"],
    )
    def test_forward(self, what):
        dense, embs, z = forward_case(what)
        before = z.copy()
        assert native.dot_interaction(dense, embs, z) is None
        assert same(z, before)
        results = []
        for fn in (dispatch.dot_interaction, interaction.interact):
            dense, embs, z = forward_case(what)
            results.append((outcome(fn, dense, embs, z), z.tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize(
        "what",
        ["float64 dout", "strided dout", "float64 z", "strided z", "E past the cap", "E = 1",
         "a column too many", "one row"],
    )
    def test_backward(self, what):
        z, dout = backward_case(what)
        assert native.dot_interaction_backward(z, dout) is None
        assert outcome(dispatch.dot_interaction_backward, z, dout) == outcome(
            interaction.interact_backward, z, dout
        )

    def test_a_blas_that_disagrees(self, monkeypatch):
        """The agreement check's verdict is the last gate: with it
        negative the entries decline inputs they can represent."""
        dense, embs, z = forward_case("none")
        assert native.dot_interaction(dense, embs, z) is not None
        assert native.dot_interaction_backward(*backward_case("none")) is not None
        monkeypatch.setattr(native, "blas_agrees", lambda: False)
        assert native.dot_interaction(dense, embs, z) is None
        assert native.dot_interaction_backward(*backward_case("none")) is None
        assert same(dispatch.dot_interaction(dense, embs), interaction.interact(dense, embs))


@pytest.mark.usefixtures("kernel_tier")
class TestTheBackwardReadsItsOwnCopy:
    """A bottom-MLP output is a reused buffer and an exchanged embedding
    may be a transport view: the backward must not read them."""

    @staticmethod
    def inputs_and_grads():
        rng = np.random.default_rng(5)
        dense, embs = vectors(rng, 33, 5, 24, 0.01)
        dout = draw(rng, (33, 24 + 15), 0.01)
        clean = DotInteraction(5, 24)
        clean.forward(dense, embs)
        return dense, embs, dout, clean.backward(dout)

    def test_inputs_overwritten_between_forward_and_backward(self):
        dense, embs, dout, want = self.inputs_and_grads()
        dot = DotInteraction(5, 24)
        dot.forward(dense, embs)
        for a in (dense, *embs):
            a[...] = np.float32(7.0)
        assert all(same(a, b) for a, b in zip(dot.backward(dout), want, strict=True))

    def test_an_infer_between_forward_and_backward(self):
        dense, embs, dout, want = self.inputs_and_grads()
        dot = DotInteraction(5, 24)
        dot.forward(dense, embs)
        dot.infer(*vectors(np.random.default_rng(6), 9, 5, 24))
        assert all(same(a, b) for a, b in zip(dot.backward(dout), want, strict=True))


@needs_native
@pytest.mark.parametrize("v, e", [(2, 1), (10, 9), (27, 128)])
def test_the_forward_sizes_its_scratch_and_declines_a_short_one(v, e):
    """Asked with no scratch, the C forward names the floats it needs;
    one float fewer and it writes nothing at all; with exactly that many
    it writes none past them."""
    lib, rng, n = build.library(), np.random.default_rng(v + e), 3
    vecs = [draw(rng, (n, e)) for _ in range(v)]
    ptrs = np.array([a.ctypes.data for a in vecs], dtype=np.uintp)
    z = np.full((n, v, e), 7.0, np.float32)
    out = np.full((n, e + interaction.pairs(v)), 7.0, np.float32)
    args = (ptrs.ctypes.data, n, v, e, z.ctypes.data, out.ctypes.data)
    need = lib.repro_dot_fwd(*args, None, 0)
    scratch = np.full(need + 64, 7.0, np.float32)
    assert lib.repro_dot_fwd(*args, scratch.ctypes.data, need - 1) == need
    assert (scratch == 7.0).all() and (z == 7.0).all() and (out == 7.0).all()
    assert lib.repro_dot_fwd(*args, scratch.ctypes.data, need) == 0
    assert (scratch[need:] == 7.0).all()
    want_z = np.empty_like(z)
    assert same(out, interaction.interact(vecs[0], vecs[1:], want_z)) and same(z, want_z)


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-24: the relative bound
    on a recursive FP32 sum of k products (an FMA chain rounds k times)."""
    u = 2.0**-24
    return k * u / (1 - k * u)


@pytest.mark.usefixtures("kernel_tier")
def test_a_float64_einsum_within_the_recursive_dot_bound():
    """|fl(x . y) - x . y| <= gamma_k sum |x_i y_i|, per output element."""
    rng = np.random.default_rng(7)
    n, s, e = 64, 8, 64
    dense, embs = vectors(rng, n, s, e)
    dot = DotInteraction(s, e)
    out = dot.forward(dense, embs)
    z = np.stack([dense, *embs], axis=1).astype(np.float64)
    i, j = np.tril_indices(s + 1, k=-1)
    exact = np.einsum("nie,nje->nij", z, z)[:, i, j]
    scale = np.einsum("nie,nje->nij", abs(z), abs(z))[:, i, j]
    assert same(out[:, :e], dense)
    assert (abs(out[:, e:] - exact) <= gamma(e) * scale).all()

    dout = draw(rng, out.shape)
    ddense, dembs = dot.backward(dout)
    sym = np.zeros((n, s + 1, s + 1))
    sym[:, i, j] = dout[:, e:]
    sym += sym.transpose(0, 2, 1)
    dz = np.einsum("nij,nje->nie", sym, z)
    bound = gamma(s + 2) * (np.einsum("nij,nje->nie", abs(sym), abs(z)))
    assert (abs(dembs.transpose(1, 0, 2) - dz[:, 1:]) <= bound[:, 1:]).all()
    assert (abs(ddense - (dz[:, 0] + dout[:, :e])) <= bound[:, 0] + gamma(1) * abs(dout[:, :e])).all()
