"""The tables' uniform draw on both kernel tiers: NumPy's bits and NumPy's state.

``dispatch.uniform_fill(out, rng, low, high)`` promises
``rng.uniform(low, high, out.shape).astype(np.float32)`` bit for bit,
with ``rng`` left where that one draw leaves it.  The native entry steps
NumPy's ``PCG64`` chain itself and takes only a ``PCG64`` ``Generator``, scalar bounds ``Generator.uniform`` accepts and
a process whose draw :func:`repro.kernels.native.pcg64_agrees` has
matched; every other generator, bound or host takes the NumPy tier's
block loop, with the same bits.
"""

import ctypes
import functools
import subprocess
from importlib import resources

import numpy as np
import pytest

from repro.kernels import dispatch, native, rows as row_kernels
from repro.kernels.native import build

#: ``(rows, dim)`` of a fill: none, one, two, a few, a ragged run, a
#: table's width, and one row longer than a NumPy-tier block.
SHAPES = [(0, 1), (1, 1), (2, 1), (7, 1), (8, 1), (9, 1), (1001, 1), (77, 13),
          (row_kernels._BLOCK_ELEMS // 64 + 1, 64)]
#: A table's range, the unit range, an underflowing and an empty one.
BOUNDS = [(-0.0125, 0.0125), (0.0, 1.0), (-3.0, 1e-300), (2.0, 2.0)]


def numpy_draw(rng: np.random.Generator, shape, low, high) -> np.ndarray:
    return rng.uniform(low, high, shape).astype(np.float32)


def assert_numpys(out, mine: np.random.Generator, theirs: np.random.Generator, low, high) -> None:
    """``out`` holds ``theirs``' draw, and both generators go on alike."""
    assert out.tobytes() == numpy_draw(theirs, out.shape, low, high).tobytes()
    assert mine.random(5).tobytes() == theirs.random(5).tobytes()


@pytest.mark.usefixtures("kernel_tier")
class TestNumPysDrawUnderEachTier:
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("low,high", BOUNDS)
    def test_the_fill_is_the_one_shot_draw(self, shape, low, high):
        seed = shape[0] * 100 + shape[1]
        out = np.empty(shape, np.float32)
        mine = np.random.default_rng(seed)
        dispatch.uniform_fill(out, mine, low, high)
        assert_numpys(out, mine, np.random.default_rng(seed), low, high)

    def test_fills_in_turn_are_one_draw(self):
        """A table drawn into row blocks, as a Split-BF16 table is, and
        tables drawn one after another from one generator."""
        mine, theirs = np.random.default_rng(3), np.random.default_rng(3)
        out = np.empty((1000, 7), np.float32)
        for lo, hi in ((0, 1), (1, 9), (9, 500), (500, 1000)):
            dispatch.uniform_fill(out[lo:hi], mine, -0.5, 0.5)
        assert_numpys(out, mine, theirs, -0.5, 0.5)

    def test_numpy_scalar_and_integer_bounds(self):
        bound = np.sqrt(1.0 / 37)  # what a table's draw passes: a float64 scalar
        for low, high in ((-bound, bound), (np.float32(-0.25), np.float32(0.5)), (-2, 3)):
            mine, theirs = np.random.default_rng(4), np.random.default_rng(4)
            out = np.empty((37, 5), np.float32)
            dispatch.uniform_fill(out, mine, low, high)
            assert_numpys(out, mine, theirs, low, high)


@pytest.mark.parametrize("bits", ["MT19937", "Philox", "SFC64", "PCG64DXSM"])
def test_other_bit_generators_take_the_numpy_tier_with_the_same_bits(bits):
    def make():
        return np.random.Generator(getattr(np.random, bits)(11))

    out = np.zeros((101, 3), np.float32)
    untouched = make()
    assert native.uniform_fill(out, untouched, -1.0, 1.0) is False
    assert not out.any() and untouched.random(3).tobytes() == make().random(3).tobytes()
    mine = make()
    dispatch.uniform_fill(out, mine, -1.0, 1.0)
    assert_numpys(out, mine, make(), -1.0, 1.0)


@pytest.mark.parametrize(
    "low,high", [(0.0, -0.0), (1.0, 0.0), (-1e308, 1e308), (0.0, np.nan), (0, 2**1100)]
)
def test_bounds_numpy_refuses_are_refused_as_numpy_refuses_them(low, high):
    out = np.zeros((5, 2), np.float32)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    assert native.uniform_fill(out, rng, low, high) is False
    assert not out.any() and rng.bit_generator.state == before
    with pytest.raises((ValueError, OverflowError)) as mine:
        dispatch.uniform_fill(out, rng, low, high)
    with pytest.raises(type(mine.value)):
        np.random.default_rng(0).uniform(low, high, out.shape)


def test_bounds_that_broadcast_take_the_numpy_tier():
    out = np.empty((4, 2), np.float32)
    low = np.array([-1.0, 0.0])
    assert native.uniform_fill(out, np.random.default_rng(1), low, 1.0) is False
    mine = np.random.default_rng(1)
    dispatch.uniform_fill(out, mine, low, 1.0)
    assert_numpys(out, mine, np.random.default_rng(1), low, 1.0)


def test_a_draw_that_disagrees_falls_back_instead_of_raising(monkeypatch):
    """A C draw one bit off NumPy's fails the agreement check, and every
    fill then takes the NumPy tier."""
    real = native._fill

    def one_bit_off(lib, bits, out, n, low, span):
        filled = real(lib, bits, out, n, low, span)
        if n:
            ctypes.c_uint32.from_address(out).value ^= 1
        return filled

    monkeypatch.setattr(native, "_fill", one_bit_off)
    monkeypatch.setattr(native, "pcg64_agrees", functools.cache(native.pcg64_agrees.__wrapped__))
    assert native.pcg64_agrees() is False
    out = np.empty((50, 4), np.float32)
    assert native.uniform_fill(out, np.random.default_rng(2), -1.0, 1.0) is False
    mine = np.random.default_rng(2)
    dispatch.uniform_fill(out, mine, -1.0, 1.0)
    assert_numpys(out, mine, np.random.default_rng(2), -1.0, 1.0)


@pytest.mark.skipif(build.library() is None, reason="needs a C compiler")
def test_a_target_without_128_bit_integers_loses_only_the_draw(tmp_path):
    """Built as for a target without ``__int128``, the library still
    loads with every entry; its draw touches nothing and says so, so the
    agreement check fails and the tables take the NumPy tier."""
    source = resources.files("repro.kernels.native").joinpath(build.SOURCE)
    so = tmp_path / "no_int128.so"
    cc = [build.compiler(), *build.FLAGS, "-Werror", "-U__SIZEOF_INT128__"]
    subprocess.run([*cc, str(source), "-o", str(so)], check=True, capture_output=True)
    lib = build._open(str(so))
    words = np.array([1, 2, 3, 5], np.uint64)
    out = np.zeros(9, np.float32)
    assert lib.repro_uniform_fill(words.ctypes.data, out.size, 0.0, 1.0, out.ctypes.data) == 0
    assert words.tolist() == [1, 2, 3, 5] and not out.any()
    rng = np.random.default_rng(6)
    assert native._fill(lib, rng.bit_generator, out.ctypes.data, out.size, 0.0, 1.0) is False
    assert rng.random(3).tobytes() == np.random.default_rng(6).random(3).tobytes()
    assert not any(native._draw_agrees(lib, *case) for case in native._DRAWS)
