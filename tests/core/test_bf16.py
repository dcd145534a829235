"""BF16 / split-FP32 emulation: exact aliasing and rounding properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.bf16 import (
    bf16_dot,
    bf16_to_fp32,
    combine_fp32,
    quantize_bf16,
)
from repro.kernels.rows import split_fp32_into

from tests.conftest import split_fp32, truncate_lo_bits

finite_f32 = hnp.arrays(
    np.float32,
    st.integers(1, 64),
    elements=st.floats(
        np.float32(-1e30), np.float32(1e30), width=32,
        allow_nan=False, allow_infinity=False,
    ),
)


def bf16_ulp(x: np.ndarray) -> np.ndarray:
    """The BF16 unit-in-last-place at each value's magnitude.

    Subnormals share the fixed spacing 2^-133 (min normal 2^-126 over the
    7 explicit mantissa bits).
    """
    a = np.abs(quantize_bf16(x)).astype(np.float64)
    expo = np.where(a == 0, 2.0**-126, a)
    ulp = 2.0 ** (np.floor(np.log2(expo)) - 7)
    return np.maximum(ulp, 2.0**-133).astype(np.float64)


class TestSplitCombine:
    @given(finite_f32)
    @settings(max_examples=200, deadline=None)
    def test_split_combine_roundtrip_is_exact(self, x):
        hi, lo = split_fp32(x)
        assert combine_fp32(hi, lo).tobytes() == x.tobytes()

    @given(finite_f32)
    @settings(max_examples=100, deadline=None)
    def test_hi_half_is_valid_bf16(self, x):
        hi, _ = split_fp32(x)
        widened = bf16_to_fp32(hi)
        # Widening then re-splitting must reproduce hi with a zero lo.
        hi2, lo2 = split_fp32(widened)
        assert np.array_equal(hi, hi2)
        assert not lo2.any()

    def test_split_shapes_match(self):
        x = np.zeros((3, 4), dtype=np.float32)
        hi, lo = split_fp32(x)
        assert hi.shape == lo.shape == (3, 4)
        assert hi.dtype == lo.dtype == np.uint16

    def test_combine_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            combine_fp32(np.zeros(3, np.uint16), np.zeros(4, np.uint16))


class TestRounding:
    @given(finite_f32)
    @settings(max_examples=200, deadline=None)
    def test_rne_error_within_one_ulp(self, x):
        q = quantize_bf16(x)
        err = np.abs(q.astype(np.float64) - x.astype(np.float64))
        assert np.all(err <= bf16_ulp(x).astype(np.float64) * 0.5 + 1e-45)

    @given(finite_f32)
    @settings(max_examples=100, deadline=None)
    def test_quantize_is_idempotent(self, x):
        q = quantize_bf16(x)
        assert np.array_equal(quantize_bf16(q), q)

    def test_rne_rounds_to_even(self):
        # 1.0 + 2^-9 sits exactly between two BF16 numbers (1.0 and
        # 1.0 + 2^-8); RNE must pick the even mantissa (1.0).
        x = np.array([1.0 + 2.0**-9], dtype=np.float32)
        assert quantize_bf16(x)[0] == np.float32(1.0)
        # 1.0 + 3 * 2^-9 must round up to 1.0 + 2 * 2^-8.
        y = np.array([1.0 + 3 * 2.0**-9], dtype=np.float32)
        assert quantize_bf16(y)[0] == np.float32(1.0 + 2 * 2.0**-8)

    def test_exact_bf16_values_pass_through(self):
        vals = np.array([0.0, 1.0, -2.5, 0.15625, 2.0**100], dtype=np.float32)
        assert np.array_equal(quantize_bf16(vals), vals)

    def test_nan_stays_nan(self):
        x = np.array([np.nan, 1.0], dtype=np.float32)
        q = quantize_bf16(x)
        assert np.isnan(q[0]) and q[1] == 1.0

    def test_inf_preserved(self):
        x = np.array([np.inf, -np.inf], dtype=np.float32)
        assert np.array_equal(quantize_bf16(x), x)

    def test_sign_preserved(self):
        x = np.array([-1.5, 1.5, -0.0], dtype=np.float32)
        q = quantize_bf16(x)
        assert np.signbit(q[0]) and not np.signbit(q[1]) and np.signbit(q[2])


class TestTruncateLoBits:
    def test_keep_16_is_identity(self):
        lo = np.array([0xABCD, 0x1234], dtype=np.uint16)
        assert np.array_equal(truncate_lo_bits(lo, 16), lo)

    def test_keep_0_zeroes(self):
        lo = np.array([0xFFFF], dtype=np.uint16)
        assert truncate_lo_bits(lo, 0)[0] == 0

    def test_keep_8_keeps_msbs(self):
        lo = np.array([0xABCD], dtype=np.uint16)
        assert truncate_lo_bits(lo, 8)[0] == 0xAB00

    @pytest.mark.parametrize("bad", [-1, 17])
    def test_rejects_bad_bit_count(self, bad):
        with pytest.raises(ValueError):
            truncate_lo_bits(np.zeros(1, np.uint16), bad)

    @given(finite_f32, st.integers(0, 16))
    @settings(max_examples=100, deadline=None)
    def test_fp24_is_lossier_than_full_split(self, x, bits):
        hi, lo = split_fp32(x)
        approx = combine_fp32(hi, truncate_lo_bits(lo, bits))
        err = np.abs(approx.astype(np.float64) - x.astype(np.float64))
        full = combine_fp32(hi, lo)
        full_err = np.abs(full.astype(np.float64) - x.astype(np.float64))
        assert np.all(err >= full_err)  # full split is exact (err 0)


class TestSplitInto:
    """The in-place split the optimizers run: same halves as
    split_fp32 + truncate_lo_bits, for every bit pattern (this is also
    the NumPy-floor check of ``copyto(casting="unsafe")`` narrowing and
    the mixed ``uint32 | uint16`` rejoin with ``out=``)."""

    @given(
        hnp.arrays(np.uint32, st.integers(1, 64), elements=st.integers(0, 2**32 - 1)),
        st.sampled_from([0, 3, 8, 16]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_split_then_truncate_and_rejoins(self, bits, keep):
        hi, lo = split_fp32(bits.view(np.float32))
        x = bits.view(np.float32).copy()
        got_lo = np.full(bits.shape, 0xBEEF, dtype=np.uint16)
        split_fp32_into(x, got_lo, keep)
        assert np.array_equal(got_lo, truncate_lo_bits(lo, keep))
        assert np.array_equal(x.view(np.uint32), hi.astype(np.uint32) << 16)
        joined = x.view(np.uint32)
        np.bitwise_or(joined, got_lo, out=joined)
        assert joined.dtype == np.uint32
        assert np.array_equal(
            joined, combine_fp32(hi, truncate_lo_bits(lo, keep)).view(np.uint32)
        )


class TestBf16Dot:
    def test_matches_fp32_on_exact_values(self, rng):
        a = quantize_bf16(rng.standard_normal((8, 16)).astype(np.float32))
        b = quantize_bf16(rng.standard_normal((16, 4)).astype(np.float32))
        np.testing.assert_allclose(bf16_dot(a, b), a @ b, rtol=1e-6)

    def test_rounds_inputs_first(self):
        a = np.array([[1.0 + 2.0**-12]], dtype=np.float32)  # not a BF16 value
        b = np.array([[1.0]], dtype=np.float32)
        assert bf16_dot(a, b)[0, 0] == np.float32(1.0)

    @pytest.mark.parametrize("n,c,k", [(7, 6, 5), (100, 33, 5), (64, 128, 32)])
    def test_a_transposed_view_multiplies_as_its_contiguous_copy(self, rng, n, c, k):
        """BWD_W passes ``dz.T``: the left operand is quantized from a
        C-contiguous copy, so its layout never picks the FP32 GEMM's
        accumulation order."""
        a = rng.standard_normal((c, n)).astype(np.float32).T
        b = rng.standard_normal((c, k)).astype(np.float32)
        want = bf16_dot(np.ascontiguousarray(a), b)
        np.testing.assert_array_equal(want.view(np.uint32), bf16_dot(a, b).view(np.uint32))

    def test_out_receives_the_product(self, rng):
        a = rng.standard_normal((9, 16)).astype(np.float32)
        b = rng.standard_normal((16, 4)).astype(np.float32)
        buf = np.full((9, 4), np.nan, np.float32)
        assert bf16_dot(a, b, out=buf) is buf
        np.testing.assert_array_equal(buf.view(np.uint32), bf16_dot(a, b).view(np.uint32))

    def test_an_out_of_the_wrong_shape_raises(self, rng):
        a = rng.standard_normal((9, 16)).astype(np.float32)
        b = rng.standard_normal((16, 4)).astype(np.float32)
        with pytest.raises(ValueError):
            bf16_dot(a, b, out=np.empty((4, 9), np.float32))
