"""Bit-accurate BFLOAT16 / split-FP32 emulation (paper Sect. VII).

BFLOAT16 aliases the upper 16 bits of an IEEE754 FP32 number: same 8-bit
exponent, mantissa cut from 24 (one implicit) to 8 bits.  The paper's
Split-SGD-BF16 exploits the aliasing: an FP32 weight tensor is stored as
two separate 16-bit tensors,

* ``hi`` -- the 16 MSBs, which *are* a valid BF16 number and are the only
  thing the forward/backward passes read, and
* ``lo`` -- the 16 LSBs, kept as optimizer state and only touched by the
  SGD update, which therefore runs at full FP32 accuracy.

Because ``hi || lo`` reconstructs the FP32 master weight bit-for-bit, no
separate master copy is needed -- the 3x capacity overhead of classic
FP16 mixed-precision training disappears.

This module emulates all of that on ``uint16``/``uint32`` views, plus the
two auxiliary formats the paper evaluates:

* round-to-nearest-even FP32 -> BF16 (the hardware conversion),
* the "FP24" (1-8-15) variant that keeps only 8 extra LSBs -- shown in
  Fig. 16 to be insufficient for DLRM, and
* an emulated ``vdpbf16ps`` dot product (BF16 inputs, FP32 accumulate),
  mirroring the paper's bit-accurate Cooper Lake emulation.
"""

from __future__ import annotations

import numpy as np


def fp32_to_bf16_rne(x: np.ndarray) -> np.ndarray:
    """Round FP32 to BF16 (round-to-nearest-even), returned as uint16 bits.

    NaN payloads are preserved (quietened); +-inf round to themselves.
    """
    a = np.asarray(x, dtype=np.float32)
    bits = a.view(np.uint32)
    nan_mask = np.isnan(a)
    # RNE: add 0x7FFF + LSB-of-result, then truncate.
    lsb = (bits >> np.uint32(16)) & np.uint32(1)
    rounded = bits + np.uint32(0x7FFF) + lsb
    out = (rounded >> np.uint32(16)).astype(np.uint16)
    if nan_mask.any():
        # Keep NaN a NaN: set a mantissa bit explicitly.
        out = np.where(
            nan_mask, ((bits >> np.uint32(16)).astype(np.uint16) | np.uint16(0x0040)), out
        )
    return out


def bf16_to_fp32(h: np.ndarray) -> np.ndarray:
    """Widen BF16 bits (uint16) to FP32 exactly (zero-extend the mantissa)."""
    h = np.asarray(h, dtype=np.uint16)
    return (h.astype(np.uint32) << np.uint32(16)).view(np.float32)


def quantize_bf16(x: np.ndarray) -> np.ndarray:
    """FP32 -> BF16 (RNE) -> FP32: the value a BF16 datapath would see."""
    return bf16_to_fp32(fp32_to_bf16_rne(x))


def combine_fp32(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Reassemble FP32 from its two 16-bit halves, bit-exactly."""
    hi = np.asarray(hi, dtype=np.uint16)
    lo = np.asarray(lo, dtype=np.uint16)
    if hi.shape != lo.shape:
        raise ValueError(f"hi/lo shape mismatch: {hi.shape} vs {lo.shape}")
    bits = (hi.astype(np.uint32) << np.uint32(16)) | lo.astype(np.uint32)
    return bits.view(np.float32)


def bf16_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Emulated ``vdpbf16ps``: BF16 inputs, FP32 products and accumulation.

    Inputs are FP32 arrays; they are first rounded to BF16 (RNE), then
    multiplied exactly in FP32 (a product of two 8-bit mantissas fits FP32
    exactly) and accumulated in FP32 -- matching the instruction's
    numerics up to accumulation order.  The left operand is quantized
    from a C-contiguous copy, so a transposed view multiplies with the
    bits of its copy (the FP32 ``sgemm`` picks its accumulation order by
    layout).  ``out`` is as for ``np.matmul``.
    """
    aq = quantize_bf16(np.ascontiguousarray(a, dtype=np.float32))
    bq = quantize_bf16(np.asarray(b, dtype=np.float32))
    return np.matmul(aq, bq, out=out)
