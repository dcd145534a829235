"""Multi-layer perceptron with a reference and a BF16 GEMM engine.

The dense half of DLRM (paper Sect. III-B).  Each fully connected layer
computes ``Y[N, K] = X[N, C] @ W[K, C]^T + b`` in the forward pass and the
two backward GEMMs

* backward-by-data:    ``dX = dY @ W``
* backward-by-weights: ``dW = dY^T @ X``, ``db = sum_n dY``

All three passes call one product function, the layer's engine: plain
``np.matmul`` (the PyTorch/MKL baseline) for ``reference``, and the
emulated BF16 dot product :func:`~repro.core.bf16.bf16_dot` for
``bf16``.  The paper's Alg. 5 (blocked layouts and a batch-reduce GEMM)
is priced by the cost model (:mod:`repro.hw.costmodel`), not executed.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.core.bf16 import bf16_dot
from repro.core.param import Parameter, Prefixed, checked_entry
from repro.kernels.workspace import Workspace

#: The product ``a @ b`` (into ``out=`` when given) of each GEMM engine:
#: plain matmul (the MKL baseline), and an emulated-``vdpbf16ps`` path
#: that rounds both operands to BF16 and accumulates in FP32 (the paper's
#: Cooper Lake outlook, Sect. VII: "this will help to also significantly
#: speed-up the MLP portions").
_PRODUCTS = {"reference": np.matmul, "bf16": bf16_dot}
ENGINES = tuple(_PRODUCTS)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically-stable sigmoid; ``out`` may alias ``x`` (epilogues
    overwrite the GEMM result in place, killing the last allocation)."""
    x = np.asarray(x)
    if out is None:
        out = np.empty_like(x, dtype=np.float32)
    pos = x >= 0
    neg = ~pos
    # The masked gathers copy before the masked writes land, so an
    # aliased ``out`` is safe: each element is read once, written once.
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[neg])
    out[neg] = ex / (1.0 + ex)
    return out


def _matmul_into(ws: Workspace, key: str, dot, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``dot(a, b)`` into the workspace buffer named ``key``.

    Falls back to a fresh allocation when either operand aliases the
    buffer (self-feeding calls: the GEMM must never write what it is
    reading).
    """
    out = ws.take(key, (a.shape[0], b.shape[1]))
    if np.may_share_memory(a, out) or np.may_share_memory(b, out):
        return dot(a, b)
    return dot(a, b, out=out)


class FullyConnected:
    """One fully connected layer; optionally followed by an activation.

    ``activation`` is one of ``None``, ``"relu"`` or ``"sigmoid"`` and is
    fused into the layer (the paper notes activations are element-wise
    and fused into the GEMM epilogue, so they never appear as separate
    hot ops).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator | None = None,
        activation: str | None = "relu",
        engine: str = "reference",
        name: str = "",
        state: Mapping[str, np.ndarray] | None = None,
    ):
        """``state`` (a :meth:`state_dict`) gives the tensors, not ``rng``."""
        if in_features <= 0 or out_features <= 0:
            raise ValueError("feature dimensions must be positive")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if activation not in (None, "relu", "sigmoid"):
            raise ValueError(f"unsupported activation {activation!r}")
        if state is not None:
            w = checked_entry(state, "weight", (out_features, in_features), np.float32)
            b = checked_entry(state, "bias", (out_features,), np.float32)
        else:
            rng = rng or np.random.default_rng()
            # DLRM reference initialisation: N(0, sqrt(2 / (fan_in + fan_out))).
            std = np.sqrt(2.0 / (in_features + out_features))
            w = rng.normal(0.0, std, size=(out_features, in_features)).astype(np.float32)
            b = rng.normal(0.0, np.sqrt(1.0 / out_features), size=out_features).astype(np.float32)
        self.weight = Parameter(w, name=f"{name}.weight")
        self.bias = Parameter(b, name=f"{name}.bias")
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.engine = engine
        #: The one product every pass calls: ``dot(a, b, out=None)``.
        self._dot = _PRODUCTS[engine]
        #: Scratch arena: GEMM outputs and backward intermediates live in
        #: grow-only buffers, so steady-state steps allocate nothing.
        self._ws = Workspace()
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]

    def state_dict(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Copies of the layer's trainable tensors, keyed by name (with
        ``copy=False``, the live tensors)."""
        w, b = self.weight.value, self.bias.value
        return {"weight": w.copy(), "bias": b.copy()} if copy else {"weight": w, "bias": b}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore tensors saved by :meth:`state_dict`, bit-exactly."""
        for key, param in (("weight", self.weight), ("bias", self.bias)):
            param.value[...] = checked_entry(state, key, param.shape, np.float32)
            param.zero_grad()

    # -- passes ----------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """One training forward pass: :meth:`infer` into this layer's
        workspace, with input and output kept for :meth:`backward`.

        The returned array stays valid until the *next* forward through
        the same layer; callers that keep results across steps must copy.
        """
        x = self._checked_input(x)
        self._x = x
        self._y = self.infer(x, out=self._ws.take("fwd.z", (x.shape[0], self.out_features)))
        return self._y

    def _checked_input(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float32)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"expected input (N, {self.in_features}), got {x.shape}"
            )
        return x

    def infer(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The forward pass, storing no autograd state: interleaving
        inference with training never corrupts a pending backward.

        ``out`` may be a preallocated C-contiguous ``(N, out_features)``
        float32 buffer; the GEMM then writes its result directly into it
        (the serving engine's warm path reuses one buffer per layer
        across calls).  A buffer the input aliases is not used
        (self-feeding calls: the GEMM must never write what it is
        reading) and the result is a fresh array.
        """
        x = self._checked_input(x)
        usable = (
            out is not None
            and out.shape == (x.shape[0], self.out_features)
            and out.dtype == np.float32
            and out.flags["C_CONTIGUOUS"]
            and not np.may_share_memory(x, out)
        )
        z = self._dot(x, self.weight.value.T, out=out if usable else None)
        z += self.bias.value
        if self.activation == "relu":
            np.maximum(z, 0.0, out=z)
        elif self.activation == "sigmoid":
            sigmoid(z, out=z)
        return z

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backward-by-weights (into .grad) and backward-by-data (returned;
        None, its GEMM skipped, without ``input_grad``).

        Like :meth:`forward`, the returned ``dx`` and the internal
        intermediates live in the layer's workspace; they are
        overwritten by the next backward through this layer.
        """
        if self._x is None or self._y is None:
            raise RuntimeError("backward called before forward")
        dy = np.ascontiguousarray(dy, dtype=np.float32)
        if dy.shape != self._y.shape:
            raise ValueError(f"dy shape {dy.shape} != output {self._y.shape}")
        if self.activation == "relu":
            dz = self._ws.take("bwd.dz", dy.shape)
            np.multiply(dy, self._y > 0.0, out=dz)
        elif self.activation == "sigmoid":
            dz = self._ws.take("bwd.dz", dy.shape)
            np.multiply(dy, self._y, out=dz)
            one_minus_y = self._ws.take("bwd.one_minus_y", dy.shape)
            np.subtract(1.0, self._y, out=one_minus_y)
            dz *= one_minus_y
        else:
            dz = dy
        # BWD_W: dW[K, C] = dz[N, K]^T @ x[N, C].
        if self.weight.grad is None:
            # The step's first dW is written straight into the
            # gradient storage (a view of the model's gradient flat).
            self._dot(dz.T, self._x, out=self.weight.fresh_grad())
        else:
            self.weight.accumulate_grad(self._dot(dz.T, self._x))
        self.bias.accumulate_grad(dz.sum(axis=0))
        # BWD_D: dX[N, C] = dz[N, K] @ W[K, C].
        return _matmul_into(self._ws, "bwd.dx", self._dot, dz, self.weight.value) if input_grad else None


class MLP:
    """A stack of fully connected layers (Bottom or Top MLP of DLRM)."""

    def __init__(
        self,
        in_features: int,
        layer_sizes: tuple[int, ...] | list[int],
        rng: np.random.Generator | None = None,
        last_activation: str | None = None,
        engine: str = "reference",
        name: str = "mlp",
        state: Mapping[str, np.ndarray] | None = None,
    ):
        """``state`` (a :meth:`state_dict`) gives the tensors, not ``rng``."""
        if not layer_sizes:
            raise ValueError("need at least one layer")
        rng = rng or np.random.default_rng()
        self.layers: list[FullyConnected] = []
        prev = in_features
        for i, size in enumerate(layer_sizes):
            last = i == len(layer_sizes) - 1
            self.layers.append(
                FullyConnected(
                    prev,
                    size,
                    rng=rng,
                    activation=(last_activation if last else "relu"),
                    engine=engine,
                    name=f"{name}.{i}",
                    state=None if state is None else Prefixed(state, f"layers.{i}."),
                )
            )
            prev = size

    @property
    def in_features(self) -> int:
        return self.layers[0].in_features

    @property
    def out_features(self) -> int:
        return self.layers[-1].out_features

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def state_dict(self, copy: bool = True) -> dict[str, np.ndarray]:
        """Flat state of the whole stack, keyed ``layers.<i>.<tensor>``."""
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for key, value in layer.state_dict(copy).items():
                out[f"layers.{i}.{key}"] = value
        return out

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        """Restore a :meth:`state_dict`; keys must match exactly."""
        expected = {
            f"layers.{i}.{k}"
            for i, layer in enumerate(self.layers)
            for k in ("weight", "bias")
        }
        if set(state) != expected:
            missing = sorted(expected - set(state))
            extra = sorted(set(state) - expected)
            raise KeyError(f"state mismatch: missing {missing}, unexpected {extra}")
        for i, layer in enumerate(self.layers):
            layer.load_state_dict(Prefixed(state, f"layers.{i}."))

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def infer(self, x: np.ndarray, outs: list[np.ndarray] | None = None) -> np.ndarray:
        """Forward-only pass through the stack (see FullyConnected.infer).

        ``outs`` is an optional list of per-layer preallocated output
        buffers (one per layer, shapes ``(N, layer.out_features)``).
        """
        if outs is not None and len(outs) != len(self.layers):
            raise ValueError(
                f"expected {len(self.layers)} output buffers, got {len(outs)}"
            )
        for i, layer in enumerate(self.layers):
            x = layer.infer(x, out=None if outs is None else outs[i])
        return x

    def backward(self, dy: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        for layer in reversed(self.layers):
            dy = layer.backward(dy, input_grad or layer is not self.layers[0])
        return dy

    def backward_segment(self, dy: np.ndarray, start: int, stop: int, input_grad: bool = True) -> np.ndarray | None:
        """Backward through layers ``[start, stop)`` only (in reverse),
        returning the gradient flowing into layer ``start`` (None for
        layer 0 without ``input_grad``).

        Running ``backward_segment`` over a partition of ``[0, n)`` in
        descending order is bit-for-bit :meth:`backward` -- it is the
        same layer loop, split where the issue-as-ready allreduce wants
        to ship each bucket's weight gradients.
        """
        if not 0 <= start < stop <= len(self.layers):
            raise ValueError(
                f"segment [{start}, {stop}) invalid for {len(self.layers)} layers"
            )
        for layer in reversed(self.layers[start:stop]):
            dy = layer.backward(dy, input_grad or layer is not self.layers[0])
        return dy

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()
