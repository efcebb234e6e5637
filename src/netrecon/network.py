"""One-hidden-layer perceptron: parameters, activation, forward pass, analytic gradients.

Everything is float64. Reconstruction has to certify cosine distances down to
1e-8 between recovered and true weight vectors, which single precision cannot
resolve.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from ._io import atomic_write_bytes
from .errors import FormatError

MODEL_MAGIC = b"NRML"
MODEL_VERSION = 1


def activation(z):
    """Hidden activation softplus(z) + sigmoid(4z).

    Deliberately asymmetric: a neuron and its sign-flipped copy compute
    different functions, so hidden weight directions can be compared without a
    sign ambiguity. The softplus is evaluated as max(z, 0) + log1p(exp(-|z|)),
    which never forms exp(z) for large z and is exact in both tails.
    """
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) + expit(4.0 * z)


def activation_prime(z):
    """Derivative of :func:`activation`: sigmoid(z) + 4 sigmoid(4z)(1 - sigmoid(4z))."""
    z = np.asarray(z, dtype=np.float64)
    s4 = expit(4.0 * z)
    return expit(z) + 4.0 * s4 * (1.0 - s4)


def _as_block(name, value, shape):
    arr = np.ascontiguousarray(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class Mlp:
    """y = A g(W x + b) + c_out with hidden width r, input dim d, output dim c."""

    W: np.ndarray  # (r, d) hidden input weights
    b: np.ndarray  # (r,)   hidden biases
    A: np.ndarray  # (c, r) output weights
    c_out: np.ndarray  # (c,) output biases

    def __post_init__(self):
        W = np.ascontiguousarray(self.W, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError("W must be a matrix")
        r, d = W.shape
        if not np.all(np.isfinite(W)):
            raise ValueError("W contains non-finite entries")
        b = _as_block("b", self.b, (r,))
        A = np.ascontiguousarray(self.A, dtype=np.float64)
        if A.ndim != 2 or A.shape[1] != r:
            raise ValueError(f"A must have shape (c, {r}), got {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ValueError("A contains non-finite entries")
        c_out = _as_block("c_out", self.c_out, (A.shape[0],))
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c_out", c_out)

    @property
    def r(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]

    @property
    def c(self) -> int:
        return self.A.shape[0]

    @property
    def n_params(self) -> int:
        return self.W.size + self.b.size + self.A.size + self.c_out.size


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Intermediate values of one batched forward pass."""

    pre: np.ndarray  # (batch, r) pre-activations W x + b
    hidden: np.ndarray  # (batch, r) activation(pre)
    out: np.ndarray  # (batch, c) logits


@dataclass(eq=False)
class Gradients:
    """Loss gradients, one block per parameter block of :class:`Mlp`."""

    W: np.ndarray
    b: np.ndarray
    A: np.ndarray
    c_out: np.ndarray


def forward(net: Mlp, X: np.ndarray) -> ForwardTrace:
    """Batched forward pass; X has one input point per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.d:
        raise ValueError(f"X must have shape (batch, {net.d}), got {X.shape}")
    pre = X @ net.W.T + net.b
    hidden = activation(pre)
    out = hidden @ net.A.T + net.c_out
    return ForwardTrace(pre=pre, hidden=hidden, out=out)


def backprop_from_dout(net: Mlp, trace: ForwardTrace, X: np.ndarray,
                       dout: np.ndarray) -> Gradients:
    """Pull a gradient w.r.t. the logits back onto the parameter blocks."""
    dA = dout.T @ trace.hidden
    dc_out = dout.sum(axis=0)
    dpre = (dout @ net.A) * activation_prime(trace.pre)
    dW = dpre.T @ X
    db = dpre.sum(axis=0)
    return Gradients(W=dW, b=db, A=dA, c_out=dc_out)


def _mse(out: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """Residual out - Y and the imitation loss it gives."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != out.shape:
        raise ValueError(f"targets must have shape {out.shape}, got {Y.shape}")
    err = out - Y
    return err, float(np.sum(err * err) / out.shape[0])


def mse_loss(net: Mlp, X: np.ndarray, Y: np.ndarray) -> float:
    """Imitation loss: (1/Q) sum over rows of the squared error summed over outputs."""
    return _mse(forward(net, X).out, Y)[1]


def backward_mse(net: Mlp, X: np.ndarray, Y: np.ndarray) -> tuple[Gradients, float]:
    """Exact analytic gradients of :func:`mse_loss` plus the loss value.

    The loss normalizes by the batch size Q only; the sum over output
    coordinates stays inside, so values are comparable run-to-run for a fixed
    output width.
    """
    X = np.asarray(X, dtype=np.float64)
    trace = forward(net, X)
    err, loss = _mse(trace.out, Y)
    return backprop_from_dout(net, trace, X, (2.0 / X.shape[0]) * err), loss


def init_mlp(r: int, d: int, c: int, scheme: str = "uniform", seed: int = 0) -> Mlp:
    """Fresh network: weights U[-s, s] with s = sqrt(1/fan_in) per layer, biases zero."""
    if r < 1 or d < 1 or c < 1:
        raise ValueError("r, d and c must all be >= 1")
    if scheme != "uniform":
        raise ValueError(f"unknown init scheme {scheme!r}")
    rng = np.random.default_rng(seed)
    s_w = (1.0 / d) ** 0.5
    s_a = (1.0 / r) ** 0.5
    W = rng.uniform(-s_w, s_w, size=(r, d))
    A = rng.uniform(-s_a, s_a, size=(c, r))
    return Mlp(W=W, b=np.zeros(r), A=A, c_out=np.zeros(c))


# Model container layout (all integers little-endian):
#   magic "NRML" | u32 version | u64 r | u64 d | u64 c
#   float64-LE blocks W (r*d), b (r), A (c*r), c_out (c)
#   u32 crc32 over everything after the magic

def save_mlp(net: Mlp, path: str) -> None:
    header = struct.pack("<IQQQ", MODEL_VERSION, net.r, net.d, net.c)
    blocks = b"".join(
        np.ascontiguousarray(block, dtype="<f8").tobytes()
        for block in (net.W, net.b, net.A, net.c_out)
    )
    body = header + blocks
    atomic_write_bytes(path, MODEL_MAGIC + body + struct.pack("<I", zlib.crc32(body)))


def load_mlp(path: str) -> Mlp:
    with open(path, "rb") as f:
        raw = f.read()
    head = len(MODEL_MAGIC) + struct.calcsize("<IQQQ")
    if len(raw) < head + 4:
        raise FormatError(f"{path}: truncated model file")
    if raw[: len(MODEL_MAGIC)] != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic, not a model file")
    version, r, d, c = struct.unpack_from("<IQQQ", raw, len(MODEL_MAGIC))
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported model version {version}")
    n_floats = r * d + r + c * r + c
    expected = head + 8 * n_floats + 4
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size {len(raw)} does not match dims r={r} d={d} c={c}"
        )
    (crc,) = struct.unpack_from("<I", raw, expected - 4)
    if crc != zlib.crc32(raw[len(MODEL_MAGIC):expected - 4]):
        raise FormatError(f"{path}: checksum mismatch")
    flat = np.frombuffer(raw, dtype="<f8", count=n_floats, offset=head)
    pos = 0
    W = flat[pos:pos + r * d].reshape(r, d).astype(np.float64)
    pos += r * d
    b = flat[pos:pos + r].astype(np.float64)
    pos += r
    A = flat[pos:pos + c * r].reshape(c, r).astype(np.float64)
    pos += c * r
    c_out = flat[pos:pos + c].astype(np.float64)
    return Mlp(W=W, b=b, A=A, c_out=c_out)
