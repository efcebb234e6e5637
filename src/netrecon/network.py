"""One-hidden-layer perceptron: parameters, activation, forward pass, analytic gradients.

Everything is float64. Reconstruction has to certify cosine distances down to
1e-8 between recovered and true weight vectors, which single precision cannot
resolve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from ._io import read_container, write_container
from .errors import FormatError

MODEL_MAGIC = b"NRML"
MODEL_VERSION = 1

# rows per block of every full-set pass (see `_row_blocks`), at any width.
# Fixed in code, never derived from the machine, and large: OpenBLAS
# multiplies blocks of 1-64 rows at d=784 with other kernels, whose last bits
# differ from the whole set's. At widths r off its 8-column unroll (say 513 or
# 700) the last r % 8 columns of even large blocks can differ from the whole
# set's in the last bits.
_ROWS = 1024

# elements per tile of the elementwise kernels (`_activate`, `train.adam_step`):
# 128 KB per float64 array, so a tile's few arrays stay in a 2 MB L2 cache.
# Fixed in code; elementwise results do not depend on it.
_TILE = 16384


def _activate(z: np.ndarray, out: np.ndarray | None = None,
              g: np.ndarray | None = None) -> np.ndarray:
    """softplus(z) + sigmoid(4z) and, exactly when `g` is given, its derivative, from one exp.

    With e = exp(-|z|), e4 = e**4 and u the unit step (1 for z >= 0, else 0):
    softplus(z) = max(z, 0) + log1p(e), sigmoid(z) = max(e, u) / (1 + e),
    sigmoid(4z) = max(e4, u) / (1 + e4), and the derivative is
    sigmoid(z) + 4 e4 / (1 + e4)**2. No exp(z) is formed for large z and no
    1 - sigmoid is, so both tails are exact; max(., u) selects the numerator
    without a branch. The activation is written into `out`, or a new array
    where it is None, and returned; the derivative into `g`. Both are
    C-ordered arrays of z's shape. `out` may be z itself, so the activation
    replaces z; `g` must not overlap z. The kernel runs over flat tiles of
    `_TILE` elements: besides the results only four tile-sized scratch arrays
    are alive, or five with the derivative.
    """
    out = np.empty(z.shape) if out is None else out
    zf, of = z.reshape(-1), out.reshape(-1)
    gf = None if g is None else g.reshape(-1)
    bufs = np.empty((4 if g is None else 5, min(zf.size, _TILE)))
    for i in range(0, zf.size, _TILE):
        tile = slice(i, i + _TILE)
        zt, e = zf[tile], of[tile]
        e4, den4, u, relu, *slope_bufs = bufs[:, :zt.size]
        # the two reads of z come first, since e may be z's own tile
        np.greater_equal(zt, 0.0, out=u)
        np.maximum(zt, 0.0, out=relu)
        np.abs(zt, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        np.square(e, out=e4)
        np.square(e4, out=e4)
        np.add(e4, 1.0, out=den4)
        if gf is not None:
            (den,) = slope_bufs
            gt = gf[tile]
            np.add(e, 1.0, out=den)
            np.maximum(e, u, out=gt)
            gt /= den  # sigmoid(z)
            np.divide(e4, den4, out=den)
            den /= den4
            den *= 4.0  # derivative of sigmoid(4z)
            gt += den
        np.log1p(e, out=e)
        np.maximum(e4, u, out=u)
        np.divide(u, den4, out=u)  # sigmoid(4z)
        e += relu
        e += u
    return out


def activation(z):
    """Hidden activation softplus(z) + sigmoid(4z).

    Deliberately asymmetric: a neuron and its sign-flipped copy compute
    different functions, so hidden weight directions can be compared without a
    sign ambiguity. Both tails are exact (see `_activate`).
    """
    z = np.asarray(z, dtype=np.float64)
    return _activate(np.atleast_1d(z)).reshape(z.shape)[()]


def activation_prime(z):
    """Derivative of :func:`activation`: sigmoid(z) + 4 sigmoid(4z)(1 - sigmoid(4z))."""
    z = np.asarray(z, dtype=np.float64)
    g = np.empty(z.shape)
    _activate(np.atleast_1d(z), g=np.atleast_1d(g))
    return g[()]


class Mlp:
    """y = A g(W x + b) + c_out with hidden width r, input dim d, output dim c.

    The parameters are one read-only float64 vector `theta`, laid out like the
    body of an NRML model file: W (r*d, row-major), b (r), A (c*r), c_out (c).
    W, b, A and c_out are views of it. An Mlp is immutable.
    """

    __slots__ = ("r", "d", "c", "theta", "W", "b", "A", "c_out")

    def __init__(self, W, b, A, c_out):
        """Copy the four blocks into a fresh `theta`; the inputs are not aliased."""
        W = np.asarray(W, dtype=np.float64)
        A = np.asarray(A, dtype=np.float64)
        if W.ndim != 2 or A.ndim != 2:
            raise ValueError("W and A must be matrices")
        self._set_dims(*W.shape, A.shape[0])
        theta = np.empty(self.n_params)
        for name, view, value in zip(("W", "b", "A", "c_out"), self.blocks(theta),
                                     (W, b, A, c_out)):
            value = np.asarray(value, dtype=np.float64)
            if value.shape != view.shape:
                raise ValueError(f"{name} must have shape {view.shape}, got {value.shape}")
            view[...] = value
        self._adopt(theta)

    @classmethod
    def from_flat(cls, theta, r: int, d: int, c: int) -> Mlp:
        """Net on `theta`, a vector in NRML body order; adopted without a copy and made read-only."""
        net = object.__new__(cls)
        net._set_dims(r, d, c)
        net._adopt(np.ascontiguousarray(theta, dtype=np.float64))
        return net

    def _set_dims(self, r, d, c):
        if r < 1 or d < 1 or c < 1:
            raise ValueError(f"r, d and c must all be >= 1, got r={r} d={d} c={c}")
        for name, value in zip(("r", "d", "c"), (r, d, c)):
            object.__setattr__(self, name, int(value))

    def _adopt(self, theta):
        if theta.shape != (self.n_params,):
            raise ValueError(f"theta must have shape ({self.n_params},), got {theta.shape}")
        _require_finite(theta)
        theta.flags.writeable = False
        for name, value in zip(("theta", "W", "b", "A", "c_out"), (theta, *self.blocks(theta))):
            object.__setattr__(self, name, value)

    def blocks(self, vec: np.ndarray) -> tuple[np.ndarray, ...]:
        """Views (W, b, A, c_out) of a vector laid out like `theta`: the one place the layout lives."""
        r, d, c = self.r, self.d, self.c
        i, j, k = r * d, r * d + r, r * d + r + c * r
        return vec[:i].reshape(r, d), vec[i:j], vec[j:k].reshape(c, r), vec[k:k + c]

    @property
    def n_params(self) -> int:
        return self.r * self.d + self.r + self.c * self.r + self.c

    def __setattr__(self, name, value):
        raise AttributeError(f"Mlp is immutable; cannot set {name!r}")

    def __reduce__(self):
        """Pickle theta and the dims only; unpickling rebuilds the views."""
        return Mlp.from_flat, (self.theta, self.r, self.d, self.c)


def _require_finite(theta: np.ndarray) -> None:
    """Raise ValueError unless every parameter is finite."""
    # min and max propagate nan; unlike isfinite(theta) they allocate nothing
    if not (isfinite(theta.min()) and isfinite(theta.max())):
        raise ValueError("parameters contain non-finite entries")


@dataclass(frozen=True, eq=False)
class ForwardTrace:
    """Intermediate values of one batched forward pass."""

    pre: np.ndarray  # (batch, r) pre-activations W x + b
    hidden: np.ndarray  # (batch, r) activation(pre)
    out: np.ndarray  # (batch, c) logits


def _inputs(net: Mlp, X: np.ndarray) -> np.ndarray:
    """X as float64, checked to hold one input point of `net` per row."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.d:
        raise ValueError(f"X must have shape (batch, {net.d}), got {X.shape}")
    return X


def _preactivations(net: Mlp, X: np.ndarray, out: np.ndarray) -> None:
    """W x + b for each row x of X, written into `out` (n, r)."""
    np.matmul(_inputs(net, X), net.W.T, out=out)
    out += net.b


def _forward_into(net: Mlp, X: np.ndarray, pre: np.ndarray, hidden: np.ndarray,
                  out: np.ndarray, slope: np.ndarray | None = None) -> None:
    """The forward pass of X written into given arrays of its rows: `pre`,
    `hidden` and `slope` (n, r), `out` (n, c); no slope where it is None.
    `hidden` may be `pre`, which the hidden layer then replaces."""
    _preactivations(net, X, pre)
    _activate(pre, hidden, slope)
    np.matmul(hidden, net.A.T, out=out)
    out += net.c_out


def forward(net: Mlp, X: np.ndarray) -> ForwardTrace:
    """Batched forward pass; X has one input point per row."""
    X = _inputs(net, X)
    n = X.shape[0]
    pre, hidden, out = np.empty((n, net.r)), np.empty((n, net.r)), np.empty((n, net.c))
    _forward_into(net, X, pre, hidden, out)
    return ForwardTrace(pre=pre, hidden=hidden, out=out)


def _row_blocks(n: int) -> list[slice]:
    """The row blocks of every full-set pass: `_ROWS` rows each, any remainder
    joining the last block, so n < 2 * `_ROWS` rows make one block."""
    blocks = max(n // _ROWS, 1)
    return [slice(i * _ROWS, n if i == blocks - 1 else (i + 1) * _ROWS) for i in range(blocks)]


def _outputs(net: Mlp, X: np.ndarray) -> np.ndarray:
    """The logits `forward` returns for X, with the same bytes (but see
    `_ROWS`), in `_row_blocks` that share one hidden-layer array, sized for
    the last and largest. It holds each block's pre-activations and then its
    activations, so at any width the peak does not grow with Q, apart from
    the (Q, c) result."""
    X = _inputs(net, X)
    blocks = _row_blocks(X.shape[0])
    out = np.empty((X.shape[0], net.c))
    hidden = np.empty((blocks[-1].stop - blocks[-1].start, net.r))
    for rows in blocks:
        block = hidden[:rows.stop - rows.start]
        _forward_into(net, X[rows], block, block, out[rows])
    return out


def _backprop_into(net: Mlp, X: np.ndarray, hidden: np.ndarray, slope: np.ndarray,
                   dout: np.ndarray, dpre: np.ndarray, grad: np.ndarray) -> None:
    """Pull `dout`, a gradient w.r.t. the logits of X's rows, back onto the
    parameters: writes it into `grad`, laid out like `theta`, with `dpre`
    (n, r) as scratch. `hidden` and `slope` come from the forward pass of X."""
    dW, db, dA, dc_out = net.blocks(grad)
    np.matmul(dout.T, hidden, out=dA)
    dout.sum(axis=0, out=dc_out)
    np.matmul(dout, net.A, out=dpre)
    dpre *= slope
    np.matmul(X.T, dpre, out=dW.T)  # Xᵀ·dpre into dWᵀ: the bytes of dpre.T @ X
    dpre.sum(axis=0, out=db)


def backprop_from_dout(net: Mlp, trace: ForwardTrace, X: np.ndarray,
                       dout: np.ndarray) -> np.ndarray:
    """Pull a gradient w.r.t. the logits back onto the parameters, in `theta`'s layout.

    `trace` is :func:`forward`'s trace of X.
    """
    grad = np.empty(net.n_params)
    _backprop_into(net, np.asarray(X, dtype=np.float64), trace.hidden,
                   activation_prime(trace.pre), dout, np.empty(trace.hidden.shape), grad)
    return grad


def _mse(out: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """Residual out - Y and the imitation loss it gives."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != out.shape:
        raise ValueError(f"targets must have shape {out.shape}, got {Y.shape}")
    err = out - Y
    return err, float(np.sum(err * err) / out.shape[0])


def mse_loss(net: Mlp, X: np.ndarray, Y: np.ndarray) -> float:
    """Imitation loss: (1/Q) sum over rows of the squared error summed over outputs."""
    return _mse(_outputs(net, X), Y)[1]


def backward_mse(net: Mlp, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact analytic gradient of :func:`mse_loss` plus the loss value.

    The gradient is laid out like `net.theta`; `net.blocks(grad)` splits it.

    The loss normalizes by the batch size Q only; the sum over output
    coordinates stays inside, so values are comparable run-to-run for a fixed
    output width.
    """
    X = np.asarray(X, dtype=np.float64)
    trace = forward(net, X)
    err, loss = _mse(trace.out, Y)
    return backprop_from_dout(net, trace, X, (2.0 / X.shape[0]) * err), loss


def _gauss_newton(net: Mlp, X: np.ndarray, Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """JᵀJ and Jᵀe, both in `theta`'s layout, for the residual e = out - Y over every row.

    J is the Jacobian of the Q*c logits with respect to `theta`; it is never
    formed. With F the features g'(z_j) [x; 1] of each hidden neuron j, its
    columns in `theta`'s W then b order, and H = [h; 1], the W/b block is
    FᵀF scaled by (AᵀA)_jj' for the neurons j, j' of each row and column,
    the A/c_out block is I_c ⊗ HᵀH and the cross block is A_kj (FᵀH)_j, so
    building it costs about c times fewer flops than J. Jᵀe is the
    backpropagated residual. The sums run over `_row_blocks`, as every
    full-set pass does, and one activation pass per block gives both the
    hidden layer and its slope. At most two arrays of JᵀJ's size are alive.
    """
    X = _inputs(net, X)
    r, d, c, n = net.r, net.d, net.c, X.shape[0]
    rd, wb, ab = r * d, r * (d + 1), r * (d + 1) + c * r  # ends of W, b and A in theta
    jtj = np.zeros((net.n_params, net.n_params))
    FH = np.zeros((wb, r + 1))
    HH = np.zeros((r + 1, r + 1))
    grad = np.zeros(net.n_params)
    block_grad = np.empty(net.n_params)
    for rows in _row_blocks(n):
        k = rows.stop - rows.start
        hidden, slope, out = np.empty((k, r)), np.empty((k, r)), np.empty((k, c))
        _forward_into(net, X[rows], hidden, hidden, out, slope)
        F = np.empty((k, wb))
        np.multiply(slope[:, :, None], X[rows, None, :], out=F[:, :rd].reshape(-1, r, d))
        F[:, rd:] = slope
        H = np.hstack([hidden, np.ones((k, 1))])
        jtj[:wb, :wb] += F.T @ F
        FH += F.T @ H
        HH += H.T @ H
        _backprop_into(net, X[rows], hidden, slope, _mse(out, Y[rows])[0], np.empty((k, r)),
                       block_grad)
        grad += block_grad
    neuron = np.concatenate([np.repeat(np.arange(r), d), np.arange(r)])  # of each W/b entry
    jtj[:wb, :wb] *= (net.A.T @ net.A)[np.ix_(neuron, neuron)]
    A_of = net.A.T[neuron]  # (wb, c): A_kj of each W/b entry's neuron j
    jtj[:wb, wb:ab] = (A_of[:, :, None] * FH[:, None, :r]).reshape(wb, c * r)
    jtj[:wb, ab:] = A_of * FH[:, r:]
    jtj[wb:ab, wb:ab] = np.kron(np.eye(c), HH[:r, :r])
    jtj[wb:ab, ab:] = np.kron(np.eye(c), HH[:r, r:])
    jtj[ab:, ab:] = HH[r, r] * np.eye(c)
    jtj[wb:, :wb] = jtj[:wb, wb:].T
    jtj[ab:, wb:ab] = jtj[wb:ab, ab:].T
    return jtj, grad


def init_mlp(r: int, d: int, c: int, seed: int = 0) -> Mlp:
    """Fresh network: weights U[-s, s] with s = sqrt(1/fan_in) per layer, biases zero."""
    if r < 1 or d < 1 or c < 1:
        raise ValueError("r, d and c must all be >= 1")
    rng = np.random.default_rng(seed)
    s_w = (1.0 / d) ** 0.5
    s_a = (1.0 / r) ** 0.5
    W = rng.uniform(-s_w, s_w, size=(r, d))
    A = rng.uniform(-s_a, s_a, size=(c, r))
    return Mlp(W=W, b=np.zeros(r), A=A, c_out=np.zeros(c))


# Model container (see _io): header fields r, d, c; body float64-LE theta:
#   W (r*d), b (r), A (c*r), c_out (c)

def save_mlp(net: Mlp, path: str) -> None:
    write_container(path, MODEL_MAGIC, MODEL_VERSION, (net.r, net.d, net.c), net.theta)


def load_mlp(path: str) -> Mlp:
    (r, d, c), _, theta = read_container(path, MODEL_MAGIC, MODEL_VERSION, 3, "model",
                                         lambda r, d, c: (0, r * d + r + c * r + c))
    try:
        return Mlp.from_flat(theta, r, d, c)
    except ValueError as exc:  # zero dims or non-finite parameters
        raise FormatError(f"{path}: {exc}") from exc
