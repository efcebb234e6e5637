import hashlib
import math
import pickle
import struct
import zlib

import numpy as np
import pytest
from conftest import peak_while
from scipy.special import expit

from netrecon import network, train
from netrecon.augment import AugmentationSpec, AugmentedSet
from netrecon.data import ImageDataset
from netrecon.errors import FormatError
from netrecon.network import (
    _ROWS,
    _TILE,
    Mlp,
    _gauss_newton,
    _outputs,
    activation,
    activation_prime,
    backprop_from_dout,
    backward_mse,
    forward,
    init_mlp,
    load_mlp,
    mse_loss,
    save_mlp,
)


def shifted(net, i, delta):
    """Copy of `net` with theta[i] moved by `delta`."""
    theta = net.theta.copy()
    theta[i] += delta
    return Mlp.from_flat(theta, net.r, net.d, net.c)


def random_net(rng, r, d, c):
    return Mlp(
        W=rng.normal(size=(r, d)),
        b=rng.normal(size=r),
        A=rng.normal(size=(c, r)),
        c_out=rng.normal(size=c),
    )


class TestActivation:
    def test_value_at_zero(self):
        assert activation(0.0) == pytest.approx(math.log(2) + 0.5, abs=1e-12)

    def test_negative_tail(self):
        # softplus(-50) + sigmoid(-200) ~ exp(-50) ~ 1.93e-22, no overflow
        value = activation(-50.0)
        assert 1.8e-22 < value < 2.1e-22
        assert np.isfinite(value)

    def test_positive_tail(self):
        # softplus -> z and sigmoid -> 1 for large z
        assert activation(50.0) - 50.0 == pytest.approx(1.0, abs=1e-9)

    def test_no_overflow_for_huge_inputs(self):
        z = np.array([-1e4, -100.0, 0.0, 100.0, 1e4])
        for f in (activation, activation_prime):
            assert np.all(np.isfinite(f(z)))

    def test_prime_at_zero(self):
        # sigmoid(0) + 4 * 0.25
        assert activation_prime(0.0) == pytest.approx(1.5, abs=1e-12)

    def test_prime_matches_finite_differences(self):
        h = 1e-5
        for z in (-2.0, -0.3, 0.7, 3.0):
            numeric = (activation(z + h) - activation(z - h)) / (2 * h)
            assert activation_prime(z) == pytest.approx(numeric, rel=1e-6)

    def test_strictly_increasing(self):
        z = np.linspace(-20, 20, 4001)
        assert np.all(activation_prime(z) > 0)

    def test_elementwise_shape(self):
        z = np.arange(12.0).reshape(3, 4)
        assert activation(z).shape == (3, 4)
        assert activation_prime(z).shape == (3, 4)

    def test_matches_expit_formulas(self):
        # the textbook forms, evaluated with scipy's expit, as the reference
        z = np.linspace(-40.0, 40.0, 400001)
        s, s4 = expit(z), expit(4.0 * z)
        value = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) + s4
        slope = s + 4.0 * s4 * (1.0 - s4)
        assert np.max(np.abs(activation(z) - value) / value) <= 2e-15
        assert np.max(np.abs(activation_prime(z) - slope) / slope) <= 2e-15

    @pytest.mark.parametrize("z", [-40.0, -100.0, -700.0])
    def test_prime_far_negative_tail(self, z):
        assert activation_prime(z) == pytest.approx(math.exp(z) + 4 * math.exp(4 * z),
                                                    rel=1e-14)


def one_call_activate(z, slope):
    """The activation kernel as one whole-array call, the reference for the tiled one."""
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e4 = np.square(e)
    np.square(e4, out=e4)
    u = np.greater_equal(z, 0.0, out=np.empty_like(z))
    g = None
    if slope:
        den = np.add(e, 1.0)
        g = np.maximum(e, u)
        g /= den
        np.add(e4, 1.0, out=den)
        ds4 = np.divide(e4, den)
        ds4 /= den
        ds4 *= 4.0
        g += ds4
    out = np.log1p(e, out=e)
    np.maximum(e4, u, out=u)
    np.add(e4, 1.0, out=e4)
    np.divide(u, e4, out=u)
    out += np.maximum(z, 0.0, out=e4)
    out += u
    return out, g


class TestTiles:
    """The activation runs over flat tiles of `_TILE` elements with one call's bytes."""

    @pytest.mark.parametrize("shape", [(_TILE - 1,), (_TILE,), (_TILE + 1,),
                                       (3 * _TILE + 7,), (37, 1001)])
    @pytest.mark.parametrize("slope", [False, True])
    def test_matches_one_call(self, shape, slope):
        z = np.random.default_rng(shape[-1]).normal(scale=10.0, size=shape)
        flat = z.reshape(-1)
        flat[:6] = flat[-6:] = [-745.0, -40.0, 0.0, 40.0, 710.0, -0.0]
        g = np.empty(z.shape) if slope else None
        out = network._activate(z, g=g)
        want, want_g = one_call_activate(z, slope)
        assert out.shape == z.shape
        assert out.tobytes() == want.tobytes()
        if slope:
            assert g.tobytes() == want_g.tobytes()

    def test_peak_is_the_result_and_two_tiles(self):
        z = np.random.default_rng(0).normal(size=(1024, 512))
        out, peak = peak_while(network._activate, z)
        assert out.shape == z.shape
        assert peak < z.nbytes + 8 * _TILE * 8, peak


class TestForward:
    def test_zero_network(self):
        net = Mlp(W=np.zeros((3, 4)), b=np.zeros(3), A=np.zeros((2, 3)),
                  c_out=np.zeros(2))
        trace = forward(net, np.random.default_rng(0).normal(size=(5, 4)))
        assert np.allclose(trace.out, 0.0)
        assert np.allclose(trace.hidden, activation(0.0))

    def test_scalar_composition(self):
        net = Mlp(W=[[1.0]], b=[0.0], A=[[1.0]], c_out=[0.0])
        trace = forward(net, np.array([[0.0]]))
        assert trace.out[0, 0] == pytest.approx(math.log(2) + 0.5, abs=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(42)
        net = random_net(rng, r=4, d=5, c=3)
        X = rng.normal(size=(3, 5))
        got = forward(net, X).out
        for n in range(3):
            for k in range(3):
                expected = net.c_out[k]
                for i in range(4):
                    pre = net.b[i]
                    for j in range(5):
                        pre += net.W[i, j] * X[n, j]
                    expected += net.A[k, i] * float(activation(pre))
                assert abs(got[n, k] - expected) < 1e-12

    def test_hidden_equals_activation_of_pre(self):
        rng = np.random.default_rng(3)
        net = random_net(rng, 6, 4, 2)
        trace = forward(net, rng.normal(size=(7, 4)))
        assert np.max(np.abs(trace.hidden - activation(trace.pre))) < 1e-12

    def test_shape_mismatch(self):
        net = init_mlp(3, 4, 2, seed=0)
        with pytest.raises(ValueError):
            forward(net, np.zeros((5, 7)))

    def test_backprop_of_the_forward_trace_is_the_mse_gradient(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 6, 4, 2)
        X = 4.0 * rng.normal(size=(9, 4))
        Y = rng.normal(size=(9, 2))
        trace = forward(net, X)
        grad = backprop_from_dout(net, trace, X, (2.0 / 9) * (trace.out - Y))
        assert grad.tobytes() == backward_mse(net, X, Y)[0].tobytes()

    def test_backprop_takes_inputs_as_nested_lists(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, 5, 3, 2)
        X = rng.normal(size=(4, 3))
        trace, dout = forward(net, X), rng.normal(size=(4, 2))
        assert backprop_from_dout(net, trace, X.tolist(), dout).tobytes() == \
            backprop_from_dout(net, trace, X, dout).tobytes()

    @pytest.mark.parametrize("B, d, r", [(256, 784, 2048), (1024, 784, 512)])
    def test_weight_gradient_has_the_bytes_of_dpre_t_x(self, blas_threads, B, d, r):
        # dW is formed as Xᵀ·dpre into dWᵀ; the goldens pin desk shapes only
        rng = np.random.default_rng(B + r)
        net = init_mlp(r, d, 10, seed=2)
        X, dout = rng.normal(size=(B, d)), rng.normal(size=(B, 10))
        hidden, slope, dpre = rng.normal(size=(B, r)), rng.normal(size=(B, r)), np.empty((B, r))
        grad = np.empty(net.n_params)
        network._backprop_into(net, X, hidden, slope, dout, dpre, grad)
        assert net.blocks(grad)[0].tobytes() == (dpre.T @ X).tobytes()


class TestRowBlocks:
    """Full-set passes run in blocks of `_ROWS` rows and keep the one-shot bytes."""

    @pytest.mark.parametrize("Q", [1000, 2 * _ROWS, 2 * _ROWS + 1, 3 * _ROWS - 1, 4 * _ROWS])
    @pytest.mark.parametrize("side, r", [(5, 4), (5, 16), (28, 512)])
    def test_passes_match_one_forward(self, blas_threads, side, r, Q):
        rng = np.random.default_rng(Q + r)
        net = init_mlp(r, side * side, 10, seed=1)
        X = rng.normal(size=(Q, side * side))
        Y = rng.normal(size=(Q, 10))
        labels = rng.integers(0, 10, size=Q)
        out = forward(net, X).out
        err = out - Y
        assert _outputs(net, X).tobytes() == out.tobytes()
        assert mse_loss(net, X, Y) == float(np.sum(err * err) / Q)
        ds = ImageDataset(images=X, labels=labels, height=side, width=side)
        assert train.accuracy(net, ds) == float(np.mean(out.argmax(axis=1) == labels))
        with train._one_blas_thread():  # the thread count query_teacher pins
            pinned = forward(net, X).out
        aug = AugmentedSet(inputs=X, source_indices=np.arange(Q),
                           spec=AugmentationSpec("identity"))
        assert train.query_teacher(net, aug).targets.tobytes() == pinned.tobytes()

    def test_a_narrow_net_takes_blocks_of_rows(self, monkeypatch):
        net = init_mlp(4, 25, 10, seed=0)
        X = np.random.default_rng(4).normal(size=(6144, 25))
        calls = []

        def counting(*args, _real=network._preactivations):
            calls.append(args[1].shape)
            return _real(*args)

        monkeypatch.setattr(network, "_preactivations", counting)
        out = _outputs(net, X)
        assert calls == [(_ROWS, 25)] * 6
        assert out.tobytes() == forward(net, X).out.tobytes()

    def test_rejects_inputs_of_the_wrong_width(self):
        net = init_mlp(3, 4, 2, seed=0)
        with pytest.raises(ValueError, match="X must have shape"):
            _outputs(net, np.zeros((3 * _ROWS, 5)))

    def test_eval_peak_does_not_grow_with_Q(self):
        r, d, c = 512, 16, 3
        net = init_mlp(r, d, c, seed=0)
        peaks = []
        for Q in (4 * _ROWS, 16 * _ROWS):
            rng = np.random.default_rng(Q)
            X, Y = rng.normal(size=(Q, d)), rng.normal(size=(Q, c))
            loss, peak = peak_while(mse_loss, net, X, Y)
            assert np.isfinite(loss)
            # the outputs: the residual and its square come after the block's array is freed
            peaks.append(peak - Q * c * 8)
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
        # one block's hidden-layer array, which first holds its pre-activations
        assert max(peaks) < _ROWS * r * 8 + 8 * _TILE * 8, peaks


class TestBackwardMse:
    def test_perfect_fit_zero_gradients(self):
        rng = np.random.default_rng(7)
        net = random_net(rng, 3, 4, 2)
        X = rng.normal(size=(6, 4))
        Y = forward(net, X).out
        grad, loss = backward_mse(net, X, Y)
        assert loss == 0.0
        assert grad.shape == net.theta.shape
        assert np.max(np.abs(grad)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = random_net(rng, 3, 4, 2)
        X = rng.normal(size=(5, 4))
        Y = rng.normal(size=(5, 2))
        grad, _ = backward_mse(net, X, Y)
        h = 1e-5
        numeric = np.zeros_like(grad)
        for i in range(net.n_params):
            up = mse_loss(shifted(net, i, h), X, Y)
            down = mse_loss(shifted(net, i, -h), X, Y)
            numeric[i] = (up - down) / (2 * h)
        for attr, analytic, num in zip(("W", "b", "A", "c_out"), net.blocks(grad),
                                       net.blocks(numeric)):
            assert np.allclose(analytic, num, rtol=1e-5, atol=1e-8), attr

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(13)
        net = random_net(rng, 3, 4, 2)
        X = rng.normal(size=(5, 4))
        out = forward(net, X).out
        Y = rng.normal(size=(5, 2))
        _, loss = backward_mse(net, X, Y)
        _, loss_doubled = backward_mse(net, X, 2 * Y - out)
        assert loss_doubled == pytest.approx(4 * loss, rel=1e-9)

    def test_batch_decomposability(self):
        rng = np.random.default_rng(17)
        net = random_net(rng, 4, 3, 2)
        X = rng.normal(size=(8, 3))
        Y = rng.normal(size=(8, 2))
        per_sample = [mse_loss(net, X[i:i + 1], Y[i:i + 1]) for i in range(8)]
        assert mse_loss(net, X, Y) == pytest.approx(np.mean(per_sample), abs=1e-12)

    def test_no_nan_for_large_preactivations(self):
        net = Mlp(W=np.full((2, 2), 100.0), b=[0.0, 0.0],
                  A=np.ones((1, 2)), c_out=[0.0])
        X = np.array([[1e2, 1e2], [-1e2, -1e2]])
        trace = forward(net, X)
        assert np.all(np.isfinite(trace.out))


class TestGaussNewton:
    """The structured normal equations equal those of the explicit Jacobian."""

    @pytest.mark.parametrize("Q", [50, 2 * _ROWS + 7])
    def test_matches_the_finite_difference_jacobian(self, Q):
        rng = np.random.default_rng(19)
        net = random_net(rng, 3, 4, 2)
        X = rng.normal(size=(Q, 4))
        Y = rng.normal(size=(Q, 2))
        jtj, jte = _gauss_newton(net, X, Y)
        h = 1e-6
        J = np.column_stack([(forward(shifted(net, i, h), X).out
                              - forward(shifted(net, i, -h), X).out).ravel() / (2 * h)
                             for i in range(net.n_params)])
        err = (forward(net, X).out - Y).ravel()
        assert np.allclose(jtj, J.T @ J, rtol=1e-6, atol=1e-6 * np.abs(J.T @ J).max())
        assert np.allclose(jte, J.T @ err, rtol=1e-6, atol=1e-6 * np.abs(J.T @ err).max())
        assert np.array_equal(jtj, jtj.T)

    def test_gradient_is_half_the_loss_gradient_times_q(self):
        rng = np.random.default_rng(23)
        net = random_net(rng, 4, 3, 2)
        X = rng.normal(size=(40, 3))
        Y = rng.normal(size=(40, 2))
        grad, _ = backward_mse(net, X, Y)
        assert np.allclose(_gauss_newton(net, X, Y)[1], grad * 40 / 2, rtol=1e-12)

    @staticmethod
    def reference(net, X, Y):
        """JᵀJ and Jᵀe built block by block from the public forward pass, slope and
        backprop, with `_gauss_newton`'s own sums and assembly."""
        r, d, c = net.r, net.d, net.c
        rd, wb, ab = r * d, r * (d + 1), r * (d + 1) + c * r
        jtj, grad = np.zeros((net.n_params, net.n_params)), np.zeros(net.n_params)
        FH, HH = np.zeros((wb, r + 1)), np.zeros((r + 1, r + 1))
        for rows in network._row_blocks(len(X)):
            trace = forward(net, X[rows])
            slope = activation_prime(trace.pre)
            F = np.empty((len(slope), wb))
            np.multiply(slope[:, :, None], X[rows, None, :], out=F[:, :rd].reshape(-1, r, d))
            F[:, rd:] = slope
            H = np.hstack([trace.hidden, np.ones((len(slope), 1))])
            jtj[:wb, :wb] += F.T @ F
            FH += F.T @ H
            HH += H.T @ H
            grad += backprop_from_dout(net, trace, X[rows], trace.out - Y[rows])
        neuron = np.concatenate([np.repeat(np.arange(r), d), np.arange(r)])
        jtj[:wb, :wb] *= (net.A.T @ net.A)[np.ix_(neuron, neuron)]
        A_of = net.A.T[neuron]
        jtj[:wb, wb:ab] = (A_of[:, :, None] * FH[:, None, :r]).reshape(wb, c * r)
        jtj[:wb, ab:] = A_of * FH[:, r:]
        jtj[wb:ab, wb:ab] = np.kron(np.eye(c), HH[:r, :r])
        jtj[wb:ab, ab:] = np.kron(np.eye(c), HH[:r, r:])
        jtj[ab:, ab:] = HH[r, r] * np.eye(c)
        jtj[wb:, :wb] = jtj[:wb, wb:].T
        jtj[ab:, wb:ab] = jtj[wb:ab, ab:].T
        return jtj, grad

    @pytest.mark.parametrize("r,d,c,Q", [(3, 16, 2, 500), (4, 25, 10, 2 * _ROWS + 7),
                                         (2, 784, 10, 3 * _ROWS)])
    def test_one_activation_pass_per_block_gives_the_reference_bytes(self, monkeypatch,
                                                                    r, d, c, Q):
        rng = np.random.default_rng(r * d + c)
        net = random_net(rng, r, d, c)
        X, Y = rng.normal(size=(Q, d)), rng.normal(size=(Q, c))
        want = self.reference(net, X, Y)
        real, calls = network._activate, []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(network, "_activate", counting)
        jtj, jte = _gauss_newton(net, X, Y)
        assert calls == [(rows.stop - rows.start, r) for rows in network._row_blocks(Q)]
        assert jtj.tobytes() == want[0].tobytes() and jte.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("c", [1, 3])
    def test_rejects_targets_of_the_wrong_shape(self, c):
        # a (Q, 1) target would broadcast against (Q, 2) logits without the check
        rng = np.random.default_rng(29)
        net = random_net(rng, 4, 3, 2)
        with pytest.raises(ValueError, match="targets must have shape"):
            _gauss_newton(net, rng.normal(size=(40, 3)), rng.normal(size=(40, c)))


class TestInit:
    def test_deterministic(self):
        a = init_mlp(4, 6, 3, seed=5)
        b = init_mlp(4, 6, 3, seed=5)
        for attr in ("W", "b", "A", "c_out"):
            assert np.array_equal(getattr(a, attr), getattr(b, attr))

    def test_biases_zero(self):
        net = init_mlp(4, 6, 3, seed=1)
        assert np.all(net.b == 0.0)
        assert np.all(net.c_out == 0.0)

    def test_uniform_moments(self):
        # U[-s, s] has standard deviation s / sqrt(3)
        net = init_mlp(200, 500, 1, seed=2)  # 1e5 draws
        s = (1.0 / 500) ** 0.5
        assert net.W.std() == pytest.approx(s / np.sqrt(3), rel=0.05)
        assert abs(net.W).max() <= s

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            init_mlp(0, 3, 2)


class TestModelFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(23)
        net = random_net(rng, 5, 7, 3)
        path = str(tmp_path / "net.mlp")
        save_mlp(net, path)
        loaded = load_mlp(path)
        for attr in ("W", "b", "A", "c_out"):
            assert np.array_equal(getattr(net, attr), getattr(loaded, attr))

    def test_forward_identical_after_reload(self, tmp_path):
        rng = np.random.default_rng(29)
        net = random_net(rng, 4, 6, 2)
        X = rng.normal(size=(10, 6))
        path = str(tmp_path / "net.mlp")
        save_mlp(net, path)
        assert np.array_equal(forward(net, X).out, forward(load_mlp(path), X).out)

    def test_dims_vs_payload_mismatch(self, tmp_path):
        net = init_mlp(3, 4, 2, seed=0)
        path = str(tmp_path / "net.mlp")
        save_mlp(net, path)
        blob = bytearray(open(path, "rb").read())
        blob[4 + 4:4 + 12] = (99).to_bytes(8, "little")  # corrupt declared r
        bad = tmp_path / "bad.mlp"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_mlp(str(bad))

    def test_truncated_file(self, tmp_path):
        net = init_mlp(3, 4, 2, seed=0)
        path = str(tmp_path / "net.mlp")
        save_mlp(net, path)
        blob = open(path, "rb").read()
        bad = tmp_path / "trunc.mlp"
        bad.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(FormatError):
            load_mlp(str(bad))

    def test_bad_magic(self, tmp_path):
        bad = tmp_path / "junk.mlp"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError):
            load_mlp(str(bad))

    def test_checksum_detects_corruption(self, tmp_path):
        net = init_mlp(3, 4, 2, seed=0)
        path = str(tmp_path / "net.mlp")
        save_mlp(net, path)
        blob = bytearray(open(path, "rb").read())
        blob[-12] ^= 0xFF  # flip a bit inside the last parameter block
        bad = tmp_path / "bit.mlp"
        bad.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_mlp(str(bad))

    def test_bytes_match_recorded_layout(self, tmp_path):
        # sha256 of this file as written before parameters became one vector
        path = str(tmp_path / "net.mlp")
        save_mlp(init_mlp(3, 4, 2, seed=0), path)
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert digest == "7ecadcc120486125ea4407ea3acf9f766f66d4c920c3455daa600fbf8bc8be3a"

    @staticmethod
    def crafted(tmp_path, r, d, c, theta):
        """A model file with a valid checksum around an arbitrary header and body."""
        body = struct.pack("<IQQQ", 1, r, d, c) + np.asarray(theta, dtype="<f8").tobytes()
        path = tmp_path / "crafted.mlp"
        path.write_bytes(b"NRML" + body + struct.pack("<I", zlib.crc32(body)))
        return str(path)

    def test_zero_dims_rejected(self, tmp_path):
        with pytest.raises(FormatError):
            load_mlp(self.crafted(tmp_path, 0, 0, 0, []))

    def test_non_finite_body_rejected(self, tmp_path):
        theta = init_mlp(3, 4, 2, seed=0).theta.copy()
        theta[5] = np.nan
        with pytest.raises(FormatError):
            load_mlp(self.crafted(tmp_path, 3, 4, 2, theta))


class TestFlatParameters:
    def test_blocks_are_views_in_file_order(self):
        net = random_net(np.random.default_rng(31), 3, 4, 2)
        assert net.theta.shape == (net.n_params,) == (3 * 4 + 3 + 2 * 3 + 2,)
        expected = np.concatenate([net.W.ravel(), net.b, net.A.ravel(), net.c_out])
        assert np.array_equal(net.theta, expected)
        for block in (net.W, net.b, net.A, net.c_out):
            assert np.shares_memory(block, net.theta)

    def test_parameters_are_read_only(self):
        net = init_mlp(3, 4, 2, seed=0)
        with pytest.raises(ValueError):
            net.W[0, 0] = 1.0
        with pytest.raises(ValueError):
            net.theta[0] = 1.0
        with pytest.raises(AttributeError):
            net.W = np.zeros((3, 4))

    def test_constructor_copies_its_inputs(self):
        W = np.ones((2, 3))
        net = Mlp(W=W, b=np.zeros(2), A=np.ones((1, 2)), c_out=np.zeros(1))
        W[0, 0] = 5.0
        assert net.W[0, 0] == 1.0

    def test_pickle_round_trip(self):
        net = random_net(np.random.default_rng(37), 4, 3, 2)
        back = pickle.loads(pickle.dumps(net))
        assert (back.r, back.d, back.c) == (4, 3, 2)
        assert np.array_equal(back.theta, net.theta)
        for block in (back.theta, back.W, back.b, back.A, back.c_out):
            assert not block.flags.writeable
        assert np.shares_memory(back.W, back.theta)

    def test_from_flat_validates(self):
        theta = init_mlp(3, 4, 2, seed=0).theta
        assert np.array_equal(Mlp.from_flat(theta, 3, 4, 2).theta, theta)
        with pytest.raises(ValueError):
            Mlp.from_flat(theta[:-1], 3, 4, 2)
        with pytest.raises(ValueError):
            Mlp.from_flat(np.zeros(2), 0, 5, 2)
        with pytest.raises(ValueError):
            Mlp.from_flat(np.full(theta.size, np.inf), 3, 4, 2)

    def test_constructor_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            Mlp(W=np.zeros((2, 3)), b=np.zeros(3), A=np.zeros((1, 2)), c_out=np.zeros(1))
        with pytest.raises(ValueError):
            Mlp(W=np.zeros((0, 3)), b=np.zeros(0), A=np.zeros((1, 0)), c_out=np.zeros(1))
        with pytest.raises(ValueError):
            Mlp(W=np.zeros((2, 3)), b=[0.0, np.nan], A=np.zeros((1, 2)), c_out=np.zeros(1))
