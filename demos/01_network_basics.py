"""Tour of the network core: the activation, a forward pass, and a gradient check.

Run:  python demos/01_network_basics.py
"""

import numpy as np

from netrecon import Mlp, activation, activation_prime, backward_mse, forward, init_mlp, mse_loss

# The hidden activation is softplus(z) + sigmoid(4z): smooth, monotone, and
# asymmetric, so a neuron and its sign-flipped twin are distinguishable.
print("activation at a few points:")
for z in (-50.0, -2.0, 0.0, 2.0, 50.0):
    print(f"  g({z:6.1f}) = {activation(z):.12g}    g'({z:6.1f}) = {activation_prime(z):.12g}")
print(f"  g(0) equals ln(2) + 1/2: {np.isclose(activation(0.0), np.log(2) + 0.5)}")

# A small random network and one batched forward pass.
rng = np.random.default_rng(0)
net = init_mlp(r=4, d=6, c=3, seed=1)
X = rng.normal(size=(5, 6))
trace = forward(net, X)
print(f"\nforward pass: pre {trace.pre.shape}, hidden {trace.hidden.shape}, "
      f"out {trace.out.shape}")

# All parameters live in one vector theta, in model-file order; W, b, A and
# c_out are views of it, and gradients share the layout.
print(f"parameters: theta has {net.n_params} entries, "
      f"W {net.W.shape} + b {net.b.shape} + A {net.A.shape} + c_out {net.c_out.shape}")

# The backward pass is exact. Compare the gradient against central finite
# differences, one entry of theta at a time.
Y = rng.normal(size=(5, 3))
grad, loss = backward_mse(net, X, Y)
h = 1e-5
numeric = np.zeros_like(grad)
for i in range(net.n_params):
    up, down = net.theta.copy(), net.theta.copy()
    up[i] += h
    down[i] -= h
    numeric[i] = (mse_loss(Mlp.from_flat(up, net.r, net.d, net.c), X, Y)
                  - mse_loss(Mlp.from_flat(down, net.r, net.d, net.c), X, Y)) / (2 * h)
err = np.max(np.abs(grad - numeric) / np.maximum(np.abs(numeric), 1e-8))
print(f"\nloss = {loss:.6f}")
print(f"analytic gradient vs finite differences: worst relative error {err:.2e}")
