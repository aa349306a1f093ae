"""Weight profiles and weight matrices of the weakly singular quadratures.

On the equidistant partition every node difference t_k - t_i is (k - i)*h,
so each operator is determined by an O(N) profile of panel weights
W[g] = ((g*h)^e - ((g-1)*h)^e)/gamma, built once here by ``weight_profile``.
The fractional integral uses e = alpha, gamma = Gamma(alpha+1); the L1
Caputo derivative uses e = 1-alpha, gamma = Gamma(2-alpha).

Only left-sided weight matrices are built here.  The right-sided operators
are exactly the left ones flipped in both indices (the kernels mirror under
s -> a + b - s).  Off column 0 each matrix is lower-triangular Toeplitz,
so consumers need not apply it densely: the L1 derivative applies the
profile by convolution, the composition check applies the integral matrix
by convolution with its last row, and the solver applies I_left @ I_right
by two FFT convolutions with that row plus column-0 terms.
"""

import math

import numpy as np

__all__ = ["weight_profile", "integral_weights", "l1_weights"]


def weight_profile(n, h, expo, gamma):
    """Panel weights W[0] = 0, W[g] = ((g*h)^expo - ((g-1)*h)^expo)/gamma
    for g = 1..n-1, from scalar libm pow values."""
    p = np.array([math.pow(g * h, expo) for g in range(n)])
    w = np.zeros(n)
    w[1:] = (p[1:] - p[:-1]) / gamma
    return w


def integral_weights(n, h, alpha, ga1):
    """Left fractional-integral weight matrix on n uniform nodes.

    Row k integrates the kernel (t_k - s)^(alpha-1)/Gamma(alpha) exactly
    against the per-panel arithmetic average of the integrand: the panel
    weight W[g] for gap g = k - i is split equally onto columns i and i+1.
    ``ga1`` is Gamma(alpha+1).  Row 0 is zero; entries above the diagonal
    are zero.
    """
    w = weight_profile(n, h, alpha, ga1)
    v = np.zeros(n)
    v[1 : n - 1] = (w[2:] + w[1 : n - 1]) * 0.5
    out = np.zeros((n, n))
    half_w1 = (0.0 + w[1]) * 0.5
    for k in range(1, n):
        out[k, 1:k] = v[1:k][::-1]
        out[k, 0] = (w[k] + 0.0) * 0.5
        out[k, k] = half_w1
    return out


def l1_weights(n, h, alpha, g2):
    """Left L1 Caputo-derivative matrix on n uniform nodes, alpha < 1.

    Row k applies the exact kernel integral of (t_k - s)^(-alpha) to the
    piecewise-constant difference quotient (x_{i+1} - x_i)/h; with the
    profile B = W for e = 1-alpha the entry coupling is
    C[k, j] = (B[k-j+1] - B[k-j])/h.  ``g2`` is Gamma(2-alpha).

    No run path uses this matrix: ``fracops`` applies the same profile in
    slope form.  It is kept as the dense test oracle for that form.
    """
    b = weight_profile(n, h, 1.0 - alpha, g2)
    u = np.zeros(n)
    u[1 : n - 1] = (b[2:n] - b[1 : n - 1]) / h
    out = np.zeros((n, n))
    diag = (b[1] - 0.0) / h
    for k in range(1, n):
        out[k, 1:k] = u[1:k][::-1]
        out[k, 0] = (0.0 - b[k]) / h
        out[k, k] = diag
    return out
