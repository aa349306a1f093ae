"""Weight profiles, weight matrices and the causal convolution of the
weakly singular quadratures.

On the equidistant partition every node difference t_k - t_i is (k - i)*h,
so each operator is determined by an O(N) profile of panel weights
W[g] = ((g*h)^e - ((g-1)*h)^e)/gamma, built here by ``weight_profile``
and memoized per (n, h, e, gamma).  The fractional integral uses
e = alpha, gamma = Gamma(alpha+1); the L1 Caputo derivative uses
e = 1-alpha, gamma = Gamma(2-alpha).

Only left-sided weight matrices are built here.  The right-sided operators
are exactly the left ones flipped in both indices (the kernels mirror under
s -> a + b - s).  Off column 0 each matrix is lower-triangular Toeplitz,
so consumers need not apply it densely: the L1 derivative and the
composition check apply their Toeplitz symbols with ``causal_convolve``,
and the solver applies I_left @ I_right by two FFT convolutions with the
integral symbol plus column-0 terms.

``causal_convolve`` computes out[k] = sum_{i<=k} b[k-i]*s[i].  Below
``FFT_MIN_NODES`` outputs it is ``np.convolve`` per component, O(N^2).
From there on it is blocked after Hairer, Lubich & Schlichte (SIAM J. Sci.
Stat. Comput. 6, 1985): the index range is halved recursively, and at
each level every left half-block adds its contribution to the right
half-block beside it, directly for blocks shorter than ``LEAF`` and by a
batched real FFT for longer ones, in O(N log^2 N) time.  Each output is
a sum over inputs at or before it only, so the result is exactly causal
bit for bit, and zero input (constant paths have zero slopes) gives exact
zeros.  It runs on one thread and uses no BLAS.
"""

import functools
import math

import numpy as np

__all__ = [
    "weight_profile",
    "profile_convolve",
    "causal_convolve",
    "integral_weights",
    "l1_weights",
]

# below this many outputs np.convolve is faster than the blocked form: the
# measured crossover, for one and two components, lies at 1650-1800
FFT_MIN_NODES = 1700
# half-blocks shorter than this are applied directly, longer ones by FFT
# (run time is flat within 5% for leaves of 16 to 128)
LEAF = 64


@functools.lru_cache(maxsize=4)
def _profile(n, h, expo, gamma):
    """The profile and the per-level kernel blocks of ``causal_convolve``
    for it, filled on first use.  Work at one order on one grid uses two
    profiles (L1 at 1-alpha, integral at alpha); four hold two orders."""
    p = np.array([math.pow(g * h, expo) for g in range(n)])
    w = np.zeros(n)
    w[1:] = (p[1:] - p[:-1]) / gamma
    w.setflags(write=False)
    return w, {}


def weight_profile(n, h, expo, gamma):
    """Panel weights W[0] = 0, W[g] = ((g*h)^expo - ((g-1)*h)^expo)/gamma
    for g = 1..n-1, from scalar libm pow values.  Memoized: repeated
    arguments return the same read-only array."""
    return _profile(n, h, expo, gamma)[0]


def profile_convolve(n, h, expo, gamma, s):
    """``causal_convolve`` of ``weight_profile(n, h, expo, gamma)`` with
    ``s``, reusing the profile's per-level kernel blocks across calls."""
    w, blocks = _profile(n, h, expo, gamma)
    return causal_convolve(w, s, blocks)


def _level_block(b, m):
    """Kernel of the level with half-blocks of length m: the Toeplitz block
    T[k, i] = b[m + k - i] below ``LEAF``, else the real FFT of b[:2m]
    (b taken as zero past its end)."""
    seg = np.zeros(2 * m)
    seg[: min(2 * m, b.shape[0])] = b[: 2 * m]
    if m < LEAF:
        k = np.arange(m)
        return seg[m + k[:, None] - k]
    return np.fft.rfft(seg)


def causal_convolve(b, s, blocks=None):
    """out[k] = sum_{i<=k} b[k-i] * s[i] for k < len(b), per column of the
    2-D ``s`` (at most len(b) rows); returns shape (len(b), s.shape[1]).

    ``blocks`` caches the per-level kernels of ``b`` across calls (a dict
    this function fills); ``None`` builds them for this call only.
    """
    n = b.shape[0]
    if n < FFT_MIN_NODES:
        out = np.empty((n, s.shape[1]))
        for j in range(s.shape[1]):
            out[:, j] = np.convolve(b, s[:, j])[:n]
        return out
    if blocks is None:
        blocks = {}
    c = s.shape[1]
    size = 1 << (n - 1).bit_length()
    x = np.zeros((c, size))
    x[:, : s.shape[0]] = s.T
    # accumulate from +0.0, as np.convolve does: with b[0] = 0 row 0 is +0.0
    out = np.zeros((c, size))
    out += b[0] * x
    m = 1
    while m < n:
        # sibling pairs (half-blocks 2p and 2p+1) whose right half starts below n
        pairs = -(-(n - m) // (2 * m))
        src = x.reshape(c, -1, 2, m)[:, :pairs, 0]
        dst = out.reshape(c, -1, 2, m)[:, :pairs, 1]
        kern = blocks.get(m)
        if kern is None:
            kern = blocks[m] = _level_block(b, m)
        if m < LEAF:
            dst += np.einsum("cpi,ki->cpk", src, kern)
        else:
            dst += np.fft.irfft(np.fft.rfft(src, 2 * m) * kern, 2 * m)[..., m:]
        m *= 2
    return out[:, :n].T


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
