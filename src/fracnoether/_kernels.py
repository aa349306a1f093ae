"""Weight profiles, weight matrices and the two applies of the weakly
singular quadratures.

On the equidistant partition every node difference t_k - t_i is (k - i)*h,
so each operator is determined by an O(N) profile of panel weights
W[g] = ((g*h)^e - ((g-1)*h)^e)/gamma, built here by ``weight_profile``
and memoized per (n, h, e, gamma).  The fractional integral uses
e = alpha, gamma = Gamma(alpha+1); the L1 Caputo derivative uses
e = 1-alpha, gamma = Gamma(2-alpha).

Only left-sided weight matrices are built here.  The right-sided operators
are exactly the left ones flipped in both indices (the kernels mirror under
s -> a + b - s).  Each is column 0 plus a lower-triangular Toeplitz
symbol, filled by ``_lower_toeplitz`` (which writes the lower triangle
only, over a zeroed array) and read back by ``LowerToeplitz`` only.  Most
of a fill's cost is the kernel zeroing the fresh pages as they are first
written, not the copy.  So from ``_TWO_THREAD_ROWS`` rows on the caller
fills ``LEAF``-row blocks from the top and one short-lived helper thread
from the bottom, until they meet, and both cores fault pages; smaller
fills, such as N = 200, stay on the caller.  Two applies use that layout:

* ``LowerToeplitz`` applies a weight matrix: column 0 times the node-0
  value plus one zero-padded real FFT pair with the symbol, causal to
  rounding.  The solver's I_left @ I_right and the composition check
  apply the integral matrix through it.  The FFT length is the smallest
  2^i 3^j 5^k >= 2N - 1 (``_fft_length``): 6400 at N = 3200, where the
  next power of two is 8192.
* ``causal_convolve`` applies the L1 derivative's profile to slopes,
  exactly causal.  The derivatives call it through ``profile_convolve``,
  which keeps the last ``_KEPT`` results per profile: the one reuse point.

``causal_convolve`` computes out[k] = sum_{i<=k} b[k-i]*s[i], at every
size by one blocked scheme after Hairer, Lubich & Schlichte (SIAM J. Sci.
Stat. Comput. 6, 1985).  One near-field product applies to each
``LEAF``-node block its lower-triangular Toeplitz block; then, for
half-blocks of ``LEAF``, 2*``LEAF``, ... nodes, every left half-block
adds its contribution to the right half-block beside it by a batched real
FFT, in O(N log^2 N) time.  Each output is a sum over inputs at or before
it only, so the result is exactly causal bit for bit, and zero input
(constant paths have zero slopes) gives exact zeros.  It runs on one
thread and uses no BLAS.
"""

import functools
import itertools
import math
import threading

import numpy as np

__all__ = [
    "weight_profile",
    "profile_convolve",
    "causal_convolve",
    "integral_weights",
    "l1_weights",
    "LowerToeplitz",
]

# blocks of this many nodes are applied directly, longer spans by FFT
LEAF = 64
_KEPT = 4  # convolution results kept per profile, the oldest dropped first
# fills of at least this many rows use a helper thread (``_lower_toeplitz``)
_TWO_THREAD_ROWS = 1601


@functools.lru_cache(maxsize=4)
def _profile(n, h, expo, gamma):
    """The profile and its ``causal_convolve`` blocks and results, filled on first use.
    One order on one grid uses the L1 (1-alpha) and integral (alpha)
    profiles; the chain-rule check adds the L1 profile of its new grid."""
    # libm pow per node: np.power is not bit-equal to it
    p = np.fromiter(map(math.pow, (np.arange(n) * h).tolist(), itertools.repeat(expo)), float, n)
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
    ``s``, reusing across calls the profile's convolution blocks and its
    last ``_KEPT`` results, read-only and keyed by the shape and bytes of s."""
    w, blocks = _profile(n, h, expo, gamma)
    key, kept = (s.shape, s.tobytes()), blocks.get("results", ())
    out = dict(kept).get(key)
    if out is None:
        out = causal_convolve(w, s, blocks)
        out.setflags(write=False)
        # one tuple, replaced whole: a concurrent call can at worst drop an entry
        blocks["results"] = (*kept, (key, out))[-_KEPT:]
    return out


def _near_block(b):
    """The Toeplitz block T[k, i] = b[k - i] for i <= k < ``LEAF``, zero
    above the diagonal (b taken as zero past its end)."""
    seg = np.zeros(2 * LEAF)
    seg[LEAF : LEAF + b.shape[0]] = b[:LEAF]
    k = np.arange(LEAF)
    return seg[LEAF + k[:, None] - k]


def causal_convolve(b, s, blocks):
    """out[k] = sum_{i<=k} b[k-i] * s[i] for k < len(b), per column of the
    2-D ``s`` (at most len(b) rows); returns shape (len(b), s.shape[1]).

    ``blocks`` caches the near-field block (key ``"near"``) and the
    per-level FFT kernels (key m) of ``b`` across calls: a dict this
    function fills, empty on the first call for ``b``.
    """
    n = b.shape[0]
    if "near" not in blocks:
        blocks["near"] = _near_block(b)
    c = s.shape[1]
    size = max(LEAF, 1 << (n - 1).bit_length())
    x = np.zeros((c, size))
    x[:, : s.shape[0]] = s.T
    # accumulate from +0.0, so that an output summing to zero is +0.0
    out = np.zeros((c, size))
    lead = -(-n // LEAF)  # blocks that hold an output
    out.reshape(c, -1, LEAF)[:, :lead] += np.einsum(
        "cpi,ki->cpk", x.reshape(c, -1, LEAF)[:, :lead], blocks["near"]
    )
    m = LEAF
    while m < n:
        # sibling pairs (half-blocks 2p and 2p+1) whose right half starts below n
        pairs = -(-(n - m) // (2 * m))
        src = x.reshape(c, -1, 2, m)[:, :pairs, 0]
        dst = out.reshape(c, -1, 2, m)[:, :pairs, 1]
        kern = blocks.get(m)
        if kern is None:
            # b[:2m], zero-padded past its end: every gap from a left to a right half
            kern = blocks[m] = np.fft.rfft(b[: 2 * m], 2 * m)
        dst += np.fft.irfft(np.fft.rfft(src, 2 * m) * kern, 2 * m)[..., m:]
        m *= 2
    return out[:, :n].T


def _copy_block(out, windows, b):
    """Rows b*``LEAF`` .. r1-1 of the lower triangle: columns 0..r1-1 from
    the windows of the same rows."""
    r0 = b * LEAF
    r1 = min(r0 + LEAF, out.shape[0])
    out[r0:r1, :r1] = windows[r0:r1, :r1]


def _lower_toeplitz(column0, symbol):
    """The n x n matrix with ``column0`` (length n) in column 0,
    symbol[k - j] (symbol of length n - 1) at row k, column j for
    1 <= j <= k, and zeros above the diagonal.  Only the lower triangle is
    written: rows r0..r1-1 (``LEAF`` at a time) take columns 0..r1-1 from
    windows of the reversed, zero-padded symbol, and the rest stays the
    zeros of the fresh array.  ``LowerToeplitz`` reads it back.

    From ``_TWO_THREAD_ROWS`` rows on, one helper thread shares the copy.
    Most of its cost is the kernel zeroing the fresh pages on first write,
    not the copy itself, and that then runs on both cores at once.  The
    caller claims blocks from the top and the helper from the bottom, one
    at a time under a lock, until they meet: the two fault pages far
    apart, and a caller whose helper never runs fills every block itself.
    A block gets the same slice whichever thread copies it, so the bytes
    do not depend on the split.  The helper is joined before return, and
    an exception raised in it is raised again here."""
    n = column0.shape[0]
    padded = np.concatenate([[0.0], symbol[::-1], np.zeros(n - 1)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, n)[::-1]
    out = np.zeros((n, n))
    lock = threading.Lock()
    ends = [0, -(-n // LEAF)]  # the next block from the top, one past the next from the bottom
    failures = []

    def fill(top):
        while True:
            with lock:
                if ends[0] >= ends[1]:
                    return
                if top:
                    b = ends[0]
                    ends[0] += 1
                else:
                    ends[1] -= 1
                    b = ends[1]
            _copy_block(out, windows, b)

    def helper():
        try:
            fill(False)
        except BaseException as exc:  # raised again by the caller
            failures.append(exc)

    if n < _TWO_THREAD_ROWS:
        fill(True)
    else:
        thread = threading.Thread(target=helper, name="fracnoether-fill")
        thread.start()
        try:
            fill(True)
        finally:
            thread.join()
        if failures:
            raise failures[0]
    out[:, 0] = column0
    return out


def _fft_length(n):
    """The smallest 2^i 3^j 5^k >= n, for n >= 1: a length numpy's FFT
    splits into radix-2, -3 and -5 passes only."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least p35 * 2^i >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class LowerToeplitz:
    """``matrix @ v`` for an (N+1)^2 weight matrix of this module.

    Column 0 and the symbol t[g] = matrix[N, N-g] (g < N) are read off
    once, as fresh O(N) arrays ``column0`` and ``symbol``, and the
    symbol's real FFT is kept, zero-padded to ``_fft_length(2N - 1)``: then
    the first N entries of the cyclic convolution are free of wrap-around.
    """

    def __init__(self, matrix):
        n = matrix.shape[0]
        self.column0 = matrix[:, 0].copy()
        self.symbol = matrix[n - 1, :0:-1].copy()
        self._nfft = _fft_length(2 * (n - 1) - 1)
        self._spectrum = np.fft.rfft(self.symbol, self._nfft)

    def apply(self, v):
        """``matrix @ v`` along axis 0, for 1-D or 2-D ``v`` of N+1 rows:
        column 0 times v[0] plus the symbol's convolution with rows 1..N."""
        n = self.column0.shape[0]
        conv = np.fft.irfft(np.fft.rfft(v[1:].T, self._nfft) * self._spectrum, self._nfft)
        out = np.multiply.outer(self.column0, v[0])
        out[1:] += conv[..., : n - 1].T
        return out


def integral_weights(n, h, alpha, ga1):
    """Left fractional-integral weight matrix on n uniform nodes.

    Row k integrates the kernel (t_k - s)^(alpha-1)/Gamma(alpha) exactly
    against the per-panel arithmetic average of the integrand: the panel
    weight W[g] for gap g = k - i is split equally onto columns i and i+1.
    ``ga1`` is Gamma(alpha+1).  Row 0 is zero; entries above the diagonal
    are zero.
    """
    w = weight_profile(n, h, alpha, ga1)
    return _lower_toeplitz((w + 0.0) * 0.5, (w[1:] + w[:-1]) * 0.5)


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
    return _lower_toeplitz((0.0 - b) / h, (b[1:] - b[:-1]) / h)
