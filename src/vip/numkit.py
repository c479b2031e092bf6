"""Dense linear algebra kernels and a deterministic stream RNG.

Matrices are plain numpy arrays: 2-D, float64, finite. The helpers here do
the shape/finiteness policing so the rest of the package can assume clean
inputs. Randomness goes through :class:`Rng`, a counter-style generator with
named streams; library code never touches ``numpy.random``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from .errors import DimensionError, NotPositiveDefiniteError, NumericalError, ParameterError

# Package-wide stream registry. Every consumer of randomness draws from its
# own stream of the master seed so adding draws in one place cannot shift
# another (e.g. changing epoch count must not move the data split).
STREAM_INIT = 1
STREAM_DRAWS = 2
STREAM_SHUFFLE = 3
STREAM_SPLIT = 4
STREAM_PREDICT = 5
STREAM_DATA = 6
STREAM_GRID = 7

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_XS_MULT = np.uint64(0x2545F4914F6CDD1D)


def _mix64(z: int) -> int:
    """splitmix64 finalizer on python ints (keeps wrap-around explicit)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, stream: int) -> int:
    """Mix ``(seed, stream)`` into one 64-bit value.

    Two rounds of the splitmix64 finalizer so that low-entropy inputs
    (seed=0, stream=1, ...) still land far apart.
    """
    x = (int(seed) + _GOLDEN * (int(stream) + 1)) & _MASK64
    x = _mix64(x)
    return _mix64((x + _GOLDEN) & _MASK64)


class Rng:
    """Deterministic pseudorandom stream addressed by ``(seed, stream)``.

    The pair is expanded with splitmix64 into a bank of xorshift64* lane
    states; lanes step in lockstep and are read out in a fixed interleaved
    order, so the k-th raw word depends only on (seed, stream, k). Draw
    requests of any size therefore compose: asking for 60 then 40 variates
    yields exactly the 100 a single request would. Box-Muller consumes raw
    words in pairs and both outputs are used (the spare is carried over).
    """

    LANES = 256

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        s = derive_seed(self.seed, self.stream)
        lanes = []
        for _ in range(self.LANES):
            s = (s + _GOLDEN) & _MASK64
            lane = _mix64(s)
            lanes.append(lane if lane else _GOLDEN)
        self._state = np.array(lanes, dtype=np.uint64)
        self._buf = np.empty(0, dtype=np.uint64)
        self._pos = 0
        self._norm_carry: float | None = None

    def _step(self, nsteps: int) -> np.ndarray:
        """Advance all lanes ``nsteps`` times; returns nsteps*LANES raw words."""
        s = self._state
        out = np.empty((nsteps, self.LANES), dtype=np.uint64)
        for i in range(nsteps):
            s ^= s >> np.uint64(12)
            s ^= s << np.uint64(25)
            s ^= s >> np.uint64(27)
            out[i] = s * _XS_MULT
        return out.reshape(-1)

    def _raw(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError(f"draw count must be >= 0, got {n}")
        parts = []
        avail = self._buf.size - self._pos
        take = min(avail, n)
        if take:
            parts.append(self._buf[self._pos : self._pos + take])
            self._pos += take
            n -= take
        if n > 0:
            block = self._step(-(-n // self.LANES))
            parts.append(block[:n])
            self._buf = block
            self._pos = n
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return parts[0].copy() if len(parts) == 1 else np.concatenate(parts)

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n draws from [low, high), half-open like the raw 53-bit mantissas."""
        if not high > low:
            raise ParameterError(f"uniform needs high > low, got [{low}, {high})")
        u = (self._raw(n) >> np.uint64(11)) * 2.0**-53
        return low + (high - low) * u

    def standard_normal(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError(f"draw count must be >= 0, got {n}")
        out = np.empty(n)
        i = 0
        if self._norm_carry is not None and n > 0:
            out[0] = self._norm_carry
            self._norm_carry = None
            i = 1
        rem = n - i
        if rem == 0:
            return out
        npairs = (rem + 1) // 2
        raw = self._raw(2 * npairs)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        th = (2.0 * np.pi) * u2
        z = np.empty(2 * npairs)
        z[0::2] = r * np.cos(th)
        z[1::2] = r * np.sin(th)
        out[i:] = z[:rem]
        if rem % 2 == 1:
            self._norm_carry = float(z[rem])
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n); consumes n-1 uniforms."""
        perm = np.arange(n)
        if n < 2:
            return perm
        u = self.uniform(n - 1)
        for k, i in enumerate(range(n - 1, 0, -1)):
            j = int(u[k] * (i + 1))
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def choose_sorted(self, m: int, k: int) -> np.ndarray:
        """k distinct values from {0..m-1}, sorted. Partial Fisher-Yates."""
        if not 0 <= k <= m:
            raise ParameterError(f"cannot choose {k} from {m}")
        pool = np.arange(m)
        if k == 0:
            return pool[:0]
        u = self.uniform(k)
        for t in range(k):
            j = t + int(u[t] * (m - t))
            pool[t], pool[j] = pool[j], pool[t]
        return np.sort(pool[:k])


def check_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(a)):
        raise NumericalError(f"{name} contains non-finite entries")
    return a


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array; scalars and 1-D inputs are rejected."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={out.ndim}")
    return check_finite(out, name)


def as_vector(a, name: str = "vector") -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={out.ndim}")
    return check_finite(out, name)


def _asymmetry(a: np.ndarray) -> float:
    """max |a - a.T| of a square matrix, 128 rows at a time.

    Block rows r0:r1 are compared against columns :r1 only, which covers
    every (i, j) pair on or below the diagonal, and |a_ij - a_ji| is the
    same rounded value for a pair and its mirror. No n x n temporary.
    """
    worst = 0.0
    n = a.shape[0]
    for r0 in range(0, n, 128):
        r1 = min(r0 + 128, n)
        d = a[r0:r1, :r1] - a[:r1, r0:r1].T
        worst = max(worst, float(np.abs(d, out=d).max()))
    return worst


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    LAPACK ``dpotrf`` on the lower triangle of a copy of ``a``. When it stops
    at a non-positive pivot, ``info`` names it and the factor's diagonal
    holds the offending value, so the error reports which pivot failed
    instead of a bare library code. A NaN pivot, which ``dpotrf`` may pass
    through, is reported the same way.

    The input must be finite, square and symmetric to 1e-8 of
    max(1, max|a|), checked in that order. The checks take two reductions
    and one blocked pass over ``a`` and allocate no n x n temporary.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"cholesky input must be 2-D, got ndim={a.ndim}")
    # NaN propagates through max and min, so two finite extremes mean a
    # finite matrix, and they give max|a| without an abs temporary
    hi, lo = (float(a.max()), float(a.min())) if a.size else (0.0, 0.0)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NumericalError("cholesky input contains non-finite entries")
    n, m = a.shape
    if n != m:
        raise DimensionError(f"cholesky needs a square matrix, got {n}x{m}")
    if _asymmetry(a) > 1e-8 * max(1.0, hi, -lo):
        raise ParameterError("cholesky input is not symmetric")
    L, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)
    if info == 0:
        bad = np.flatnonzero(~np.isfinite(np.diagonal(L)))
        info = int(bad[0]) + 1 if bad.size else 0
    if info > 0:
        raise NotPositiveDefiniteError(info - 1, float(L[info - 1, info - 1]))
    return L


def chol_solve(L, b) -> np.ndarray:
    """Solve (L L^T) x = b given the lower factor ``cholesky`` returned.

    That factor is finite with a positive diagonal, so the two LAPACK
    triangular solves run without input checks. A non-finite ``b`` (say,
    an overflowed product) gives a non-finite result for the caller to report.
    """
    z = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
    return scipy.linalg.solve_triangular(L, z, lower=True, trans="T", check_finite=False)
