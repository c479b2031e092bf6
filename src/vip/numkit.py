"""Dense linear algebra kernels and a deterministic stream RNG.

Matrices are plain numpy arrays: 2-D, float64, finite. The helpers here do
the shape/finiteness policing so the rest of the package can assume clean
inputs; ``check_value_types`` types every value read from JSON. Randomness
goes through :class:`Rng`, a counter-style generator with named streams;
library code never touches ``numpy.random``.
"""

from __future__ import annotations

import math
import reprlib
import sys

import numpy as np
import scipy.linalg
from scipy.linalg.blas import ddot

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
    x = _mix64(int(seed) + _GOLDEN * (int(stream) + 1))
    return _mix64(x + _GOLDEN)


class Rng:
    """Deterministic pseudorandom stream addressed by ``(seed, stream)``.

    The pair is expanded with splitmix64 into a bank of xorshift64* lane
    states; lanes step in lockstep and are read out in a fixed interleaved
    order, so the k-th raw word depends only on (seed, stream, k). Draw
    requests of any size therefore compose: asking for 60 then 40 variates
    yields exactly the 100 a single request would. The stream keeps what it
    has made but not handed out as one array each: ``_words``, raw words
    from the last lane step, and ``_spare``, the 0 or 1 Box-Muller output
    left by an odd normal request, which the next normal request starts with.

    ``_step`` advances ``_state`` in place, but ``_words`` and ``_spare``
    are only ever replaced by new arrays, never written. So a snapshot
    copies the lane states and keeps references to the other two.
    """

    LANES = 256

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        s = derive_seed(self.seed, self.stream)
        self._state = np.array(
            [_mix64(s + k * _GOLDEN) or _GOLDEN for k in range(1, self.LANES + 1)],
            dtype=np.uint64,
        )
        self._words = np.empty(0, dtype=np.uint64)
        self._spare = np.empty(0)

    def snapshot(self) -> tuple:
        """The stream's position, for ``restore``."""
        return self._state.copy(), self._words, self._spare

    def restore(self, snapshot: tuple) -> None:
        """Return to ``snapshot``'s position; the snapshot can be restored again."""
        state, self._words, self._spare = snapshot
        self._state[...] = state

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
        short = n - self._words.size
        if short > 0:
            self._words = np.concatenate([self._words, self._step(-(-short // self.LANES))])
        out, self._words = self._words[:n], self._words[n:]
        return out

    def uniform(self, n: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """n draws from [low, high), half-open like the raw 53-bit mantissas."""
        if not high > low:
            raise ParameterError(f"uniform needs high > low, got [{low}, {high})")
        u = (self._raw(n) >> np.uint64(11)) * 2.0**-53
        return low + (high - low) * u

    def standard_normal(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError(f"draw count must be >= 0, got {n}")
        k = self._spare.size
        npairs = max(n - k + 1, 0) // 2
        raw = self._raw(2 * npairs)
        # u1 in (0, 1] so the log is finite; u2 in [0, 1).
        u1 = ((raw[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
        u2 = (raw[1::2] >> np.uint64(11)) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        th = (2.0 * np.pi) * u2
        z = np.empty(k + 2 * npairs)
        z[:k] = self._spare
        z[k::2] = r * np.cos(th)
        z[k + 1 :: 2] = r * np.sin(th)
        # a copy, so the spare does not keep z alive
        out, self._spare = z[:n], z[n:].copy()
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates shuffle of arange(n); consumes n-1 uniforms."""
        if n < 0:
            raise ParameterError(f"permutation needs n >= 0, got {n}")
        if n < 2:
            return np.arange(n)
        # j = trunc(u * (i + 1)) for i = n-1 .. 1, one IEEE product each
        js = (self.uniform(n - 1) * np.arange(n, 1, -1)).astype(np.int64).tolist()
        perm = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)


# Read-only zeros for all_finite's dot; 64K doubles, 512 KB.
_ZEROS = np.zeros(1 << 16)
_ZEROS.flags.writeable = False


def all_finite(a: np.ndarray) -> bool:
    """True when no entry of ``a`` is NaN or +-inf; the package's one such test.

    The sum of 0 * a_i is exactly 0 when every a_i is finite and NaN as soon
    as one is NaN or +-inf, and it cannot overflow: one BLAS dot against
    zeros answers, with no temporary for a C-ordered ``a``. It is scipy's ``ddot``, because
    ``ndarray.dot`` warns "invalid value encountered" on a non-finite input.
    Empty arrays, which ``ddot`` rejects, and arrays larger than the zeros
    buffer take ``np.isfinite``; for the latter the data, not the call,
    sets the cost.
    """
    if not 0 < a.size <= _ZEROS.size:
        return bool(np.isfinite(a).all())
    return not math.isnan(ddot(a.ravel(), _ZEROS))


def sum_of_squares(a: np.ndarray) -> float:
    """The sum of a_i ** 2 by one BLAS dot of ``a`` with itself: inf once it
    overflows, so also for a finite ``a`` whose norm exceeds a double's
    range, and inf or NaN for an ``a`` with a non-finite entry. 0 when empty."""
    return ddot(a.ravel(), a.ravel()) if a.size else 0.0


def check_finite(a: np.ndarray, name: str = "array") -> np.ndarray:
    if not all_finite(a):
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


def cholesky(a) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix, made
    in ``a``'s own memory.

    LAPACK ``dpotrf`` on the lower triangle of ``a.T``, i.e. on ``a``'s
    upper triangle; the lower one is never read, so the caller builds the
    matrix exactly symmetric and the factor has the bits of ``dpotrf`` on
    ``a``. For a C-ordered ``a``, ``a.T`` is Fortran-ordered and is
    factored without a copy: the factor returned is ``a.T``, so ``a`` is
    spent and holds L^T. Any other layout, and a read-only ``a``, is
    factored in a copy. A caller that reads ``a`` again passes a copy.

    When ``dpotrf`` stops at a non-positive pivot, ``info`` names it and the
    factor's diagonal holds the offending value, so the error reports which
    pivot failed instead of a bare library code. A NaN pivot, which
    ``dpotrf`` may pass through, is reported the same way. The factor's
    upper triangle is zeroed only on success, so after a failure ``a``'s
    strict lower triangle still holds the input.

    The input must be 2-D, finite and square, checked in that order.
    """
    a = np.require(a, np.float64, "W")
    if a.ndim != 2:
        raise DimensionError(f"cholesky input must be 2-D, got ndim={a.ndim}")
    if not all_finite(a):
        raise NumericalError("cholesky input contains non-finite entries")
    n, m = a.shape
    if n != m:
        raise DimensionError(f"cholesky needs a square matrix, got {n}x{m}")
    L, info = scipy.linalg.lapack.dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
    if info == 0:
        bad = np.flatnonzero(~np.isfinite(np.diagonal(L)))
        info = int(bad[0]) + 1 if bad.size else 0
    if info > 0:
        raise NotPositiveDefiniteError(info - 1, float(L[info - 1, info - 1]))
    for j in range(1, n):  # each a contiguous column of the Fortran-ordered L
        L[:j, j] = 0.0
    return L


def _type_name(default, plural: bool = False) -> str:
    if isinstance(default, (tuple, np.ndarray)):
        return ("lists of " if plural else "a list of ") + _type_name(default[0], True)
    if isinstance(default, str):
        return "strings" if plural else "a string"
    if isinstance(default, int):
        return "integers" if plural else "an integer"
    return "finite numbers" if plural else "a finite number"


def _read_as(value, default):
    """``value`` read as the type of ``default``, or None if it is not of it."""
    if isinstance(value, bool):
        return None  # true/false is never a valid setting, though bool subclasses int
    if isinstance(default, np.ndarray):
        # one pass over the flattened items checks their types, so no bool or
        # string is converted; numpy then converts the numbers in one go
        items = [value]
        for _ in range(default.ndim):
            if not all(type(v) is list for v in items):
                return None
            items = [x for v in items for x in v]
        if not {type(x) for x in items} <= {int, float}:
            return None
        try:
            a = np.array(value, dtype=float)
        except (ValueError, OverflowError):  # ragged, or an integer past the largest double
            return None
        return a if a.ndim == default.ndim and all_finite(a) else None
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            return None
        items = [_read_as(v, default[0]) for v in value]
        return None if any(v is None for v in items) else items
    if isinstance(default, (str, int)):
        return value if isinstance(value, type(default)) else None
    # compared, not converted: an integer too large for a float is not finite
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return float(value) if finite else None


def check_value_types(d: dict, defaults: dict, where: str = "") -> dict:
    """``d``'s values, each read as the type of its key's default; the
    ParameterError names ``where`` and the first key whose value is not.

    An int default takes integers, a float default any finite number (read
    as a float), a str default a string, a tuple default a list of items
    typed like its first entry, and an array default lists nested ndim deep
    around finite numbers (read as a float array). Booleans and null fail.
    """
    out = {key: _read_as(value, defaults[key]) for key, value in d.items()}
    for key, value in out.items():
        if value is None:
            raise ParameterError(
                f"{where}{key} must be {_type_name(defaults[key])}, got {reprlib.repr(d[key])}"
            )
    return out
