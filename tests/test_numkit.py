import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vip import numkit
from vip.errors import DimensionError, NotPositiveDefiniteError, NumericalError, ParameterError
from vip.numkit import Rng, cholesky, derive_seed

import oracles


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_worked_2x2(self):
        # [[4,2],[2,5]] = L L^T with L = [[2,0],[1,2]]
        L = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, 2.0]], rtol=0, atol=1e-15)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.pivot == 1

    def test_nan_pivot_from_finite_input_reported(self):
        # L[2, 0] overflows to inf and L[2, 1] = (0 - inf * 0) / 1 is NaN, so
        # pivot 2 is NaN; dpotrf returns that with info == 0
        a = np.array([[1e-320, 0.0, 1e200], [0.0, 1.0, 0.0], [1e200, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(a)
        assert exc.value.pivot == 2 and np.isnan(exc.value.value)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            cholesky(np.ones((2, 3)))

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            L = cholesky(a.copy())
            assert np.all(np.diag(L) > 0)
            np.testing.assert_allclose(L @ L.T, a, rtol=0, atol=1e-10 * np.abs(a).max())


def _spd(rng, n, cond_shift):
    m = rng.standard_normal((n, n))
    return m @ m.T / n + cond_shift * np.eye(n)


def _column_cholesky(a):
    """Reference: outer-product Cholesky one column at a time; returns
    (factor, None) or (None, (pivot, value)) at the first non-positive pivot."""
    n = a.shape[0]
    L = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - L[j, :j] @ L[j, :j]
        if not d > 0.0:
            return None, (j, d)
        L[j, j] = np.sqrt(d)
        L[j + 1 :, j] = (a[j + 1 :, j] - L[j + 1 :, :j] @ L[j, :j]) / L[j, j]
    return L, None


class TestCholeskyProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
        cond_shift=st.floats(1e-3, 10.0),
        scale=st.floats(1e-3, 1e3),
    )
    def test_matches_lapack_reference(self, n, seed, cond_shift, scale):
        a = scale * _spd(np.random.default_rng(seed), n, cond_shift)
        L = cholesky(a.copy())
        assert np.array_equal(L, np.tril(L))
        ref = scipy.linalg.cholesky(a, lower=True)
        assert np.max(np.abs(L - ref)) <= 1e-12 * np.max(np.abs(ref))
        # the column loop sums in another order: allow rounding growing with n
        loop, _ = _column_cholesky(a)
        assert np.max(np.abs(L - loop)) <= 100 * n * np.finfo(float).eps * np.max(np.abs(loop))

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(0, 60),
        extra=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(1e-2, 10.0),
    )
    def test_indefinite_reports_schur_pivot(self, p, extra, seed, c):
        # SPD leading p x p block; a[p, p] is chosen so that the Schur
        # complement of that block, i.e. the pivot at index p, equals -c
        rng = np.random.default_rng(seed)
        n = p + 1 + extra
        a = _spd(rng, n, 1.0)
        b = a[p, :p]
        a[p, p] = b @ np.linalg.solve(a[:p, :p], b) - c if p else -c
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cholesky(a.copy())
        tol = 1e-9 * max(1.0, abs(a[p, p]))
        assert exc.value.pivot == p
        assert exc.value.value == pytest.approx(-c, abs=tol)
        _, (loop_pivot, loop_value) = _column_cholesky(a)
        assert loop_pivot == p and loop_value == pytest.approx(exc.value.value, abs=tol)


def _factor_outcome(fn, a):
    """The factor's bytes, or the failed pivot and its value's bytes."""
    try:
        return np.ascontiguousarray(fn(a)).tobytes()
    except NotPositiveDefiniteError as e:
        return e.pivot, np.float64(e.value).tobytes()


class TestCholeskyMatchesCopyingLapack:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-1.0, 3.0),
        layout=st.sampled_from(["C", "F", "strided", "reversed", "read-only"]),
    )
    @example(n=60, seed=0, shift=1.0, layout="C")
    @example(n=60, seed=1, shift=-0.5, layout="C")
    @example(n=1, seed=2, shift=-1.0, layout="F")
    @example(n=40, seed=3, shift=1.0, layout="read-only")
    def test_same_factor_and_pivot_error(self, n, seed, shift, layout):
        # an exactly symmetric matrix, positive definite or not by the shift;
        # the factor made in place is bitwise the one a copying dpotrf makes
        # from the lower triangle, and so is the failed pivot
        m = np.random.default_rng(seed).standard_normal((n, n))
        g = m @ m.T / n
        a = g + g.T + shift * np.eye(n)
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "strided":
            big = np.zeros((2 * n, 2 * n))
            big[::2, ::2] = a
            a = big[::2, ::2]
        elif layout == "reversed":
            a = a[::-1, ::-1]
        elif layout == "read-only":
            a.flags.writeable = False
        before, in_place = a.copy(), a.flags.c_contiguous and a.flags.writeable
        want = _factor_outcome(oracles.copying_cholesky, before.copy())
        assert _factor_outcome(cholesky, a) == want
        if in_place:
            # factored in a's memory, or on failure a's strict lower
            # triangle is the input still; any other layout, and a
            # read-only a, is copied
            if isinstance(want, bytes):
                assert np.array_equal(a.T, np.frombuffer(want).reshape(n, n))
            else:
                assert np.array_equal(np.tril(a, -1), np.tril(before, -1))
        else:
            assert a.tobytes() == before.tobytes()


def _reference_input_checks(a):
    """Cholesky's input checks as first written, less the symmetry test that
    LAPACK's contract drops, kept as a test oracle: an n x n ``isfinite``
    pass, then the shape."""
    a = numkit.as_matrix(a, "cholesky input")
    n, m = a.shape
    if n != m:
        raise DimensionError(f"cholesky needs a square matrix, got {n}x{m}")


def _check_outcome(fn, a):
    """(error type, message) of a failed input check, or None if ``a`` passed."""
    try:
        fn(a)
    except NotPositiveDefiniteError:
        return None
    except (DimensionError, NumericalError) as e:
        return type(e), str(e)
    return None


class TestCholeskyInputChecks:
    NON_FINITE = (NumericalError, "cholesky input contains non-finite entries")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(3, 1), (1, 3), (2, 2), (199, 0), (0, 199)])
    def test_non_finite_entry_rejected(self, bad, where):
        a = 4.0 * np.eye(200)
        a[where] = bad
        assert _check_outcome(cholesky, a) == self.NON_FINITE

    def test_order_of_checks(self):
        # not 2-D before non-finite before non-square
        assert _check_outcome(cholesky, np.full((2, 3), np.nan)) == self.NON_FINITE
        assert _check_outcome(cholesky, np.array([[1.0, 5.0, 0.0], [0.0, 1.0, 0.0]])) == (
            DimensionError, "cholesky needs a square matrix, got 2x3"
        )
        assert _check_outcome(cholesky, np.ones(3)) == (
            DimensionError, "cholesky input must be 2-D, got ndim=1"
        )
        assert _check_outcome(cholesky, np.full((2, 2, 2), np.nan)) == (
            DimensionError, "cholesky input must be 2-D, got ndim=3"
        )

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(0, 300),
        wide=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        mag=st.floats(1e-3, 1e6),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        skew=st.sampled_from([0.0, 0.5, 1.0, 1.0 + 1e-6, 3.0]),
    )
    def test_same_outcome_as_the_reference_checks(self, n, wide, seed, mag, special, skew):
        # the skew makes the matrix asymmetric in a random triangle, which
        # neither checks
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n + wide)) * mag
        a = m if wide else (m + m.T) / 2 + (2 * mag * n + 1) * np.eye(n)
        if n and skew:
            i, j = rng.integers(0, n, size=2)
            a[i, j] += skew * 1e-8 * max(1.0, float(np.max(np.abs(a))))
        if n and special is not None:
            a[tuple(rng.integers(0, n, size=2))] = special
        want = _check_outcome(_reference_input_checks, a)
        assert _check_outcome(cholesky, a) == want

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 300),
        seed=st.integers(0, 2**32 - 1),
        lower=st.floats(-1e300, 1e300),
        special=st.sampled_from([None, np.nan, np.inf, -np.inf]),
        upper=st.booleans(),
    )
    def test_lower_triangle_is_not_read(self, n, seed, lower, special, upper):
        # like LAPACK on a.T, the factor comes from the upper triangle alone:
        # any finite values below the diagonal give the same bits; a NaN or
        # inf in either triangle is still rejected
        rng = np.random.default_rng(seed)
        a = _spd(rng, n, 1.0)
        b = a.copy()
        rows, cols = np.tril_indices(n, -1)
        b[rows, cols] = lower * rng.standard_normal(rows.size)
        if special is None or n < 2:
            assert np.array_equal(cholesky(b), cholesky(a))
            return
        i, j = sorted(rng.choice(n, size=2, replace=False))
        b[(i, j) if upper else (j, i)] = special
        assert _check_outcome(cholesky, b) == self.NON_FINITE


class TestRngMoments:
    def test_normal_mean_and_var(self):
        z = Rng(42, 0).standard_normal(1_000_000)
        assert abs(z.mean()) <= 0.005
        assert abs(z.var() - 1.0) <= 0.01

    def test_uniform_mean(self):
        u = Rng(7, 0).uniform(1_000_000, -1.0, 1.0)
        assert abs(u.mean()) <= 0.004
        assert u.min() >= -1.0 and u.max() < 1.0

    def test_uniform_range_halfopen(self):
        u = Rng(0, 0).uniform(10_000, 2.0, 3.0)
        assert np.all((u >= 2.0) & (u < 3.0))

    def test_normal_tail_fraction(self):
        z = Rng(5, 1).standard_normal(200_000)
        frac = np.mean(np.abs(z) > 1.959964)
        assert abs(frac - 0.05) < 0.003


class TestRngStreams:
    def test_deterministic(self):
        a = Rng(123, 4).standard_normal(1000)
        b = Rng(123, 4).standard_normal(1000)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(123, 0).standard_normal(10_000)
        b = Rng(123, 1).standard_normal(10_000)
        assert not np.array_equal(a, b)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_seeds_differ(self):
        a = Rng(0, 0).uniform(10_000)
        b = Rng(1, 0).uniform(10_000)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_draws_compose(self):
        # the k-th variate depends only on (seed, stream, k), not on how
        # requests were chunked
        whole = Rng(9, 2).standard_normal(101)
        r = Rng(9, 2)
        parts = np.concatenate([r.standard_normal(33), r.standard_normal(7), r.standard_normal(61)])
        np.testing.assert_array_equal(whole, parts)

    def test_uniform_draws_compose(self):
        whole = Rng(9, 3).uniform(500)
        r = Rng(9, 3)
        parts = np.concatenate([r.uniform(499), r.uniform(1)])
        np.testing.assert_array_equal(whole, parts)

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 300), min_size=1, max_size=8),
        kind=st.sampled_from(["normal", "uniform"]),
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 10),
    )
    def test_any_split_of_a_request_composes(self, sizes, kind, seed, stream):
        # odd normal requests leave a Box-Muller spare that the next one
        # starts with; every split must still give the single request's bytes
        def draw(r, n):
            return r.standard_normal(n) if kind == "normal" else r.uniform(n, -0.5, 2.0)

        whole = Rng(seed, stream)
        r = Rng(seed, stream)
        parts = np.concatenate([draw(r, n) for n in sizes])
        assert parts.tobytes() == draw(whole, sum(sizes)).tobytes()
        # and the streams are left at the same place
        assert draw(r, 3).tobytes() == draw(whole, 3).tobytes()

    def test_zero_draws(self):
        assert Rng(1).standard_normal(0).shape == (0,)
        assert Rng(1).uniform(0).shape == (0,)

    def test_negative_count_rejected(self):
        with pytest.raises(ParameterError):
            Rng(1).standard_normal(-1)

    def test_bad_uniform_bounds(self):
        with pytest.raises(ParameterError):
            Rng(1).uniform(5, 1.0, 1.0)

    def test_derive_seed_spreads(self):
        vals = {derive_seed(s, t) for s in range(8) for t in range(8)}
        assert len(vals) == 64


class TestPermutation:
    def test_is_permutation(self):
        p = Rng(17, 0).permutation(100)
        np.testing.assert_array_equal(np.sort(p), np.arange(100))

    def test_small_cases(self):
        np.testing.assert_array_equal(Rng(1).permutation(0), np.arange(0))
        np.testing.assert_array_equal(Rng(1).permutation(1), np.arange(1))

    def test_roughly_uniform_first_element(self):
        # first element of a shuffled 4-vector should be ~uniform over 0..3
        counts = np.zeros(4)
        for seed in range(2000):
            counts[Rng(seed, 0).permutation(4)[0]] += 1
        assert counts.min() > 400  # expectation 500 each


class TestShufflesMatchScalarLoops:
    """The list-based shuffle against the numpy-scalar loop it replaced:
    same values, same dtype, same variates consumed."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 3000), seed=st.integers(0, 2**63 - 1), stream=st.integers(0, 9))
    def test_permutation(self, n, seed, stream):
        got_rng, want_rng = Rng(seed, stream), Rng(seed, stream)
        got, want = got_rng.permutation(n), oracles.permutation(want_rng, n)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got_rng.uniform(3), want_rng.uniform(3))


class TestRngMatchesReference:
    """``Rng`` against ``oracles.ReferenceRng``, the offset, parts list and
    normal carry it replaced: any interleaving of requests gives the same
    bytes, dtype and shape, and leaves the lanes in the same state."""

    KINDS = ["uniform", "normal", "permutation"]

    @staticmethod
    def _draw(r, kind, n):
        if kind == "uniform":
            return r.uniform(n, -0.5, 2.0)
        if kind == "normal":
            return r.standard_normal(n)
        return r.permutation(n)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(-(2**63), 2**64),
        stream=st.integers(-(2**63), 2**64),
        requests=st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(0, 1000)),
            min_size=1,
            max_size=12,
        ),
    )
    # odd normal counts around a 256-word block edge, zero-size requests
    # while a spare is held, and a shuffle between two halves of a pair
    @example(
        seed=-1, stream=3,
        requests=[("normal", 1), ("normal", 0), ("uniform", 254), ("normal", 3),
                  ("permutation", 1000), ("normal", 0), ("uniform", 0), ("normal", 511),
                  ("permutation", 7)],
    )
    @example(seed=2**63 - 1, stream=0, requests=[("normal", 513), ("normal", 999)])
    @example(seed=2**64, stream=-1, requests=[("permutation", 1000), ("normal", 1)])
    def test_any_interleaving_matches(self, seed, stream, requests):
        got, want = Rng(seed, stream), oracles.ReferenceRng(seed, stream)
        assert got._state.tobytes() == want._state.tobytes()
        for kind, n in requests:
            a, b = self._draw(got, kind, n), self._draw(want, kind, n)
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
            assert got._state.tobytes() == want._state.tobytes()


class TestRngSnapshot:
    """A restored snapshot replays the stream: the same requests give the
    same bytes and leave the same lane state, however the requests before
    the snapshot left the held words and spare normal."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        before=st.lists(
            st.tuples(st.sampled_from(TestRngMatchesReference.KINDS), st.integers(0, 600)),
            max_size=4,
        ),
        requests=st.lists(
            st.tuples(st.sampled_from(TestRngMatchesReference.KINDS), st.integers(0, 600)),
            min_size=1,
            max_size=10,
        ),
    )
    @example(seed=0, before=[("normal", 1)], requests=[("normal", 255), ("normal", 2)])
    def test_restore_replays_any_interleaving(self, seed, before, requests):
        def run(r):
            out = [TestRngMatchesReference._draw(r, kind, n).tobytes() for kind, n in requests]
            return out, r._state.tobytes()

        r, fresh = Rng(seed, 2), Rng(seed, 2)
        for kind, n in before:
            TestRngMatchesReference._draw(r, kind, n)
            TestRngMatchesReference._draw(fresh, kind, n)
        snap = r.snapshot()
        first = run(r)
        r.restore(snap)
        assert run(r) == first
        # restoring leaves the snapshot as it was, and matches an unbroken stream
        r.restore(snap)
        assert run(r) == first == run(fresh)


class TestMatrixChecks:
    def test_as_matrix_rejects_1d(self):
        with pytest.raises(DimensionError):
            numkit.as_matrix(np.ones(3))

    def test_as_matrix_rejects_nan(self):
        with pytest.raises(Exception):
            numkit.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_as_vector(self):
        v = numkit.as_vector([1, 2, 3])
        assert v.dtype == np.float64
        with pytest.raises(DimensionError):
            numkit.as_vector(np.ones((2, 2)))


# Finite values at the edges of float64: the largest, huge, the smallest
# normal and subnormal, signed zeros; and the three non-finite values.
_EXTREMES = (1.7976931348623157e308, -1.7976931348623157e308, 1e200, -1e200,
             2.2250738585072014e-308, 5e-324, -5e-324, 0.0, -0.0, 1.0)
_NON_FINITE = (np.nan, np.inf, -np.inf)
_LIMIT = numkit._ZEROS.size


def _laid_out(flat: np.ndarray, layout: str) -> np.ndarray:
    """``flat``'s entries as a contiguous, 2-D, transposed or strided array."""
    if layout == "flat":
        return flat
    if layout == "2-d":
        return flat.reshape(1, -1)
    if layout == "transposed":
        return np.column_stack([flat, flat]).T  # each entry twice, not C-contiguous
    wide = np.zeros(2 * flat.size)  # every other entry of a larger array
    wide[::2] = flat
    return wide[::2]


class TestAllFinite:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.one_of(st.integers(0, 40), st.sampled_from([_LIMIT - 1, _LIMIT, _LIMIT + 1])),
        fill=st.lists(st.sampled_from(_EXTREMES), min_size=1, max_size=8),
        bad=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(_NON_FINITE)),
                     max_size=3),
        layout=st.sampled_from(["flat", "2-d", "transposed", "strided"]),
    )
    def test_matches_isfinite(self, n, fill, bad, layout):
        flat = np.resize(np.array(fill), n)
        for where, value in bad:
            if n:
                flat[int(where * n)] = value
        a = _laid_out(flat, layout)
        want = bool(np.isfinite(a).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = numkit.all_finite(a)
        assert got is want

    def test_non_contiguous_views_are_read_in_full(self):
        a = np.ones((6, 4))
        a[5, 3] = np.nan
        assert not numkit.all_finite(a.T)
        assert not numkit.all_finite(a[1::2, 1:])
        assert numkit.all_finite(a[::2])

    def test_zeros_buffer_is_read_only(self):
        assert not numkit._ZEROS.flags.writeable and not numkit._ZEROS.any()
