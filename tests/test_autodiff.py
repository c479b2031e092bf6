import math
import os
import subprocess
import sys
import warnings
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import vip
from vip import autodiff as ad
from vip.errors import ContractError, DimensionError, NumericalError
from vip.data import synth_toy
from vip.inference import SOFTPLUS_INV_ONE, TrainConfig, energy_loss, train
from vip.numkit import Rng
from vip.priors import init_prior, kernel_normaliser, sample_functions

from oracles import grad_check


def overflows():
    """numpy's warning for an op that overflows outside train's np.errstate,
    given before the op raises its NumericalError."""
    return pytest.warns(RuntimeWarning, match="^overflow encountered in ")


def test_product_of_a_var_with_itself_sums_both_contributions():
    # both of mul's gradient contributions land on x: g*x + g*x, which is
    # exactly (2x)*g, as doubling is exact
    rng = np.random.default_rng(4)
    x0, w = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
    tape = ad.Tape()
    x = tape.leaf(x0, requires_grad=True)
    g = ad.backward(ad.dot(ad.mul(x, x), tape.constant(w)))[x.nid]
    assert g.tobytes() == (w * x0 + w * x0).tobytes()
    assert g.tobytes() == (2.0 * x0 * w).tobytes()


def test_matmul_chain_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def build(tape, v):
        p = ad.matmul(v, tape.constant(b))
        return ad.vsum(ad.mul(p, p))

    assert grad_check(build, a0) < 1e-6


class TestPerOpGradients:
    """Central finite differences on every op at random points, rel err <= 1e-5."""

    CASES = {
        "add": lambda t, v: ad.add(v, t.constant(np.full(v.shape, 0.3))),
        "sub": lambda t, v: ad.sub(t.constant(np.full(v.shape, 0.3)), v),
        "mul": lambda t, v: ad.mul(v, ad.add(v, t.constant(np.full(v.shape, 1.5)))),
        "matmul": lambda t, v: ad.matmul(v, ad.transpose(v)),
        "transpose": lambda t, v: ad.mul(ad.transpose(v), ad.transpose(v)),
        "reshape": lambda t, v: ad.matmul(
            ad.reshape(ad.matmul(v, t.constant(np.arange(12.0).reshape(3, 4) / 10.0)), (4, 3)), v
        ),
        "scale": lambda t, v: ad.scale(v, -1.7),
        "mul_self": lambda t, v: ad.mul(v, v),
        "exp": lambda t, v: ad.vexp(v),
        "log": lambda t, v: ad.vlog(ad.add(ad.mul(v, v), t.constant(np.full(v.shape, 0.5)))),
        "tanh": lambda t, v: ad.vtanh(v),
        "relu": lambda t, v: ad.relu(v),
        "softplus": lambda t, v: ad.softplus(v),
        "dot": lambda t, v: ad.dot(v, ad.vtanh(v)),
        "broadcast_add_row": lambda t, v: ad.broadcast_add_row(
            ad.matmul(t.constant(np.ones((4, v.shape[0]))), v), _first_row(t, v)
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_gradient(self, name):
        # crc32, not hash(): hash() is salted per process
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        worst = 0.0
        for _ in range(20):
            point = rng.standard_normal((3, 3)) * 1.3
            # keep relu inputs away from the kink so the difference quotient is clean
            if name == "relu":
                point = point + np.sign(point) * 0.05
            op = self.CASES[name]

            def build(tape, v, op=op):
                out = op(tape, v)
                return out if out.value.shape == (1, 1) else ad.vsum(out)

            worst = max(worst, grad_check(build, point))
        assert worst <= 1e-5


def _first_row(tape, v):
    # (1,n) selector built from the op set itself
    e = np.zeros((1, v.shape[0]))
    e[0, 0] = 1.0
    return ad.matmul(tape.constant(e), v)


def test_relu_derivative_at_zero_is_zero():
    tape = ad.Tape()
    x = tape.leaf(np.array([[0.0, -1.0, 2.0]]), requires_grad=True)
    grads = ad.backward(ad.vsum(ad.relu(x)))
    np.testing.assert_array_equal(grads[x.nid], [[0.0, 0.0, 1.0]])


def test_softplus_is_stable_for_large_inputs():
    tape = ad.Tape()
    x = tape.leaf(np.array([[800.0, -800.0]]), requires_grad=True)
    out = ad.softplus(x)
    assert out.value[0, 0] == pytest.approx(800.0)
    assert out.value[0, 1] == pytest.approx(0.0, abs=1e-300)
    g = ad.backward(ad.vsum(out))[x.nid]
    assert g[0, 0] == pytest.approx(1.0)
    assert g[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_softplus_gradient_is_bitwise_expit():
    from scipy.special import expit

    rng = np.random.default_rng(17)
    x = np.concatenate([
        rng.standard_normal(2000) * 3.0,
        rng.uniform(-760.0, 760.0, 2000),  # exp(-x) overflows below about -709.78
        [0.0, -0.0, 1e-300, -1e-300, 36.0, 37.0, 709.0, -709.0, 709.8, -709.8, 745.2, -745.2,
         1e300, -1e300],
    ]).reshape(-1, 1)
    tape = ad.Tape()
    v = tape.leaf(x, requires_grad=True)
    g = ad.backward(ad.vsum(ad.softplus(v)))[v.nid]
    assert g.tobytes() == expit(x).tobytes()


def test_importing_vip_leaves_scipy_special_unloaded():
    # scipy.special costs a few MB of resident memory in every vip process
    code = "import sys, vip.cli; print('scipy.special' in sys.modules)"
    src = str(Path(vip.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "False"


def test_backward_visits_each_reachable_node_once():
    tape = ad.Tape()
    x = tape.leaf(np.eye(2), requires_grad=True)
    y = ad.mul(x, x)
    shared = ad.add(y, y)  # diamond: shared parent reached twice, visited once
    loss = ad.vsum(shared)
    ad.relu(x)  # dangling branch, must not be visited
    ad.backward(loss)
    # reachable: x, y, shared, loss
    assert tape.last_visited == 4
    assert len(tape) == 5


def test_diamond_accumulates_both_paths():
    tape = ad.Tape()
    x = tape.leaf(2.0, requires_grad=True)
    y = ad.add(ad.mul(x, x), ad.scale(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3
    g = ad.backward(y)[x.nid]
    assert g[0, 0] == pytest.approx(7.0)


def test_unused_leaf_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.leaf(1.0, requires_grad=True)
    z = tape.leaf(np.ones((2, 3)), requires_grad=True)
    grads = ad.backward(ad.mul(x, x))
    np.testing.assert_array_equal(grads[z.nid], np.zeros((2, 3)))


def test_gradients_are_bitwise_reproducible():
    rng = np.random.default_rng(9)
    point = rng.standard_normal((4, 4))

    def run():
        tape = ad.Tape()
        v = tape.leaf(point, requires_grad=True)
        w = ad.vtanh(ad.matmul(v, v))
        loss = ad.vsum(ad.add(ad.mul(w, w), ad.mul(w, v)))
        return ad.backward(loss)[v.nid]

    np.testing.assert_array_equal(run(), run())


class TestContracts:
    def test_shape_mismatch_names_op(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf(np.ones((2, 3)))
        with pytest.raises(DimensionError, match="add"):
            ad.add(a, b)
        with pytest.raises(DimensionError, match="matmul"):
            ad.matmul(b, b)

    def test_cross_tape_rejected(self):
        a = ad.Tape().leaf(1.0)
        b = ad.Tape().leaf(1.0)
        with pytest.raises(ContractError):
            ad.add(a, b)

    def test_nonscalar_loss_rejected(self):
        tape = ad.Tape()
        v = tape.leaf(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ContractError):
            ad.backward(ad.mul(v, v))

    def test_log_domain(self):
        tape = ad.Tape()
        with pytest.raises(NumericalError):
            ad.vlog(tape.leaf(np.array([[1.0, -1.0]])))

    def test_leaf_rejects_1d(self):
        with pytest.raises(DimensionError):
            ad.Tape().leaf(np.ones(3))

    def test_reshape_keeps_size_and_two_dims(self):
        v = ad.Tape().leaf(np.arange(6.0).reshape(2, 3))
        np.testing.assert_array_equal(ad.reshape(v, (3, 2)).value, np.arange(6.0).reshape(3, 2))
        with pytest.raises(DimensionError, match="reshape"):
            ad.reshape(v, (4, 2))
        with pytest.raises(DimensionError, match="reshape"):
            ad.reshape(v, (6,))

    def test_scalar_leaf_becomes_1x1(self):
        v = ad.Tape().leaf(2.5)
        assert v.shape == (1, 1)


def test_grad_check_on_linear_map_is_exact():
    def build(tape, v):
        return ad.vsum(ad.mul(v, tape.constant(np.full(v.shape, 2.0))))

    assert grad_check(build, np.ones((2, 2)), h=1e-6) < 1e-8


class TestCoercionAndMessages:
    """Leaf coercion and the tape's error types and texts, pinned."""

    def test_float64_matrix_is_kept_as_is(self):
        a = np.arange(6.0).reshape(2, 3)
        assert ad.Tape().leaf(a).value is a
        view = np.arange(12.0).reshape(3, 4)[:, ::2]
        assert ad.Tape().leaf(view).value is view

    @pytest.mark.parametrize(
        "value",
        [
            [[1, 2], [3, 4]],
            np.array([[1, 2], [3, 4]]),
            np.array([[1, 2], [3, 4]], dtype=np.float32),
            np.array([[1, 2], [3, 4]], dtype=">f8"),
            np.matrix([[1.0, 2.0], [3.0, 4.0]]),
        ],
        ids=["list", "int", "float32", "big-endian", "matrix"],
    )
    def test_other_matrices_become_float64_arrays(self, value):
        v = ad.Tape().leaf(value).value
        assert type(v) is np.ndarray and v.dtype == np.float64 and v.dtype.isnative
        np.testing.assert_array_equal(v, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("value", [2.5, np.float64(2.5), np.float32(2.5), np.array(2.5)])
    def test_scalars_become_1x1(self, value):
        v = ad.Tape().leaf(value).value
        assert v.shape == (1, 1) and v.dtype == np.float64 and v[0, 0] == 2.5

    @pytest.mark.parametrize(
        "value, ndim",
        [([1.0, 2.0], 1), (np.ones(3), 1), (np.ones((2, 2, 2)), 3), (np.ones((1, 1, 1)), 3)],
    )
    def test_other_ranks_rejected(self, value, ndim):
        with pytest.raises(DimensionError) as exc:
            ad.Tape().leaf(value)
        assert str(exc.value) == f"leaf: values must be 2-D (scalars as 1x1), got ndim={ndim}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["matrix", "list", "scalar", "float32"])
    def test_non_finite_leaf_rejected(self, bad, kind):
        value = {
            "matrix": np.array([[0.0, 1.0], [bad, 2.0]]),
            "list": [[0.0, bad]],
            "scalar": bad,
            "float32": np.array([[bad]], dtype=np.float32),
        }[kind]
        with pytest.raises(NumericalError) as exc:
            ad.Tape().leaf(value)
        assert str(exc.value) == "leaf: non-finite value"
        assert exc.value.leaf_ids == ()

    def test_constant_checks_like_a_leaf(self):
        with pytest.raises(NumericalError, match="^leaf: non-finite value$"):
            ad.Tape().constant(np.array([[np.nan]]))
        # an array operand is not wrapped as a constant, finite or not
        for value in (np.array([[np.inf]]), np.array([[1.0]])):
            with pytest.raises(ContractError, match="^add: both operands must be Vars$"):
                ad.add(ad.Tape().leaf(1.0), value)

    def test_overflowing_ops_name_themselves(self):
        tape = ad.Tape()
        big = tape.leaf(np.array([[1e200, 1.0]]), requires_grad=True)
        with overflows(), pytest.raises(NumericalError) as exc:
            ad.mul(big, big)
        assert str(exc.value) == "mul: produced a non-finite value"
        with overflows(), pytest.raises(NumericalError) as exc:
            ad.vexp(ad.scale(big, 1e-197))
        assert str(exc.value) == "exp: produced a non-finite value"
        with overflows(), pytest.raises(NumericalError) as exc:
            ad.matmul(big, ad.transpose(big))
        assert str(exc.value) == "matmul: produced a non-finite value"
        with overflows(), pytest.raises(NumericalError) as exc:
            ad.broadcast_add_row(ad.scale(big, 1e108), tape.constant(np.array([[1e308, 0.0]])))
        assert str(exc.value) == "broadcast_add_row: produced a non-finite value"
        # the other ops that can overflow check too
        huge = tape.leaf(np.array([[1e308, 1.0]]))
        for op, run in [
            ("add", lambda: ad.add(huge, huge)),
            ("sub", lambda: ad.sub(huge, ad.scale(huge, -1.0))),
            ("scale", lambda: ad.scale(big, 1e200)),
        ]:
            with overflows(), pytest.raises(NumericalError) as exc:
                run()
            assert str(exc.value) == f"{op}: produced a non-finite value"

    def test_sum_of_finite_terms_that_overflows_names_itself(self):
        # every term is finite, and so is every product of dot's operands
        tape = ad.Tape()
        a = tape.leaf(np.array([[1e308, 1e308]]), requires_grad=True)
        b = tape.leaf(np.array([[1.2e154, 1.2e154]]), requires_grad=True)
        c = tape.leaf(np.array([[1.2e154, 1.2e154]]), requires_grad=True)
        with overflows(), pytest.raises(NumericalError) as exc:
            ad.vsum(a)
        assert str(exc.value) == "sum: produced a non-finite value"
        assert exc.value.leaf_ids == (a.nid,)
        with overflows(), pytest.raises(NumericalError) as exc:
            ad.dot(b, c)
        assert str(exc.value) == "dot: produced a non-finite value"
        assert exc.value.leaf_ids == (b.nid, c.nid)

    def test_non_var_operands_rejected(self):
        tape = ad.Tape()
        for a, b in [(np.ones((1, 1)), 2.0), (tape.leaf(1.0), 2.0), (2.0, tape.leaf(1.0))]:
            with pytest.raises(ContractError) as exc:
                ad.add(a, b)
            assert str(exc.value) == "add: both operands must be Vars"
        with pytest.raises(ContractError) as exc:
            ad.mul(tape.leaf(1.0), ad.Tape().leaf(1.0))
        assert str(exc.value) == "mul: operands come from different tapes"
        with pytest.raises(ContractError) as exc:
            ad.transpose(np.ones((2, 2)))
        assert str(exc.value) == "transpose: operand must be a Var"
        with pytest.raises(ContractError) as exc:
            ad.backward(np.ones((1, 1)))
        assert str(exc.value) == "backward: loss must be a Var"

    UNARY = {
        "transpose": ad.transpose,
        "reshape": lambda a: ad.reshape(a, (4, 1)),
        "scale": lambda a: ad.scale(a, 2.0),
        "sum": ad.vsum,
        "exp": ad.vexp,
        "log": ad.vlog,
        "tanh": ad.vtanh,
        "relu": ad.relu,
        "softplus": ad.softplus,
    }

    @pytest.mark.parametrize("name", list(UNARY))
    def test_unary_op_checks_its_operand_before_reading_it(self, name):
        # each op read a.value first, so a plain array raised AttributeError
        with pytest.raises(ContractError) as exc:
            self.UNARY[name](np.ones((2, 2)))
        assert str(exc.value) == f"{name}: operand must be a Var"

    def test_second_backward_on_a_tape_rejected(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones((2, 2)), requires_grad=True)
        h = ad.vtanh(x)
        ad.backward(ad.vsum(h))
        with pytest.raises(ContractError) as exc:
            ad.backward(ad.vsum(h))
        assert str(exc.value) == "backward: the tape was already consumed by a backward pass"


class TestBackwardFreesTheTape:
    def test_activation_captured_by_a_vjp_is_collected_mid_pass(self):
        # the tanh output lives only in tanh's VJP once the Var is dropped;
        # by the time the VJP below it (scale) runs, it must be gone
        tape = ad.Tape()
        x = tape.leaf(np.full((3, 2), 0.5), requires_grad=True)
        h = ad.vtanh(ad.scale(x, 2.0))
        activation = weakref.ref(h.value)
        loss = ad.vsum(h)
        del h
        assert activation() is not None
        seen = []
        scale_vjp = tape._vjps[1]

        def probe(g):
            seen.append(activation() is None)
            return scale_vjp(g)

        tape._vjps[1] = probe
        g = ad.backward(loss)[x.nid]
        assert seen == [True]
        np.testing.assert_allclose(g, 2.0 * (1.0 - np.tanh(1.0) ** 2))

    def test_spent_tape_keeps_only_its_index_lists(self):
        loss, leaves, _ = _training_loss("bnn", 0.5, "mle", 4, 30, 30, (5,), 0)
        tape = loss.tape
        n, needed = len(tape), _needing_gradient(tape)
        assert 0 < needed < n  # the eps, input and basis constants need none
        grads = ad.backward(loss)
        assert len(tape) == n and tape.last_visited == needed
        assert all(v is None for v in tape._vjps)
        assert sorted(grads) == sorted(v.nid for v in leaves.values())


def _needing_gradient(tape):
    """How many nodes have a requires-grad leaf upstream (or are one), by walking the parents."""
    upstream = [False] * len(tape)
    for nid, parents in enumerate(tape._parents):
        upstream[nid] = nid in tape.leaf_ids or any(upstream[p] for p in parents)
    return sum(upstream)


class TestBackwardSkipsConstants:
    """No product into a node that depends on no requires-grad leaf is computed."""

    def test_toy_step_visits_only_nodes_a_parameter_depends_on(self, monkeypatch):
        # criterion 01's training step: bnn, S=20, N=300, tanh (10, 10), alpha 0,
        # full batch, learned sigma2
        seen = []
        real = ad.backward

        def spy(loss):
            tape = loss.tape
            grads = real(loss)
            seen.append((len(tape), tape.last_visited, _needing_gradient(tape)))
            return grads

        monkeypatch.setattr(ad, "backward", spy)
        toy = synth_toy(300, 1, noise="std")
        train(toy.x, toy.y, TrainConfig(alpha=0.0, epochs=1))
        assert seen == [(804, 634, 634)]

    def test_matmul_never_forms_the_product_into_a_constant_left_operand(self):
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        x = tape.constant(rng.standard_normal((5, 3)))
        w = tape.leaf(rng.standard_normal((3, 2)), requires_grad=True)
        p = ad.matmul(x, w)
        calls = []
        vjp = tape._vjps[p.nid]

        def probe(g, need_a, need_b):
            out = vjp(g, need_a, need_b)
            calls.append((need_a, need_b, out[0] is None, out[1] is None))
            return out

        tape._vjps[p.nid] = probe
        g = ad.backward(ad.vsum(p))[w.nid]
        assert calls == [(False, True, True, False)]
        assert tape.last_visited == 3  # the sum, the product and w; never x
        assert g.tobytes() == (x.value.T @ np.ones((5, 2))).tobytes()

    def test_exp_of_a_fixed_log_sigma2_is_never_visited(self, monkeypatch):
        made = []
        real = ad.vexp

        def spy(a):
            out = real(a)
            made.append((a.nid, out.nid))
            return out

        monkeypatch.setattr(ad, "vexp", spy)
        loss, _, lo = _training_loss("bnn", 0.5, "mle", 4, 20, 20, (3,), 5, learn_sigma2=False)
        (exp_nid,) = [out for a, out in made if a == lo.nid]
        tape = loss.tape
        assert tape._vjps[exp_nid] is None
        reached = _nodes_given_a_gradient(tape)
        ad.backward(loss)
        assert exp_nid not in reached and lo.nid not in reached
        assert tape.last_visited == len(reached | {loss.nid}) == _needing_gradient(tape)


def _nodes_given_a_gradient(tape):
    """The set, filled as ``backward`` runs, of the nodes a VJP gives a product to."""
    reached = set()

    def recording(nid, vjp):
        def run(g, *needs):
            out = vjp(g, *needs)
            reached.update(p for p, c in zip(tape._parents[nid], out) if c is not None)
            return out

        return run

    tape._vjps = [None if v is None else recording(k, v) for k, v in enumerate(tape._vjps)]
    return reached


_FINITE_EXTREMES = (1.7976931348623157e308, -1.7976931348623157e308, 1e200, -1e200,
                    2.2250738585072014e-308, 5e-324, -5e-324, 0.0, -0.0, 1.0)


# entries of the sum property: exact zeros of both signs weigh most, then
# subnormals, the smallest normal, values near the overflow threshold, and any
# finite double
_SUM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -2.5e-320, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _sum_operand(draw, shape=None):
    """A 2-D float64 array, sometimes all zeros, sometimes a strided view."""
    rows, cols = shape or (draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    layout = draw(st.sampled_from(["c", "transposed", "strided"]))
    base_shape = {"c": (rows, cols), "transposed": (cols, rows), "strided": (2 * rows, 2 * cols)}
    n = math.prod(base_shape[layout])
    if draw(st.booleans()) and draw(st.booleans()):
        entries = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    else:
        entries = draw(st.lists(_SUM_ENTRIES, min_size=n, max_size=n))
    base = np.array(entries).reshape(base_shape[layout])
    return {"c": base, "transposed": base.T, "strided": base[::2, ::-2]}[layout]


class TestExactSumsProperty:
    """``vsum`` and ``dot`` give numpy's sum of their terms, to the bit, or fail."""

    @staticmethod
    @np.errstate(over="ignore", invalid="ignore")
    def _expect(op, terms, run, *operands):
        want = terms.sum()
        if not np.isfinite(want):
            with pytest.raises(NumericalError) as exc:
                run()
            assert str(exc.value) == f"{op}: produced a non-finite value"
            assert exc.value.leaf_ids == tuple(v.nid for v in operands)
        else:
            got = run().value
            assert got.shape == (1, 1)
            assert got[0, 0].hex() == want.hex()

    @settings(max_examples=200, deadline=None)
    @given(arr=_sum_operand())
    @example(arr=np.array([[1e308, 1e308, -0.0]]))
    @example(arr=np.full((50, 50), -0.0))
    def test_vsum_matches_fsum(self, arr):
        tape = ad.Tape()
        a = tape.leaf(arr, requires_grad=True)
        self._expect("sum", arr, lambda: ad.vsum(a), a)

    @settings(max_examples=200, deadline=None)
    @given(
        pair=st.tuples(st.integers(1, 12), st.integers(1, 12)).flatmap(
            lambda shape: st.tuples(_sum_operand(shape), _sum_operand(shape))
        )
    )
    @example(pair=(np.tril(np.full((50, 50), 0.1)), np.tril(np.full((50, 50), 0.1))))
    @example(pair=(np.array([[1e200, 1e200]]), np.array([[1e200, -1e200]])))
    def test_dot_matches_fsum_of_products(self, pair):
        av, bv = pair
        tape = ad.Tape()
        a = tape.leaf(av, requires_grad=True)
        b = tape.leaf(bv, requires_grad=True)
        with np.errstate(over="ignore", under="ignore"):
            terms = av * bv
            self._expect("dot", terms, lambda: ad.dot(a, b), a, b)


class TestUncheckedOpsStayFinite:
    """The ops that record without a finiteness check, at finite extremes."""

    OPS = {
        "transpose": ad.transpose,
        "reshape": lambda v: ad.reshape(v, (v.shape[1], v.shape[0])),
        "tanh": ad.vtanh,
        "relu": ad.relu,
        "softplus": ad.softplus,
        "log": ad.vlog,
    }

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(OPS)),
        entries=st.lists(st.sampled_from(_FINITE_EXTREMES), min_size=1, max_size=12),
    )
    def test_finite_operands_give_finite_values(self, name, entries):
        value = np.array([entries])
        if name == "log":  # a positive operand: magnitudes, zeros as 1
            value = np.where(value == 0.0, 1.0, np.abs(value))
        tape = ad.Tape()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.OPS[name](tape.leaf(value, requires_grad=True))
        assert np.isfinite(out.value).all()


class TestLazyTape:
    """A lazy tape checks requires-grad leaves and, where it is not a leaf,
    the operand of each op that can turn a non-finite value finite."""

    VANISHING = {"exp": ad.vexp, "tanh": ad.vtanh, "relu": ad.relu, "softplus": ad.softplus}

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", list(VANISHING))
    def test_non_finite_operand_is_caught_before_it_can_vanish(self, name, bad):
        tape = ad.Tape(lazy=True)
        x = tape.leaf(np.array([[1.0, 2.0]]), requires_grad=True)
        a = ad.mul(x, tape.constant(np.array([[bad, 1.0]])))
        with pytest.raises(NumericalError) as exc:
            self.VANISHING[name](a)
        assert str(exc.value) == f"{name}: non-finite operand"
        assert exc.value.leaf_ids == (x.nid,)

    def test_outputs_constants_and_leaf_operands_go_unchecked(self):
        tape = ad.Tape(lazy=True)
        big = tape.leaf(np.array([[1e200, 1.0]]), requires_grad=True)
        with np.errstate(over="ignore"):
            assert np.isinf(ad.mul(big, big).value[0, 0])
            assert np.isinf(ad.vsum(ad.scale(big, 1e200)).value[0, 0])
        # a constant's -inf vanishes: a lazy tape's caller keeps constants finite
        assert ad.vexp(tape.constant(np.array([[-np.inf]]))).value[0, 0] == 0.0
        with pytest.raises(NumericalError) as exc:
            tape.leaf(np.array([[np.nan]]), requires_grad=True)
        assert str(exc.value) == "leaf: non-finite value"


class TestFailureNamesLeaves:
    """A raising tape op carries the requires-grad leaves upstream of it."""

    def test_only_upstream_trainable_leaves(self):
        tape = ad.Tape()
        a = tape.leaf(np.array([[400.0]]), requires_grad=True)
        b = tape.leaf(np.array([[2.0]]), requires_grad=True)
        tape.leaf(np.array([[1.0]]), requires_grad=True)  # not upstream
        c = tape.constant(np.array([[1.0]]))  # upstream, but not trainable
        h = ad.mul(ad.add(a, c), b)
        with overflows(), pytest.raises(NumericalError) as exc:
            ad.vexp(h)
        assert exc.value.leaf_ids == (a.nid, b.nid)

    def test_binary_op_collects_both_operands(self):
        tape = ad.Tape()
        a = tape.leaf(np.array([[1e200]]), requires_grad=True)
        b = tape.leaf(np.array([[1e200]]), requires_grad=True)
        with overflows(), pytest.raises(NumericalError) as exc:
            ad.mul(ad.scale(b, 1.0), a)
        assert exc.value.leaf_ids == (a.nid, b.nid)

    def test_log_domain_error_names_leaves(self):
        tape = ad.Tape()
        a = tape.leaf(np.array([[-1.0]]), requires_grad=True)
        with pytest.raises(NumericalError) as exc:
            ad.vlog(a)
        assert str(exc.value) == "log: non-positive operand"
        assert exc.value.leaf_ids == (a.nid,)


def _copying_backward(loss, leaves):
    """The copy-then-add-in-place backward pass, kept as a test oracle.

    Each node's first contribution is copied and later ones are added into
    that copy, in the same descending node order as ``ad.backward``. Every
    recorded VJP is told that each of its operands needs a gradient, so the
    products into constants are formed and accumulated too, as an unpruned
    pass would.
    """
    tape = loss.tape
    grads = [None] * len(tape)
    grads[loss.nid] = np.ones((1, 1))
    for nid in range(loss.nid, -1, -1):
        g = grads[nid]
        vjp = tape._vjps[nid]
        if g is None or vjp is None:
            continue
        parents = tape._parents[nid]
        everything = () if len(parents) == 1 else (True, True)
        for pid, contrib in zip(parents, vjp(g, *everything)):
            if grads[pid] is None:
                grads[pid] = contrib.copy()
            else:
                grads[pid] += contrib
    return {
        k: grads[v.nid] if grads[v.nid] is not None else np.zeros(v.shape)
        for k, v in leaves.items()
    }


def _freeze_vjps(tape):
    """Make every array a VJP is given or returns read-only."""

    def frozen(vjp):
        def run(g, *needs):
            g.setflags(write=False)
            out = vjp(g, *needs)
            for contrib in out:
                if contrib is not None:
                    contrib.setflags(write=False)
            return out

        return run

    tape._vjps = [None if v is None else frozen(v) for v in tape._vjps]


def _training_loss(family, alpha, estimator, s, n, mb, hidden, seed, learn_sigma2=True):
    """One training step's tape, built as ``inference.train`` builds it.

    Returns the loss, the requires-grad leaves by name and the log_sigma2 Var
    (a leaf when ``learn_sigma2``, a constant otherwise).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    y = rng.standard_normal(n)
    prior = init_prior(family, 2, hidden, "tanh", Rng(seed, 1), noise_dim=3)
    params = dict(prior.params)
    params["q_mu"] = 0.3 * rng.standard_normal((s, 1))
    params["q_tril"] = 0.3 * rng.standard_normal((s, s))
    params["q_diag"] = SOFTPLUS_INV_ONE + 0.3 * rng.standard_normal((s, 1))
    if learn_sigma2:
        params["log_sigma2"] = np.array([[math.log(0.2)]])
    tape = ad.Tape()
    leaves = {k: tape.leaf(a, requires_grad=True) for k, a in params.items()}
    idx = rng.permutation(n)[:mb]
    draws = sample_functions(
        prior, x[idx], s, Rng(seed, 2), tape=tape,
        params={k: leaves[k] for k in prior.params},
    )
    lo = leaves["log_sigma2"] if learn_sigma2 else tape.constant(math.log(0.2))
    loss, _ = energy_loss(
        tape, y[idx], draws, leaves, alpha, lo, n, *kernel_normaliser(s, estimator, 0.3),
    )
    return loss, leaves, lo


class TestBackwardMatchesCopyingOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["bnn", "ns"]),
        alpha=st.sampled_from([0.0, 0.5]),
        estimator=st.sampled_from(["mle", "pm"]),
        s=st.integers(2, 8),
        n=st.integers(2, 60),
        batch=st.floats(0.0, 1.0),
        hidden=st.sampled_from([(3,), (5, 4)]),
        seed=st.integers(0, 2**31 - 1),
    )
    # the toy protocol's step: S=20, N=300, full batch, tanh (10, 10)
    @example(family="bnn", alpha=0.0, estimator="mle", s=20, n=300, batch=1.0,
             hidden=(10, 10), seed=1)
    @example(family="ns", alpha=0.5, estimator="pm", s=20, n=300, batch=1.0,
             hidden=(10, 10), seed=2)
    def test_bitwise_equal_and_contributions_untouched(
        self, family, alpha, estimator, s, n, batch, hidden, seed
    ):
        mb = max(1, round(batch * n))
        loss, leaves, _ = _training_loss(family, alpha, estimator, s, n, mb, hidden, seed)
        _freeze_vjps(loss.tape)
        want = _copying_backward(loss, leaves)
        got = ad.backward(loss)
        for name, leaf in leaves.items():
            g = got[leaf.nid]
            assert g.flags.c_contiguous, name
            assert g.dtype == np.float64 and g.shape == leaf.shape, name
            np.testing.assert_array_equal(g, want[name], err_msg=name)
            assert g.tobytes() == want[name].tobytes(), name  # -0.0 included
