import math
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import vip
from vip import autodiff as ad
from vip.errors import ContractError, DimensionError, NumericalError


def test_square_scalar_gradient():
    tape = ad.Tape()
    x = tape.leaf(3.0, requires_grad=True)
    loss = ad.square(x)
    grads = ad.backward(loss)
    assert grads[x.nid][0, 0] == pytest.approx(6.0)


def test_matmul_chain_matches_finite_differences():
    rng = np.random.default_rng(0)
    a0 = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))

    def build(tape, v):
        return ad.vsum(ad.square(ad.matmul(v, tape.constant(b))))

    assert ad.grad_check(build, a0) < 1e-6


class TestPerOpGradients:
    """Central finite differences on every op at random points, rel err <= 1e-5."""

    CASES = {
        "add": lambda t, v: ad.add(v, t.constant(np.full(v.shape, 0.3))),
        "sub": lambda t, v: ad.sub(t.constant(np.full(v.shape, 0.3)), v),
        "mul": lambda t, v: ad.mul(v, ad.add(v, t.constant(np.full(v.shape, 1.5)))),
        "matmul": lambda t, v: ad.matmul(v, ad.transpose(v)),
        "transpose": lambda t, v: ad.square(ad.transpose(v)),
        "reshape": lambda t, v: ad.matmul(
            ad.reshape(ad.matmul(v, t.constant(np.arange(12.0).reshape(3, 4) / 10.0)), (4, 3)), v
        ),
        "scale": lambda t, v: ad.scale(v, -1.7),
        "square": lambda t, v: ad.square(v),
        "exp": lambda t, v: ad.vexp(v),
        "log": lambda t, v: ad.vlog(ad.add(ad.square(v), t.constant(np.full(v.shape, 0.5)))),
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

            worst = max(worst, ad.grad_check(build, point))
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


def test_sum_uses_order_independent_reduction():
    # fsum makes the forward value identical for any permutation of entries
    rng = np.random.default_rng(5)
    vals = np.concatenate([rng.standard_normal(500) * 1e10, rng.standard_normal(500)])
    perm = rng.permutation(vals.size)
    t1 = ad.Tape()
    s1 = ad.vsum(t1.leaf(vals.reshape(-1, 1))).value[0, 0]
    t2 = ad.Tape()
    s2 = ad.vsum(t2.leaf(vals[perm].reshape(-1, 1))).value[0, 0]
    assert s1 == s2
    assert s1 == math.fsum(vals)


def test_backward_visits_each_reachable_node_once():
    tape = ad.Tape()
    x = tape.leaf(np.eye(2), requires_grad=True)
    y = ad.square(x)
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
    y = ad.add(ad.square(x), ad.scale(x, 3.0))  # x^2 + 3x -> dy/dx = 2x + 3
    g = ad.backward(y)[x.nid]
    assert g[0, 0] == pytest.approx(7.0)


def test_unused_leaf_gets_zero_gradient():
    tape = ad.Tape()
    x = tape.leaf(1.0, requires_grad=True)
    z = tape.leaf(np.ones((2, 3)), requires_grad=True)
    grads = ad.backward(ad.square(x))
    np.testing.assert_array_equal(grads[z.nid], np.zeros((2, 3)))


def test_gradients_are_bitwise_reproducible():
    rng = np.random.default_rng(9)
    point = rng.standard_normal((4, 4))

    def run():
        tape = ad.Tape()
        v = tape.leaf(point, requires_grad=True)
        w = ad.vtanh(ad.matmul(v, v))
        loss = ad.vsum(ad.add(ad.square(w), ad.mul(w, v)))
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
            ad.backward(ad.square(v))

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

    assert ad.grad_check(build, np.ones((2, 2)), h=1e-6) < 1e-8
