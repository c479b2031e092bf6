"""Reverse-mode automatic differentiation on a dynamic tape.

Every value is a 2-D float64 array; scalars ride along as 1x1. The op set is
deliberately small and closed: elementwise arithmetic and activations,
``matmul``, ``transpose``, ``reshape``, ``broadcast_add_row``, ``sum`` and
``dot``. Composite quantities (divisions, diagonal embeddings, row stacking)
are built from these primitives rather than added as new ops. A binary op
takes two Vars from one tape; a constant operand comes from ``tape.constant``.
Gradients accumulate in a fixed order (descending node index), ``sum`` and
``dot`` reduce with math.fsum so their forward values do not depend on
element order, and relu takes derivative 0 at exactly 0. The exact sum
skips exact zeros (half of ``dot(L, L)`` for a lower-triangular L): adding
a zero changes no exactly rounded sum, so the value is the same.

``backward`` never writes into an array: a node's first gradient
contribution is kept as it is when it is already C-ordered (a transposed
view is copied to C order, so BLAS sees the same layout downstream), and
later contributions accumulate out of place as ``prev + contrib``. Arrays
a VJP returns may therefore be shared between nodes, and leaf gradients may
share memory with each other; none of them is mutated.

``backward`` consumes the tape and frees it as it walks it: once a node's
VJP has run, the node's gradient and the VJP, with the forward values it
captured, are dropped, so the pass never holds a gradient for every node and
a spent tape keeps only its index lists. A second ``backward`` on the same
tape raises :class:`ContractError`.

Every tape value is finite. Leaves and constants are checked as they are
recorded, and so is the output of each op that can turn finite operands
into a NaN or inf: ``add``, ``sub``, ``mul``, ``matmul``, ``scale``,
``broadcast_add_row`` and ``exp`` can overflow, and ``sum`` and
``dot`` check their 1x1 result (a sum whose finite terms overflow raises
the same error). The other ops need no check, because their operands are
already finite: ``transpose`` and ``reshape`` move values, ``tanh`` lies in
[-1, 1], ``relu`` keeps a value or gives 0, ``softplus`` of a finite value
is finite, and ``log`` rejects an operand <= 0 and is finite above it. So
the op that first makes a non-finite value is the one that raises.

A tape op that raises :class:`NumericalError` sets the error's ``leaf_ids``
to the requires-grad leaves its operands depend on, so a caller can name
the parameters involved.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ContractError, DimensionError, NumericalError
from .numkit import all_finite


class Var:
    """Handle to one tape node. Holds the forward value and its node id."""

    __slots__ = ("value", "tape", "nid")

    def __init__(self, value: np.ndarray, tape: "Tape", nid: int):
        self.value = value
        self.tape = tape
        self.nid = nid

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(nid={self.nid}, shape={self.value.shape})"


def _check_finite(value: np.ndarray, where: str, what: str, *operands: Var):
    """Raise ``NumericalError("<where>: <what>")`` if ``value`` holds a NaN or inf."""
    if not all_finite(value):
        _fail(f"{where}: {what}", *operands)


def _fail(message: str, *operands: Var):
    err = NumericalError(message)
    if operands:
        err.leaf_ids = operands[0].tape._upstream_leaves(a.nid for a in operands)
    raise err


def _coerce_value(value, where: str) -> np.ndarray:
    if type(value) is not np.ndarray or value.dtype != np.float64 or value.ndim != 2:
        value = np.asarray(value, dtype=np.float64)
        if value.ndim == 0:
            value = value.reshape(1, 1)
        if value.ndim != 2:
            raise DimensionError(
                f"{where}: values must be 2-D (scalars as 1x1), got ndim={value.ndim}"
            )
    _check_finite(value, where, "non-finite value")
    return value


class Tape:
    """Append-only record of the computation. One graph, one backward pass."""

    def __init__(self):
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list[Callable | None] = []
        self._leaf_shapes: dict[int, tuple[int, int]] = {}
        self.leaf_ids: list[int] = []
        self.last_visited = 0
        self.consumed = False

    def __len__(self):
        return len(self._parents)

    def leaf(self, value, requires_grad: bool = False) -> Var:
        v = self._record(_coerce_value(value, "leaf"), (), None)
        if requires_grad:
            self.leaf_ids.append(v.nid)
            self._leaf_shapes[v.nid] = v.value.shape
        return v

    def constant(self, value) -> Var:
        return self.leaf(value, requires_grad=False)

    def _record(self, value: np.ndarray, parents: tuple[int, ...], vjp) -> Var:
        self._parents.append(parents)
        self._vjps.append(vjp)
        return Var(value, self, len(self._parents) - 1)

    def _upstream_leaves(self, nids) -> tuple[int, ...]:
        """Requires-grad leaf ids the nodes ``nids`` depend on, ascending."""
        seen: set[int] = set()
        stack = list(nids)
        while stack:
            nid = stack.pop()
            if nid not in seen:
                seen.add(nid)
                stack.extend(self._parents[nid])
        return tuple(sorted(seen.intersection(self.leaf_ids)))


def _unary(op: str, a: Var, value: np.ndarray, vjp, check: bool = True) -> Var:
    """Record ``value``; ``check=False`` for ops that keep finite values finite."""
    if type(a) is not Var:
        raise ContractError(f"{op}: operand must be a Var")
    if check:
        _check_finite(value, op, "produced a non-finite value", a)
    return a.tape._record(value, (a.nid,), vjp)


def _pair(op: str, a: Var, b: Var):
    if type(a) is not Var or type(b) is not Var:
        raise ContractError(f"{op}: both operands must be Vars")
    if a.tape is not b.tape:
        raise ContractError(f"{op}: operands come from different tapes")


def _binary(op: str, a: Var, b: Var, value: np.ndarray, vjp) -> Var:
    _check_finite(value, op, "produced a non-finite value", a, b)
    return a.tape._record(value, (a.nid, b.nid), vjp)


def _same_shape(op: str, a: Var, b: Var):
    if a.value.shape != b.value.shape:
        raise DimensionError(f"{op}: shapes {a.value.shape} and {b.value.shape} differ")


def add(a: Var, b: Var) -> Var:
    _pair("add", a, b)
    _same_shape("add", a, b)
    return _binary("add", a, b, a.value + b.value, lambda g: (g, g))


def sub(a: Var, b: Var) -> Var:
    _pair("sub", a, b)
    _same_shape("sub", a, b)
    return _binary("sub", a, b, a.value - b.value, lambda g: (g, -g))


def mul(a: Var, b: Var) -> Var:
    _pair("mul", a, b)
    _same_shape("mul", a, b)
    av, bv = a.value, b.value
    return _binary("mul", a, b, av * bv, lambda g: (g * bv, g * av))


def matmul(a: Var, b: Var) -> Var:
    _pair("matmul", a, b)
    if a.value.shape[1] != b.value.shape[0]:
        raise DimensionError(
            f"matmul: inner dimensions {a.value.shape} x {b.value.shape} do not match"
        )
    av, bv = a.value, b.value
    return _binary("matmul", a, b, av @ bv, lambda g: (g @ bv.T, av.T @ g))


def transpose(a: Var) -> Var:
    return _unary("transpose", a, a.value.T.copy(), lambda g: (g.T,), check=False)


def reshape(a: Var, shape) -> Var:
    """The entries of a, in row-major order, laid out as a 2-D ``shape``."""
    old = a.value.shape
    shape = tuple(int(k) for k in shape)
    if len(shape) != 2 or shape[0] * shape[1] != a.value.size:
        raise DimensionError(f"reshape: cannot lay out {old} as {shape}")
    return _unary(
        "reshape", a, a.value.reshape(shape), lambda g: (g.reshape(old),), check=False
    )


def scale(a: Var, c: float) -> Var:
    c = float(c)
    return _unary("scale", a, a.value * c, lambda g: (g * c,))


def broadcast_add_row(a: Var, row: Var) -> Var:
    """a (m,n) plus a (1,n) row replicated down the rows."""
    _pair("broadcast_add_row", a, row)
    m, n = a.value.shape
    if row.value.shape != (1, n):
        raise DimensionError(
            f"broadcast_add_row: row shape {row.value.shape} does not match matrix {a.value.shape}"
        )
    return _binary(
        "broadcast_add_row",
        a,
        row,
        a.value + row.value,
        lambda g: (g, g.sum(axis=0, keepdims=True)),
    )


def _fsum(op: str, arr: np.ndarray, *operands: Var) -> np.ndarray:
    """math.fsum of ``arr`` as 1x1; an overflowing sum fails like any other op.

    The nonzero entries go to fsum as one list of Python floats, which it
    walks about twice as fast as numpy scalars. Dropping the exact zeros
    leaves the exactly rounded sum as it was.
    """
    flat = arr.ravel()
    try:
        return np.array([[math.fsum(flat[flat != 0.0].tolist())]])
    except (OverflowError, ValueError):  # ValueError: dot's products hold inf and -inf
        _fail(f"{op}: produced a non-finite value", *operands)


def vsum(a: Var) -> Var:
    """Sum of all entries (exactly rounded, so element order cannot matter)."""
    shape = a.value.shape
    val = _fsum("sum", a.value, a)
    return _unary("sum", a, val, lambda g: (np.full(shape, g[0, 0]),))


def dot(a: Var, b: Var) -> Var:
    _pair("dot", a, b)
    _same_shape("dot", a, b)
    av, bv = a.value, b.value
    val = _fsum("dot", av * bv, a, b)
    return _binary("dot", a, b, val, lambda g: (g[0, 0] * bv, g[0, 0] * av))


def vexp(a: Var) -> Var:
    out = np.exp(a.value)
    return _unary("exp", a, out, lambda g: (out * g,))


def vlog(a: Var) -> Var:
    if np.any(a.value <= 0.0):
        _fail("log: non-positive operand", a)
    av = a.value
    return _unary("log", a, np.log(av), lambda g: (g / av,), check=False)


def vtanh(a: Var) -> Var:
    out = np.tanh(a.value)
    return _unary("tanh", a, out, lambda g: ((1.0 - out * out) * g,), check=False)


def relu(a: Var) -> Var:
    av = a.value
    mask = av > 0.0
    return _unary(
        "relu", a, np.where(mask, av, 0.0), lambda g: (np.where(mask, g, 0.0),), check=False
    )


def _sigmoid(v: float) -> float:
    # libm exp, as scipy.special.expit computes it; exp(-v) overflows only
    # where the sigmoid rounds to 0
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def softplus(a: Var) -> Var:
    av = a.value
    out = np.logaddexp(0.0, av)

    def vjp(g):
        sig = np.array([_sigmoid(v) for v in av.ravel().tolist()]).reshape(av.shape)
        return (sig * g,)

    return _unary("softplus", a, out, vjp, check=False)


def backward(loss: Var) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss with respect to every requires-grad leaf.

    Returns {node id: gradient array}; leaves the loss does not depend on get
    zeros. Nodes are visited once each, in descending index order, and
    ``tape.last_visited`` records how many were touched.

    The pass consumes the tape: each non-leaf node's gradient and VJP are
    freed as soon as the VJP has run, and calling ``backward`` again on the
    same tape raises :class:`ContractError`.
    """
    if not isinstance(loss, Var):
        raise ContractError("backward: loss must be a Var")
    if loss.value.shape != (1, 1):
        raise ContractError(f"backward: loss must be scalar (1x1), got {loss.value.shape}")
    tape = loss.tape
    if tape.consumed:
        raise ContractError("backward: the tape was already consumed by a backward pass")
    tape.consumed = True
    vjps = tape._vjps
    grads: list[np.ndarray | None] = [None] * len(tape)
    grads[loss.nid] = np.ones((1, 1))
    visited = 0
    for nid in range(loss.nid, -1, -1):
        g = grads[nid]
        if g is None:
            continue
        visited += 1
        vjp = vjps[nid]
        if vjp is None:
            continue
        # past this node: its gradient and the forward values its VJP holds go
        grads[nid] = vjps[nid] = None
        for pid, contrib in zip(tape._parents[nid], vjp(g)):
            prev = grads[pid]
            grads[pid] = np.ascontiguousarray(contrib) if prev is None else prev + contrib
    tape.last_visited = visited
    out = {}
    for nid in tape.leaf_ids:
        g = grads[nid]
        out[nid] = g if g is not None else np.zeros(tape._leaf_shapes[nid])
    return out

