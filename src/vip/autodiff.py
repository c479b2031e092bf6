"""Reverse-mode automatic differentiation on a dynamic tape.

Every value is a 2-D float64 array; scalars ride along as 1x1. The op set is
deliberately small and closed: elementwise arithmetic and activations,
``matmul``, ``transpose``, ``reshape``, ``broadcast_add_row``, ``sum`` and
``dot``. Composites (divisions, diagonal embeddings, row stacking) are built
from these primitives, not added as ops. Each op checks its operands before
it reads them: one Var, or two Vars from one tape; a constant operand comes
from ``tape.constant``. Gradients accumulate in a fixed order (descending
node index), and relu takes derivative 0 at exactly 0. ``sum`` and ``dot``
are numpy sums; no VJP reads their forward value, so how those values round
moves no gradient.

``backward`` computes only the gradients a parameter needs. Each node
records, as it is made, whether it depends on a requires-grad leaf. A node
that does not (a constant, or an op on constants only) keeps no VJP, and
``backward`` never reaches it. A unary op's VJP is ``vjp(g)``, kept only
when its operand needs a gradient. A binary op's VJP is
``vjp(g, need_a, need_b)``: it computes the product for each operand that
needs a gradient and gives None for the other, and ``backward`` accumulates
into those operands alone. A node that needs a gradient gets contributions
only from nodes that need one too, so every accumulation keeps its operands
and its order, and every gradient its bits. The parent lists stay complete,
so an error names the same parameters either way.

``backward`` never writes into an array: a node's first gradient
contribution is kept as it is when it is already C-ordered (a transposed
view is copied to C order, so BLAS sees the same layout downstream), and
later contributions accumulate out of place as ``prev + contrib``.
``np.ascontiguousarray`` makes that hand-off: it returns a C-ordered array
itself, without a copy, and faster than a test of the array's flags. Arrays
a VJP returns may therefore be shared between nodes, and leaf gradients may
share memory with each other; none of them is mutated.

``backward`` consumes the tape and frees it as it walks it: once a node's
VJP has run, the node's gradient and the VJP, with the forward values it
captured, are dropped, so the pass never holds a gradient for every node and
a spent tape keeps only its index lists. A second ``backward`` on the same
tape raises :class:`ContractError`.

A tape is eager (the default) or lazy. On an eager tape every value is
finite. Leaves and constants are checked as they are recorded, and so is
the output of each op that can turn finite operands into a NaN or inf:
``add``, ``sub``, ``mul``, ``matmul``, ``scale``, ``broadcast_add_row`` and
``exp`` can overflow, and ``sum`` and ``dot`` check their 1x1 result (a sum
whose finite terms overflow raises the same error). The other ops need no
check, because their operands are already finite: ``transpose`` and
``reshape`` move values, ``tanh`` lies in [-1, 1], ``relu`` keeps a value
or gives 0, ``softplus`` of a finite value is finite, and ``log`` rejects an
operand <= 0 and is finite above it. So the op that first makes a non-finite
value is the one that raises. A tape op's :class:`NumericalError` carries in
``leaf_ids`` the requires-grad leaves its operands depend on, so a caller
can name the parameters involved.

A lazy tape (``Tape(lazy=True)``) checks only requires-grad leaves and the
places where a non-finite value can vanish; its caller keeps the constants
it records finite. Every other op carries a NaN or
inf into its output, so it reaches the loss, which the caller checks. Four
ops can turn one finite: ``exp`` (-inf to 0), ``tanh`` (+-inf to +-1),
``relu`` (NaN and -inf to 0) and ``softplus`` (-inf to 0). Each checks its
operand unless that operand is a leaf; ``log`` rejects a non-positive operand
on either kind of tape. A lazy tape's error tells only that the pass went
non-finite: a caller that wants the failing op named reruns the same
computation on an eager tape, as ``inference.train`` does.
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


def _fail(message: str, *operands: Var):
    err = NumericalError(message)
    if operands:
        err.leaf_ids = operands[0].tape._upstream_leaves(a.nid for a in operands)
    raise err


def _coerce_value(value, where: str, check: bool = True) -> np.ndarray:
    if type(value) is not np.ndarray or value.dtype != np.float64 or value.ndim != 2:
        value = np.asarray(value, dtype=np.float64)
        if value.ndim == 0:
            value = value.reshape(1, 1)
        if value.ndim != 2:
            raise DimensionError(
                f"{where}: values must be 2-D (scalars as 1x1), got ndim={value.ndim}"
            )
    if check and not all_finite(value):
        _fail(f"{where}: non-finite value")
    return value


class Tape:
    """Append-only record of the computation. One graph, one backward pass.

    ``lazy`` selects which values are checked for finiteness (module docstring).
    """

    def __init__(self, lazy: bool = False):
        self.lazy = lazy
        self._parents: list[tuple[int, ...]] = []
        self._vjps: list[Callable | None] = []
        # per node: does it depend on a requires-grad leaf?
        self._needs_grad: list[bool] = []
        self._leaf_shapes: dict[int, tuple[int, int]] = {}
        self.leaf_ids: list[int] = []
        self.last_visited = 0
        self.consumed = False

    def __len__(self):
        return len(self._parents)

    def leaf(self, value, requires_grad: bool = False) -> Var:
        check = requires_grad or not self.lazy
        v = Var(_coerce_value(value, "leaf", check), self, len(self._parents))
        self._parents.append(())
        self._vjps.append(None)
        self._needs_grad.append(requires_grad)
        if requires_grad:
            self.leaf_ids.append(v.nid)
            self._leaf_shapes[v.nid] = v.value.shape
        return v

    def constant(self, value) -> Var:
        return self.leaf(value, requires_grad=False)

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


def _value(op: str, a: Var) -> np.ndarray:
    if type(a) is not Var:
        raise ContractError(f"{op}: operand must be a Var")
    return a.value


def _operand(op: str, a: Var) -> np.ndarray:
    """``_value`` of an op that can turn a non-finite operand finite; a lazy
    tape checks that operand here, unless it is a leaf."""
    av = _value(op, a)
    tape = a.tape
    if tape.lazy and tape._parents[a.nid] and not all_finite(av):
        _fail(f"{op}: non-finite operand", a)
    return av


def _values(op: str, a: Var, b: Var, same_shape: bool = True):
    """Both operands' values, checked to be Vars of one tape (of one shape, if ``same_shape``)."""
    if type(a) is not Var or type(b) is not Var:
        raise ContractError(f"{op}: both operands must be Vars")
    if a.tape is not b.tape:
        raise ContractError(f"{op}: operands come from different tapes")
    av, bv = a.value, b.value
    if same_shape and av.shape != bv.shape:
        raise DimensionError(f"{op}: shapes {av.shape} and {bv.shape} differ")
    return av, bv


def _record1(op: str, a: Var, value: np.ndarray, vjp, check: bool = True) -> Var:
    """Record ``value`` as op(a); ``check=False`` for ops that keep finite values finite."""
    tape = a.tape
    if check and not tape.lazy and not all_finite(value):
        _fail(f"{op}: produced a non-finite value", a)
    needs = tape._needs_grad[a.nid]
    tape._parents.append((a.nid,))
    tape._vjps.append(vjp if needs else None)
    tape._needs_grad.append(needs)
    return Var(value, tape, len(tape._parents) - 1)


def _record2(op: str, a: Var, b: Var, value: np.ndarray, vjp) -> Var:
    """Record ``value`` as op(a, b), which must be finite on an eager tape."""
    tape = a.tape
    if not tape.lazy and not all_finite(value):
        _fail(f"{op}: produced a non-finite value", a, b)
    needs = tape._needs_grad[a.nid] or tape._needs_grad[b.nid]
    tape._parents.append((a.nid, b.nid))
    tape._vjps.append(vjp if needs else None)
    tape._needs_grad.append(needs)
    return Var(value, tape, len(tape._parents) - 1)


def add(a: Var, b: Var) -> Var:
    av, bv = _values("add", a, b)
    return _record2(
        "add", a, b, av + bv, lambda g, na, nb: (g if na else None, g if nb else None)
    )


def sub(a: Var, b: Var) -> Var:
    av, bv = _values("sub", a, b)
    return _record2(
        "sub", a, b, av - bv, lambda g, na, nb: (g if na else None, -g if nb else None)
    )


def mul(a: Var, b: Var) -> Var:
    av, bv = _values("mul", a, b)
    return _record2(
        "mul", a, b, av * bv, lambda g, na, nb: (g * bv if na else None, g * av if nb else None)
    )


def matmul(a: Var, b: Var) -> Var:
    av, bv = _values("matmul", a, b, same_shape=False)
    if av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: inner dimensions {av.shape} x {bv.shape} do not match")
    return _record2(
        "matmul", a, b, av @ bv,
        lambda g, na, nb: (g @ bv.T if na else None, av.T @ g if nb else None),
    )


def transpose(a: Var) -> Var:
    return _record1("transpose", a, _value("transpose", a).T.copy(), lambda g: (g.T,), check=False)


def reshape(a: Var, shape) -> Var:
    """The entries of a, in row-major order, laid out as a 2-D ``shape``."""
    av = _value("reshape", a)
    old = av.shape
    shape = tuple(int(k) for k in shape)
    if len(shape) != 2 or shape[0] * shape[1] != av.size:
        raise DimensionError(f"reshape: cannot lay out {old} as {shape}")
    return _record1("reshape", a, av.reshape(shape), lambda g: (g.reshape(old),), check=False)


def scale(a: Var, c: float) -> Var:
    c = float(c)
    return _record1("scale", a, _value("scale", a) * c, lambda g: (g * c,))


def column_sums(g: np.ndarray) -> np.ndarray:
    """The (1, n) column sums of a 2-D g, with ``g.sum(axis=0, keepdims=True)``'s bits.

    numpy's axis-0 sum of a C-ordered g adds the rows in order, and so does
    einsum's contiguous inner loop, two to three times faster at a training
    step's (N, 10) bias gradients. A single column, which ``sum`` adds
    pairwise, and any other layout take ``sum``. einsum starts from +0.0, so
    an all -0.0 column reads +0.0 where a ``sum`` that starts from the first
    row gives -0.0. No parameter sees that sign: Adam's first moment starts
    at +0.0 and never becomes -0.0, and its second moment reads only g * g.
    """
    if g.shape[1] > 1 and g.flags.c_contiguous:
        return np.einsum("ij->j", g)[None, :]
    return g.sum(axis=0, keepdims=True)


def broadcast_add_row(a: Var, row: Var) -> Var:
    """a (m,n) plus a (1,n) row replicated down the rows; the row's gradient
    is ``column_sums`` of g, each column's rows added in order."""
    av, rv = _values("broadcast_add_row", a, row, same_shape=False)
    if rv.shape != (1, av.shape[1]):
        raise DimensionError(
            f"broadcast_add_row: row shape {rv.shape} does not match matrix {av.shape}"
        )
    return _record2(
        "broadcast_add_row", a, row, av + rv,
        lambda g, na, nb: (g if na else None, column_sums(g) if nb else None),
    )


def vsum(a: Var) -> Var:
    """Sum of all entries, as 1x1."""
    shape = _value("sum", a).shape
    return _record1("sum", a, a.value.sum(keepdims=True), lambda g: (np.full(shape, g[0, 0]),))


def dot(a: Var, b: Var) -> Var:
    av, bv = _values("dot", a, b)
    val = (av * bv).sum(keepdims=True)
    return _record2(
        "dot", a, b, val,
        lambda g, na, nb: (g[0, 0] * bv if na else None, g[0, 0] * av if nb else None),
    )


def vexp(a: Var) -> Var:
    out = np.exp(_operand("exp", a))
    return _record1("exp", a, out, lambda g: (out * g,))


def vlog(a: Var) -> Var:
    av = _value("log", a)
    if np.any(av <= 0.0):
        _fail("log: non-positive operand", a)
    return _record1("log", a, np.log(av), lambda g: (g / av,), check=False)


def vtanh(a: Var) -> Var:
    out = np.tanh(_operand("tanh", a))

    def vjp(g):
        # (1 - out * out) * g, in one temporary
        d = out * out
        np.subtract(1.0, d, out=d)
        d *= g
        return (d,)

    return _record1("tanh", a, out, vjp, check=False)


def relu(a: Var) -> Var:
    av = _operand("relu", a)
    mask = av > 0.0
    return _record1(
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
    av = _operand("softplus", a)
    out = np.logaddexp(0.0, av)

    def vjp(g):
        sig = np.array([_sigmoid(v) for v in av.ravel().tolist()]).reshape(av.shape)
        return (sig * g,)

    return _record1("softplus", a, out, vjp, check=False)


def backward(loss: Var) -> dict[int, np.ndarray]:
    """Gradients of a scalar loss with respect to every requires-grad leaf.

    Returns {node id: gradient array}; leaves the loss does not depend on get
    zeros. The pass visits, once each and in descending index order, the
    nodes the loss reaches through nodes that depend on a requires-grad
    leaf, and computes only the products into such nodes. Constants and
    nodes made from constants alone are never visited.
    ``tape.last_visited`` counts the visited nodes, the loss and the
    requires-grad leaves included.

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
    vjps, parents, needs = tape._vjps, tape._parents, tape._needs_grad
    contiguous = np.ascontiguousarray
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
        # unrolled per arity: this loop runs once per node of every training step
        pids = parents[nid]
        if len(pids) == 1:
            (a,), (ca,), cb = pids, vjp(g), None
        else:
            a, b = pids
            ca, cb = vjp(g, needs[a], needs[b])
        if ca is not None:
            prev = grads[a]
            grads[a] = contiguous(ca) if prev is None else prev + ca
        if cb is not None:
            prev = grads[b]
            grads[b] = contiguous(cb) if prev is None else prev + cb
    tape.last_visited = visited
    out = {}
    for nid in tape.leaf_ids:
        g = grads[nid]
        out[nid] = g if g is not None else np.zeros(tape._leaf_shapes[nid])
    return out
