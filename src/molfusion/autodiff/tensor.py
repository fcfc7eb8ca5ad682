"""Dense tensors with a reverse-mode gradient tape.

Values are float64 numpy arrays. Each operation records its parents and a
backward closure; ``backward`` on a scalar walks the tape in reverse
topological order and accumulates exact analytic gradients into the leaves
(tensors made with ``requires_grad=True``), where they add up across calls
until ``zero_grad``: a leaf owns its gradient array and adds into it in place
(``optim.Adam.zero_grad`` makes it a view of a lane's buffer), while no
intermediate's gradient is written in place. ``backward`` consumes the graph
it walks: each intermediate drops its gradient, closure and parents once
propagated, so the tape's memory is freed as it goes. Inside ``no_grad()``
no op records a tape.

At the sizes a molecule batch has (N <= 64 rows), the cost of a tape node
outweighs its arithmetic, so the model's blocks are fused ops, each one node
with a hand-written backward: ``linear``, ``sparse_linear``, ``dyt``,
``gru_cell``, ``segment_softmax`` and ``attention``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = True


class ShapeMismatchError(ValueError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class NotScalarError(ValueError):
    pass


class GraphConsumedError(RuntimeError):
    pass


@contextmanager
def no_grad():
    """Run ops without recording parents or closures (eval forwards)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "op_name")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self.op_name = "leaf"

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self.op_name}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, op: str) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out.grad = None
    out.op_name = op
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
    else:
        out._parents = ()
        out._backward = None
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``. A leaf owns its gradient: it copies the first
    and adds later ones in place. An intermediate keeps the first as given and
    adds later ones out of place, since ``add`` hands one array to both parents."""
    if t._backward is not None:
        t.grad = g if t.grad is None else t.grad + g
    elif t.grad is None:
        t.grad = np.array(g)
    else:
        t.grad += g


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _consumed(g) -> None:
    """The closure of an op whose graph ``backward`` has already walked."""


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d t into ``t.grad`` for every reachable leaf.

    The graph is consumed: each intermediate drops its gradient, closure and
    parents once propagated. A later ``backward`` that reaches one of those
    intermediates raises ``GraphConsumedError`` before changing any gradient.
    """
    if loss.size != 1:
        raise NotScalarError(f"backward needs a scalar, got shape {loss.shape}")
    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _consumed:
            raise GraphConsumedError(
                f"backward reached the output of {node.op_name!r}, whose graph an earlier "
                "backward already consumed; run the forward again"
            )
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))
    _accumulate(loss, np.ones_like(loss.data))
    while topo:  # reverse topological order; popping frees each node once done
        node = topo.pop()
        if node._backward is not None:
            node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()


# -- arithmetic ------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(data, (a, b), back, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(data, (a, b), back, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), back, "mul")




def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Product of two matrices, ``[n, k] @ [k, m]``."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.T)
        if b.requires_grad:
            _accumulate(b, a.data.T @ g)

    return _make(data, (a, b), back, "matmul")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def back(g):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(start, stop)
                _accumulate(t, g[tuple(idx)])

    return _make(data, tuple(tensors), back, "concat")


def _scatter_add(ids: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """``rows`` summed into ``n`` buckets by ``ids``.

    A matmul with the [n, len(ids)] one-hot matrix is faster than
    ``np.add.at`` at these sizes, but it would spread a non-finite row into
    every bucket (0 * inf is nan), so such input takes ``np.add.at``.
    """
    if np.isfinite(rows).all():
        return (np.arange(n)[:, None] == ids).astype(np.float64) @ rows
    out = np.zeros((n, *rows.shape[1:]))
    np.add.at(out, ids, rows)
    return out


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Rows a[indices] for a 1-D index; backward scatter-adds into the source rows."""
    indices = np.asarray(indices, dtype=np.int64)

    def back(g):
        _accumulate(a, _scatter_add(indices, a.shape[0], g))

    return _make(a.data[indices], (a,), back, "gather_rows")


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets by ``segment_ids``."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if a.data.ndim != 2 or len(segment_ids) != a.shape[0]:
        raise ShapeMismatchError("segment_sum", a.shape, (len(segment_ids),))
    data = _scatter_add(segment_ids, num_segments, a.data)

    def back(g):
        _accumulate(a, g[segment_ids])

    return _make(data, (a,), back, "segment_sum")


def sum_(a: Tensor) -> Tensor:
    """The sum of every entry, a 0-d tensor."""

    def back(g):
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(np.asarray(a.data.sum()), (a,), back, "sum")


# -- nonlinearities ----------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def back(g):
        _accumulate(a, g * mask)

    return _make(a.data * mask, (a,), back, "relu")


def leaky_relu(a: Tensor, slope: float = 0.01) -> Tensor:
    mask = a.data > 0
    scale = np.where(mask, 1.0, slope)

    def back(g):
        _accumulate(a, g * scale)

    return _make(a.data * scale, (a,), back, "leaky_relu")


def elu(a: Tensor, alpha: float = 1.0) -> Tensor:
    neg_part = alpha * np.expm1(np.minimum(a.data, 0.0))
    data = np.where(a.data > 0, a.data, neg_part)

    def back(g):
        _accumulate(a, g * np.where(a.data > 0, 1.0, neg_part + alpha))

    return _make(data, (a,), back, "elu")


_GELU_C = 0.7978845608028654  # sqrt(2/pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Tanh-form gelu: 0.5 x (1 + tanh(sqrt(2/pi) (x + 0.044715 x^3)))."""
    x = a.data
    inner = _GELU_C * (x + _GELU_A * (x * x * x))
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def back(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner
        _accumulate(a, g * local)

    return _make(data, (a,), back, "gelu")



def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data)

    def back(g):
        _accumulate(a, g * s * (1.0 - s))

    return _make(s, (a,), back, "sigmoid")


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    """1/(1+e^-x) without overflow: e^-|x| never exceeds 1."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably as max(x, 0) + log1p(e^-|x|)."""
    data = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    s = _sigmoid_np(a.data)

    def back(g):
        _accumulate(a, g * s)

    return _make(data, (a,), back, "softplus")


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout: each entry is kept with probability 1-rate, drawn
    from ``rng``, and scaled by 1/(1-rate). With no ``rng`` (eval) or a zero
    rate it is the identity and returns ``a`` itself."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    scale = 1.0 / (1.0 - rate)

    def back(g):
        _accumulate(a, g * keep * scale)

    return _make(a.data * keep * scale, (a,), back, "dropout")


# -- fused blocks --------------------------------------------------------------
#
# Each records one tape node. Forward values follow the composed expression
# in its docstring step by step; backward is that expression's chain rule
# written out.


def _give(*pairs) -> None:
    """Accumulate each (tensor, gradient) pair whose tensor takes gradients."""
    for t, g in pairs:
        if t.requires_grad:
            _accumulate(t, g)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for rows x [n, in], w [in, out] and a bias row b [1, out]."""
    data = x.data @ w.data
    data += b.data

    def back(g):
        if x.requires_grad:  # not for an input layer, where it would be the widest product
            _accumulate(x, g @ w.data.T)
        _give((w, x.data.T @ g), (b, _unbroadcast(g, b.shape)))

    return _make(data, (x, w, b), back, "linear")


def sparse_linear(block: np.ndarray, cols: np.ndarray, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b for input rows x [n, in] that are zero outside the sorted,
    distinct columns ``cols``, given as their values ``block`` [n, len(cols)]:
    block @ w[cols] + b. Backward adds into rows ``cols`` of the leaf w's
    gradient in place; the input takes no gradient."""
    if block.ndim != 2 or block.shape[1] != len(cols):
        raise ShapeMismatchError("sparse_linear", block.shape, cols.shape)
    data = block @ w.data[cols]
    data += b.data

    def back(g):
        if w.requires_grad:
            if w.grad is None:
                w.grad = np.zeros_like(w.data)
            w.grad[cols] += block.T @ g  # the rows are distinct
        _give((b, _unbroadcast(g, b.shape)))

    return _make(data, (w, b), back, "sparse_linear")


def dyt(x: Tensor, alpha: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Dynamic tanh, gamma * tanh(alpha * x) + beta (Zhu et al. 2025), with a
    scalar alpha [1, 1] and per-column gamma, beta [1, d]."""
    t = np.tanh(alpha.data * x.data)
    data = gamma.data * t + beta.data

    def back(g):
        g_u = g * gamma.data * (1.0 - t**2)
        _give(
            (x, g_u * alpha.data),
            (alpha, _unbroadcast(g_u * x.data, alpha.shape)),
            (gamma, _unbroadcast(g * t, gamma.shape)),
            (beta, _unbroadcast(g, beta.shape)),
        )

    return _make(data, (x, alpha, gamma, beta), back, "dyt")


def gru_cell(x: Tensor, h: Tensor, w_z: Tensor, b_z: Tensor, w_r: Tensor, b_r: Tensor,
             w_n: Tensor, b_n: Tensor) -> Tensor:
    """Gated recurrent update of row states h [n, d] by inputs x [n, k]:

    z = sigmoid([x || h] W_z + b_z);  r = sigmoid([x || h] W_r + b_r);
    c = tanh([x || r*h] W_n + b_n);   h' = (1 - z) * h + z * c.

    Both gates come from one product with [W_z W_r].
    """
    k, d = x.shape[1], h.shape[1]
    xh = np.concatenate([x.data, h.data], axis=1)
    w_zr = np.concatenate([w_z.data, w_r.data], axis=1)
    zr = _sigmoid_np(xh @ w_zr + np.concatenate([b_z.data, b_r.data], axis=1))
    z, r = zr[:, :d], zr[:, d:]
    xrh = np.concatenate([x.data, r * h.data], axis=1)
    c = np.tanh(xrh @ w_n.data + b_n.data)
    data = (1.0 - z) * h.data + z * c

    def back(g):
        g_n = g * z * (1.0 - c**2)  # through c
        g_w_n = xrh.T @ g_n
        g_xrh = g_n @ w_n.data.T
        g_rh = g_xrh[:, k:]
        g_zr = np.concatenate([(g * c - g * h.data) * z * (1.0 - z),
                               g_rh * h.data * r * (1.0 - r)], axis=1)
        g_w_zr = xh.T @ g_zr
        g_b_zr = _unbroadcast(g_zr, (1, 2 * d))
        g_xh = g_zr @ w_zr.T
        _give(
            (x, g_xh[:, :k] + g_xrh[:, :k]),
            (h, g * (1.0 - z) + g_rh * r + g_xh[:, k:]),
            (w_z, g_w_zr[:, :d]), (b_z, g_b_zr[:, :d]),
            (w_r, g_w_zr[:, d:]), (b_r, g_b_zr[:, d:]),
            (w_n, g_w_n), (b_n, _unbroadcast(g_n, b_n.shape)),
        )

    return _make(data, (x, h, w_z, b_z, w_r, b_r, w_n, b_n), back, "gru_cell")


def segment_softmax(scores: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Softmax of [E, 1] scores within each segment of ``segment_ids``.

    Each segment's max is subtracted first, which leaves the result and its
    gradient unchanged; an empty segment gets no row.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segment_ids, scores.data[:, 0])
    e = np.exp(scores.data - seg_max[segment_ids][:, None])
    denom = np.bincount(segment_ids, weights=e[:, 0], minlength=num_segments)
    y = e / denom[segment_ids][:, None]

    def back(g):
        dot = np.bincount(segment_ids, weights=(g * y)[:, 0], minlength=num_segments)
        _accumulate(scores, y * (g - dot[segment_ids][:, None]))

    return _make(y, (scores,), back, "segment_softmax")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, mask: np.ndarray,
              lambda_attn: Tensor | None = None, lambda_adj: Tensor | None = None,
              adjacency: np.ndarray | None = None) -> tuple[Tensor, np.ndarray]:
    """Scaled dot-product attention of queries [m, heads*d_k] over keys and
    values [n, heads*d_k], all heads stacked.

    Head i reads columns i*d_k:(i+1)*d_k. Its weights are
    P_i = softmax(Q_i K_i^T / sqrt(d_k) + mask), where the additive ``mask``
    [m, n] shuts out the keys a query must not see. With ``lambda_attn`` and
    ``lambda_adj`` ([1, 1] each) the values are weighted by
    lambda_attn * P_i + lambda_adj * adjacency instead. Returns the result
    [m, heads*d_k], head i in its own columns, and the [heads, m, n]
    probabilities P before any blend, which the caller must not write to.
    Backward keeps P, since recomputing it costs more than storing it at
    these sizes.
    """
    m, width = q.shape
    n = k.shape[0]
    d_k = width // heads
    q_h = q.data.reshape(m, heads, d_k).transpose(1, 0, 2).copy()  # [heads, m, d_k]
    k_t = k.data.reshape(n, heads, d_k).transpose(1, 2, 0).copy()  # [heads, d_k, n]
    v_h = v.data.reshape(n, heads, d_k).transpose(1, 0, 2).copy()  # [heads, n, d_k]
    scale = 1.0 / math.sqrt(d_k)
    scores = (q_h @ k_t) * scale + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    blend = lambda_attn is not None
    weights = lambda_attn.data * p + lambda_adj.data * adjacency if blend else p
    data = (weights @ v_h).transpose(1, 0, 2).reshape(m, width)

    def back(g):
        g_h = np.ascontiguousarray(g.reshape(m, heads, d_k).transpose(1, 0, 2))
        g_w = g_h @ v_h.transpose(0, 2, 1)  # [heads, m, n]
        g_v = weights.transpose(0, 2, 1) @ g_h  # [heads, n, d_k]
        if blend:
            _give((lambda_attn, _unbroadcast(g_w * p, lambda_attn.shape)),
                  (lambda_adj, _unbroadcast(g_w.sum(axis=0) * adjacency, lambda_adj.shape)))
            g_w = g_w * lambda_attn.data
        g_s = p * (g_w - (g_w * p).sum(axis=-1, keepdims=True)) * scale  # through the softmax
        _give((q, (g_s @ k_t.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(m, width)),
              (k, (q_h.transpose(0, 2, 1) @ g_s).transpose(2, 0, 1).reshape(n, width)),
              (v, g_v.transpose(1, 0, 2).reshape(n, width)))

    parents = (q, k, v, lambda_attn, lambda_adj) if blend else (q, k, v)
    return _make(data, parents, back, "attention"), p
