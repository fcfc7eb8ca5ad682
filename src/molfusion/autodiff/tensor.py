"""Dense tensors with a reverse-mode gradient tape.

Values are float64 numpy arrays. Each operation records its parents and a
backward closure; ``backward`` on a scalar walks the tape in reverse
topological order and accumulates exact analytic gradients into the leaves
(tensors made with ``requires_grad=True``), where they add up across calls
until ``zero_grad``. ``backward`` consumes the graph it walks: each
intermediate drops its gradient, closure and parents once propagated, so the
tape's memory is freed as it goes. Inside ``no_grad()`` no op records a tape.
"""

from __future__ import annotations

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

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, _as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self, axis=None, keepdims=False):
        return sum_(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return mean(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def backward(self) -> None:
        backward(self)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
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


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), back, "div")


def neg(a: Tensor) -> Tensor:
    def back(g):
        _accumulate(a, -g)

    return _make(-a.data, (a,), back, "neg")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of 2-D operands, of two stacks of matrices whose leading
    axes match (``[s, n, k] @ [s, k, m]``, one product per slice), or of a
    stack and one matrix (``[s, n, k] @ [k, m]``, the matrix shared)."""
    shared = b.data.ndim == 2 and a.data.ndim > 2
    if (a.data.ndim < 2 or a.shape[-1] != b.shape[-2]
            or not shared and (a.data.ndim != b.data.ndim or a.shape[:-2] != b.shape[:-2])):
        raise ShapeMismatchError("matmul", a.shape, b.shape)
    data = a.data @ b.data

    def back(g):
        if a.requires_grad:
            _accumulate(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad and shared:
            _accumulate(b, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
        elif b.requires_grad:
            _accumulate(b, np.swapaxes(a.data, -1, -2) @ g)

    return _make(data, (a, b), back, "matmul")


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute the axes (reverse them when ``axes`` is None); the result is contiguous."""
    inverse = None if axes is None else tuple(np.argsort(axes))

    def back(g):
        _accumulate(a, np.transpose(g, inverse))

    return _make(np.transpose(a.data, axes).copy(), (a,), back, "transpose")


def reshape(a: Tensor, shape) -> Tensor:
    def back(g):
        _accumulate(a, g.reshape(a.shape))

    return _make(a.data.reshape(shape), (a,), back, "reshape")


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


def gather_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Rows a[indices], shaped ``indices.shape + a.shape[1:]`` (any index
    shape); backward scatter-adds into the source rows."""
    indices = np.asarray(indices, dtype=np.int64)

    def back(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, indices, g)
        _accumulate(a, ga)

    return _make(a.data[indices], (a,), back, "gather_rows")


def segment_sum(a: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Sum rows of ``a`` into ``num_segments`` buckets by ``segment_ids``."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    if a.data.ndim != 2 or len(segment_ids) != a.shape[0]:
        raise ShapeMismatchError("segment_sum", a.shape, (len(segment_ids),))
    data = np.zeros((num_segments, a.shape[1]), dtype=a.data.dtype)
    np.add.at(data, segment_ids, a.data)

    def back(g):
        _accumulate(a, g[segment_ids])

    return _make(data, (a,), back, "segment_sum")


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def back(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(np.asarray(data), (a,), back, "sum")


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.size if axis is None else a.shape[axis]
    out = sum_(a, axis, keepdims)
    return mul(out, Tensor(1.0 / count))


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


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def back(g):
        _accumulate(a, g * (1.0 - t**2))

    return _make(t, (a,), back, "tanh")


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data)

    def back(g):
        _accumulate(a, g * s * (1.0 - s))

    return _make(s, (a,), back, "sigmoid")


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably as max(x, 0) + log1p(e^-|x|)."""
    data = np.maximum(a.data, 0.0) + np.log1p(np.exp(-np.abs(a.data)))
    s = _sigmoid_np(a.data)

    def back(g):
        _accumulate(a, g * s)

    return _make(data, (a,), back, "softplus")


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)

    def back(g):
        _accumulate(a, g * e)

    return _make(e, (a,), back, "exp")


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(a, y * (g - dot))

    return _make(y, (a,), back, "softmax")


def layer_norm(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean, unit variance."""
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv

    def back(g):
        d = a.shape[-1]
        gx = (inv / d) * (d * g - g.sum(axis=-1, keepdims=True) - xhat * (g * xhat).sum(axis=-1, keepdims=True))
        _accumulate(a, gx)

    return _make(xhat, (a,), back, "layer_norm")


def dropout(a: Tensor, rate: float, rng: np.random.Generator, train: bool) -> Tensor:
    """Inverted dropout: scales kept entries by 1/(1-rate); identity in eval."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return a
    keep = rng.random(a.shape) >= rate
    scale = 1.0 / (1.0 - rate)

    def back(g):
        _accumulate(a, g * keep * scale)

    return _make(a.data * keep * scale, (a,), back, "dropout")
