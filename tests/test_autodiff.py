"""Tensor engine tests: primitive gradients, optimizer, checkpoint format."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import molfusion.autodiff as ad
from molfusion.autodiff import (
    Adam,
    CheckpointError,
    DigestMismatchError,
    NotScalarError,
    ShapeMismatchError,
    ParameterStore,
    Tensor,
    backward,
    grad_check,
    load_checkpoint,
    make_rng,
    save_checkpoint,
)
from molfusion.autodiff import optim


def _rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# Primitive gradient sweep: ~50 random points per op via hypothesis seeds,
# which together exceed a thousand checked points across the op set.
UNARY_OPS = {
    "relu": lambda x: ad.relu(x),
    "leaky_relu": lambda x: ad.leaky_relu(x, 0.01),
    "elu": lambda x: ad.elu(x),
    "gelu": lambda x: ad.gelu(x),
    "sigmoid": lambda x: ad.sigmoid(x),
    "softplus": lambda x: ad.softplus(x),
    "sum_all": lambda x: x,
}

BINARY_OPS = {
    "add": ad.add,
    "sub": ad.sub,
    "mul": ad.mul,
    "matmul": None,  # handled separately (shape constraints)
}


class TestPrimitiveGradients:
    @pytest.mark.parametrize("name", sorted(UNARY_OPS))
    @given(seed=st.integers(0, 49))
    @settings(max_examples=50, deadline=None)
    def test_unary(self, name, seed):
        rng = make_rng(seed)
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = _rand(rng, rows, cols)
        # keep away from relu/leaky kinks where finite differences lie
        if name in ("relu", "leaky_relu", "elu"):
            x.data[np.abs(x.data) < 0.05] += 0.1
        op = UNARY_OPS[name]
        report = grad_check(lambda: ad.sum_(ad.mul(op(x), op(x))), {"x": x}, rtol=1e-5, atol=1e-8)
        assert report.passed, f"{name}: {report.summary()}"

    @pytest.mark.parametrize("name", ["add", "sub", "mul"])
    @given(seed=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_binary_with_broadcast(self, name, seed):
        rng = make_rng(seed + 1000)
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = _rand(rng, rows, cols)
        b = _rand(rng, 1, cols) if seed % 2 else _rand(rng, rows, cols)
        op = BINARY_OPS[name]
        report = grad_check(lambda: ad.sum_(ad.mul(op(a, b), op(a, b))), {"a": a, "b": b},
                            rtol=1e-5, atol=1e-8)
        assert report.passed, f"{name}: {report.summary()}"

    @given(seed=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_matmul(self, seed):
        rng = make_rng(seed + 2000)
        n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
        a, b = _rand(rng, n, k), _rand(rng, k, m)
        report = grad_check(lambda: ad.sum_(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                            {"a": a, "b": b}, rtol=1e-5, atol=1e-8)
        assert report.passed

    def test_three_chained_matmuls_meet_finite_differences(self):
        rng = make_rng(44)
        x = Tensor(rng.standard_normal((2, 3)))
        a, b, c = _rand(rng, 3, 4), _rand(rng, 4, 5), _rand(rng, 5, 2)
        report = grad_check(lambda: ad.sum_(ad.matmul(ad.matmul(ad.matmul(x, a), b), c)),
                            {"a": a, "b": b, "c": c}, rtol=1e-4, atol=1e-8)
        assert report.passed, report.summary()

    @given(seed=st.integers(0, 19))
    @settings(max_examples=20, deadline=None)
    def test_concat_and_gather(self, seed):
        rng = make_rng(seed + 4000)
        a, b = _rand(rng, 3, 2), _rand(rng, 2, 2)
        idx = np.array([0, 2, 2, 4, 1])

        def f():
            stacked = ad.concat([a, b], axis=0)
            picked = ad.gather_rows(stacked, idx)
            return ad.sum_(ad.mul(picked, picked))

        report = grad_check(f, {"a": a, "b": b}, rtol=1e-5, atol=1e-8)
        assert report.passed

    @given(seed=st.integers(0, 19))
    @settings(max_examples=20, deadline=None)
    def test_segment_sum_and_broadcast(self, seed):
        rng = make_rng(seed + 5000)
        x = _rand(rng, 6, 3)
        seg = np.array([0, 0, 1, 2, 2, 2])

        def f():
            pooled = ad.segment_sum(x, seg, 3)
            wide = ad.gather_rows(pooled, np.zeros(4, int))
            return ad.sum_(ad.mul(wide, wide))

        report = grad_check(f, {"x": x}, rtol=1e-5, atol=1e-8)
        assert report.passed


class TestOpSemantics:
    def test_softmax_uniform(self):
        s = ad.segment_softmax(Tensor([[1.0], [1.0], [1.0]]), np.zeros(3, int), 1)
        assert np.allclose(s.data, 1 / 3)

    def test_relu_and_leaky(self):
        assert ad.relu(Tensor([[-2.0]])).data[0, 0] == 0.0
        assert ad.leaky_relu(Tensor([[-2.0]]), 0.01).data[0, 0] == pytest.approx(-0.02)

    def test_tanh_grad_at_zero(self):
        x = Tensor([[0.0]], requires_grad=True)
        one, zero = Tensor([[1.0]]), Tensor([[0.0]])
        backward(ad.dyt(x, one, one, zero))  # identity parameters: tanh(x)
        assert x.grad[0, 0] == pytest.approx(1.0)

    def test_linear_map_grad_structure(self):
        rng = make_rng(0)
        w = _rand(rng, 3, 4)
        x = Tensor(rng.standard_normal((4, 1)))
        backward(ad.sum_(ad.matmul(w, x)))
        assert np.allclose(w.grad, np.tile(x.data.T, (3, 1)))

    def test_unreachable_parameter_zero_grad(self):
        p = Tensor(np.ones((2, 2)), requires_grad=True)
        q = Tensor(np.ones((2, 2)), requires_grad=True)
        backward(ad.sum_(ad.mul(p, p)))
        assert q.grad is None

    def test_backward_accumulates_until_zeroed(self):
        x = Tensor([[2.0]], requires_grad=True)
        backward(ad.sum_(ad.mul(x, x)))
        first = x.grad.copy()
        backward(ad.sum_(ad.mul(x, x)))
        assert np.allclose(x.grad, 2 * first)
        x.zero_grad()
        assert x.grad is None

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = Tensor([[2.0]], requires_grad=True)
        y = ad.sigmoid(x)
        loss = ad.sum_(ad.mul(y, y))
        backward(loss)
        first = x.grad.copy()
        with pytest.raises(ad.GraphConsumedError, match="'sum'"):
            backward(loss)
        with pytest.raises(ad.GraphConsumedError, match="'sigmoid'"):  # a new graph over y
            backward(ad.sum_(ad.mul(y, Tensor(3.0))))
        assert np.array_equal(x.grad, first)  # neither attempt changed a gradient

    def test_backward_frees_intermediates_keeps_leaves(self):
        x = Tensor([[1.0, -2.0]], requires_grad=True)
        y = ad.mul(x, x)
        backward(ad.sum_(y))
        assert y.grad is None and y._parents == ()
        assert np.array_equal(x.grad, [[2.0, -4.0]])
        assert np.array_equal(y.data, [[1.0, 4.0]])  # values stay readable

    def test_no_grad_records_nothing_and_resumes(self):
        x = Tensor([[1.5]], requires_grad=True)
        with ad.no_grad():
            y = ad.mul(x, x)
        assert not y.requires_grad and y._parents == () and y._backward is None
        assert y.data[0, 0] == 2.25
        with pytest.raises(KeyError):
            with ad.no_grad():
                raise KeyError("inside")
        z = ad.mul(x, x)
        assert z.requires_grad and z._parents == (x, x)
        backward(ad.sum_(z))
        assert x.grad[0, 0] == 3.0

    def test_not_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(NotScalarError):
            backward(ad.mul(x, x))

    def test_shape_mismatch_message_has_both_shapes(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeMismatchError) as err:
            ad.matmul(a, b)
        assert "(2, 3)" in str(err.value)
        for a_shape, b_shape in [((2, 3, 4), (2, 4, 5)), ((2, 3, 4), (4, 5)), ((3, 4), (2, 4, 5))]:
            with pytest.raises(ShapeMismatchError):  # matrices only
                ad.matmul(Tensor(np.ones(a_shape)), Tensor(np.ones(b_shape)))

    def test_forward_determinism(self):
        rng1, rng2 = make_rng(42), make_rng(42)
        a = rng1.standard_normal((50, 50))
        b = rng2.standard_normal((50, 50))
        assert np.array_equal(a, b)
        x = Tensor(a)
        y1 = ad.gelu(ad.matmul(x, x)).data
        y2 = ad.gelu(ad.matmul(Tensor(b), Tensor(b))).data
        assert np.array_equal(y1, y2)


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones((4, 4)))
        out = ad.dropout(x, 0.5, None)
        assert out is x

    def test_train_expectation_preserved(self):
        rng = make_rng(123)
        x = Tensor(np.ones((100, 1000)))
        kept = ad.dropout(x, 0.3, rng)
        assert kept.data.mean() == pytest.approx(1.0, rel=0.01)

    def test_gradient_respects_mask(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        rng = make_rng(5)
        out = ad.dropout(x, 0.5, rng)
        backward(ad.sum_(out))
        scale = 1.0 / 0.5
        assert set(np.unique(x.grad)) <= {0.0, scale}

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor([[1.0]]), 1.0, make_rng(0))


def _adam_on(values, lr=1e-3):
    """An Adam over a one-parameter store holding ``values``."""
    store = ParameterStore()
    w = store.register("w", np.array(values, dtype=np.float64))
    return Adam(store, lr=lr), w


class TestAdam:
    def test_first_step_magnitude(self):
        opt, w = _adam_on([1.0, -2.0, 3.0])
        before = w.data.copy()
        w.grad[...] = [0.5, -0.01, 100.0]
        opt.step()
        delta = w.data - before
        assert np.all(np.sign(delta) == -np.sign(w.grad))
        assert np.all(np.abs(delta) > 0.999e-3) and np.all(np.abs(delta) <= 1e-3 + 1e-12)

    def test_zero_grad_no_motion(self):
        opt, w = _adam_on([1.0, 2.0])
        for _ in range(10):
            w.grad[...] = 0.0
            opt.step()
        assert np.array_equal(w.data, [1.0, 2.0])

    def test_converges_on_quadratic(self):
        opt, w = _adam_on([0.0], lr=0.1)
        for _ in range(100):
            w.grad[...] = 2 * (w.data - 3.0)
            opt.step()
        assert abs(w.data[0] - 3.0) < 0.5

    def test_one_step_matches_closed_form(self):
        opt, w = _adam_on([[1.0, 2.0]], lr=0.01)
        backward(ad.sum_(ad.mul(w, w)))
        opt.step()
        # after one bias-corrected step m_hat = g and v_hat = g^2
        g = np.array([[2.0, 4.0]])
        assert np.allclose(w.data, np.array([[1.0, 2.0]]) - 0.01 * g / (np.abs(g) + 1e-8))


class _ReferenceAdam:
    """The per-tensor Adam step that the flat one replaced, kept as its reference."""

    def __init__(self, arrays, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.data = [a.copy() for a in arrays]
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0

    def step(self, grads):
        self.t += 1
        m_scale = 1.0 - self.beta1**self.t
        v_scale = 1.0 - self.beta2**self.t
        for data, grad, m, v in zip(self.data, grads, self.m, self.v):
            g = grad if grad is not None else 0.0
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            data -= self.lr * (m / m_scale) / (np.sqrt(v / v_scale) + self.eps)


_SHAPES = st.lists(st.integers(1, 6), max_size=2).map(tuple)  # () is a scalar


@st.composite
def _adam_cases(draw):
    """Shapes, a block size, a split point, per-step gradients (None or drawn)
    and the lane whose buffer gets each gradient."""
    block = draw(st.sampled_from([1, 2, 3, 5, 8, optim.BLOCK]))
    shapes = draw(st.lists(_SHAPES, min_size=1, max_size=5))
    if block == optim.BLOCK:  # tensors that reach and cross a real block edge
        shapes.insert(draw(st.integers(0, len(shapes))),
                      (optim.BLOCK + draw(st.integers(-2, 2)),))
    sizes = [int(np.prod(shape)) for shape in shapes]
    n = sum(sizes)
    ends = np.cumsum(sizes).tolist()
    edges = [0, n, *ends, *range(block, n, block)]
    near = sorted({x + d for x in edges for d in (-1, 0, 1) if 0 <= x + d <= n})
    at = draw(st.one_of(st.sampled_from(near), st.integers(0, n)))
    steps = draw(st.integers(1, 4))
    given_grad = draw(st.lists(st.booleans(), min_size=steps * len(shapes),
                               max_size=steps * len(shapes)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))

    def values(shape):
        x = np.array(rng.standard_normal(shape) * scale)
        x[rng.random(shape) < 0.2] = 0.0
        x[rng.random(shape) < 0.1] = -0.0
        return x

    params = [np.array(rng.standard_normal(shape)) for shape in shapes]
    grads = [[values(shape) if given_grad[k * len(shapes) + i] else None
              for i, shape in enumerate(shapes)] for k in range(steps)]
    lanes = [draw(st.lists(st.integers(0, 1), min_size=len(shapes), max_size=len(shapes)))
             for _ in range(steps)]
    lr = draw(st.sampled_from([1e-3, 0.1]))
    return block, at, params, grads, lanes, lr


class TestFlatAdam:
    @given(case=_adam_cases())
    @settings(max_examples=80, deadline=None)
    def test_blocked_split_steps_are_bit_equal_to_the_per_tensor_reference(self, case):
        block, at, params, grads, lanes, lr = case
        store = ParameterStore()
        tensors = [store.register(f"p{i}", a.copy()) for i, a in enumerate(params)]
        opt = Adam(store, lr=lr)
        n = opt.params.size
        reference = _ReferenceAdam(params, lr)
        with mock.patch.object(optim, "BLOCK", block):
            for step_grads, step_lanes in zip(grads, lanes):
                for lane in (0, 1):  # the other lane's view of each gradient stays zero
                    opt.zero_grad(lane)
                    for t, g, g_lane in zip(tensors, step_grads, step_lanes):
                        if g is not None and g_lane == lane:
                            t.grad[...] = g
                opt.step(at, n)  # the upper range first: the order does not matter
                opt.step(0, at)
                reference.step(step_grads)
                for t, want in zip(tensors, reference.data):
                    assert t.data.shape == want.shape
                    assert t.data.tobytes() == want.tobytes()
        assert {key: (steps, len(m), len(v)) for key, (steps, m, v) in opt.moments.items()} == {
            (0, at): (len(grads), at, at), (at, n): (len(grads), n - at, n - at)}

    def test_parameters_are_views_of_one_flat_buffer(self):
        store = ParameterStore()
        a = store.register("a", np.arange(6.0).reshape(2, 3))
        b = store.register("b", np.array(7.0))
        opt = Adam(store)
        assert opt.params.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0]
        assert np.shares_memory(a.data, opt.params) and np.shares_memory(b.data, opt.params)
        assert a.shape == (2, 3) and b.shape == ()
        b.grad[...] = 1.0
        opt.step()
        assert opt.grads[0].tolist() == [0.0] * 6 + [1.0]
        assert opt.params[6] == b.data < 7.0


class TestGradCheckHarness:
    def test_quadratic_tight(self):
        x = Tensor(np.array([[1.0, -2.0, 0.5]]), requires_grad=True)
        report = grad_check(lambda: ad.sum_(ad.mul(x, x)), {"x": x}, rtol=1e-6, atol=1e-10)
        assert report.passed and report.max_rel_error < 1e-6

    def test_dead_relu_region_passes_under_atol(self):
        x = Tensor(np.array([[-5.0, -3.0]]), requires_grad=True)
        report = grad_check(lambda: ad.sum_(ad.relu(x)), {"x": x}, rtol=1e-5, atol=1e-8)
        assert report.passed

    def test_failure_reported_with_indices(self):
        x = Tensor(np.array([[1.0]]), requires_grad=True)

        def bad():
            # forward uses x^2 but we corrupt the gradient afterwards
            out = ad.sum_(ad.mul(x, x))
            return out

        report = grad_check(bad, {"x": x})
        assert report.passed
        x.zero_grad()

        class Lying(Tensor):
            pass

        y = Tensor(np.array([[1.0]]), requires_grad=True)

        def lying():
            out = ad.mul(y, y)
            wrong = Tensor.__new__(Tensor)
            wrong.data = out.data
            wrong.requires_grad = True
            wrong.grad = None
            wrong._parents = (y,)
            wrong.op_name = "lying"
            wrong._backward = lambda g: None  # never propagates
            return ad.sum_(wrong)

        report = grad_check(lying, {"y": y})
        assert not report.passed
        assert report.failures[0][0] == "y"


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "model.ckpt"
        config = {"model": {"hidden_dim": 8}, "featurize": {"morgan_bits": 64}}
        arrays = {
            "a.w": np.arange(6, dtype=np.float64).reshape(2, 3),
            "b": np.array([[0.5]]),
        }
        save_checkpoint(path, config, arrays)
        loaded_config, loaded = load_checkpoint(path)
        assert loaded_config == config
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])

    def test_deterministic_bytes(self, tmp_path):
        config = {"k": 1}
        arrays = {"w": np.ones((3, 3))}
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, config, arrays)
        save_checkpoint(p2, config, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_digest_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"k": 1}, {"w": np.ones(2)})
        raw = bytearray(path.read_bytes())
        # corrupt the embedded config text ("k": 1 -> "k": 2)
        idx = raw.find(b'"k":1')
        raw[idx + 4 : idx + 5] = b"2"
        path.write_bytes(bytes(raw))
        with pytest.raises(DigestMismatchError):
            load_checkpoint(path)
        config, _ = load_checkpoint(path, force=True)
        assert config == {"k": 2}

    def test_payload_checksum_verified_even_when_forced(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"k": 1}, {"w": np.ones(2)})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # one bit of the last float
        path.write_bytes(bytes(raw))
        for force in (False, True):
            with pytest.raises(CheckpointError, match="payload checksum"):
                load_checkpoint(path, force=force)

    def test_entry_size_must_match_its_shape(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {"a": np.ones(2), "b": np.ones((2, 2))})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"shape":[2,2]', b'"shape":[1,2]'))
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(path)

    def test_version_1_still_loads(self, tmp_path):
        import json as _json
        import struct

        path = tmp_path / "v1.ckpt"
        config = {"k": 1}
        header = {
            "format_version": 1,
            "config_digest": ad.config_digest(config),
            "config": config,
            "tensors": [{"name": "w", "shape": [2], "offset": 0, "nbytes": 16}],
        }
        head = _json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        payload = np.array([1.5, -2.0]).astype("<f8").tobytes()
        path.write_bytes(b"MOLFUSE1" + struct.pack("<I", len(head)) + head + payload)
        loaded_config, arrays = load_checkpoint(path)
        assert loaded_config == config and arrays["w"].tolist() == [1.5, -2.0]
        path.write_bytes(b"MOLFUSE1" + struct.pack("<I", len(head)) + head + payload[:8])
        with pytest.raises(CheckpointError, match="does not fit"):
            load_checkpoint(path)

    def test_little_endian_float64_payload(self, tmp_path):
        import json as _json
        import struct

        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {}, {"w": np.array([1.5, -2.0])})
        raw = path.read_bytes()
        assert raw[:8] == b"MOLFUSE1"
        (hlen,) = struct.unpack("<I", raw[8:12])
        header = _json.loads(raw[12 : 12 + hlen])
        entry = header["tensors"][0]
        start = 12 + hlen + entry["offset"]
        values = struct.unpack("<2d", raw[start : start + 16])
        assert values == (1.5, -2.0)


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _row_softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _assert_oracle(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(np.abs(want).max(initial=0.0), 1.0)


class TestFusedOps:
    """Each fused op against a numpy oracle of the composed expression it
    replaces, and its one-node backward against finite differences."""

    @given(seed=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_linear(self, seed):
        rng = make_rng(seed + 6000)
        n, k, m = (int(rng.integers(1, 5)) for _ in range(3))
        x, w, b = _rand(rng, n, k), _rand(rng, k, m), _rand(rng, 1, m)
        out = ad.linear(x, w, b)
        assert out.op_name == "linear"
        _assert_oracle(out.data, x.data @ w.data + b.data)
        report = grad_check(lambda: ad.sum_(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))),
                            {"x": x, "w": w, "b": b}, rtol=1e-5, atol=1e-8)
        assert report.passed, report.summary()

    @given(seed=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_sparse_linear(self, seed):
        rng = make_rng(seed + 6050)
        n, k, m = (int(rng.integers(1, 6)) for _ in range(3))
        cols = np.sort(rng.choice(k, size=int(rng.integers(0, k + 1)), replace=False))
        block = rng.standard_normal((n, len(cols)))
        w, b = _rand(rng, k, m), _rand(rng, 1, m)

        def f():
            out = ad.sparse_linear(block, cols, w, b)
            return ad.sum_(ad.mul(out, out))

        report = grad_check(f, {"w": w, "b": b}, rtol=1e-5, atol=1e-8)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("pattern", ["none", "one", "all", "some"])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_sparse_linear_matches_the_dense_product(self, pattern, data):
        """Against dense numpy on the zero-filled rows: x @ w + b forward,
        x.T @ g for the weight gradient, exact zeros in every weight row
        outside ``cols``, and the column sum of g for the bias."""
        n, k, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12)), data.draw(
            st.integers(1, 5))
        chosen = {"none": st.just(set()), "one": st.sets(st.integers(0, k - 1), min_size=1,
                                                             max_size=1),
                  "all": st.just(set(range(k))), "some": st.sets(st.integers(0, k - 1))}
        cols = np.array(sorted(data.draw(chosen[pattern])), dtype=np.int64)
        rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
        block = rng.standard_normal((n, len(cols)))
        x = np.zeros((n, k))
        x[:, cols] = block
        w, b = _rand(rng, k, m), _rand(rng, 1, m)
        g = rng.standard_normal((n, m))
        out = ad.sparse_linear(block, cols, w, b)
        assert out.op_name == "sparse_linear"
        _assert_oracle(out.data, x @ w.data + b.data)
        backward(ad.sum_(ad.mul(out, Tensor(g))))
        _assert_oracle(w.grad, x.T @ g)
        assert not w.grad[np.setdiff1d(np.arange(k), cols)].any()
        _assert_oracle(b.grad, g.sum(axis=0, keepdims=True))

    def test_sparse_linear_adds_into_the_rows_of_cols_in_place(self):
        """A preset gradient, signed zeros included: backward keeps the array,
        leaves every row outside ``cols`` with its bits and adds x.T @ g into
        the rows of ``cols``."""
        rng = make_rng(6100)
        k, m, n = 8, 3, 4
        cols = np.array([1, 4, 5])
        block = rng.standard_normal((n, len(cols)))
        w, b = _rand(rng, k, m), _rand(rng, 1, m)
        sentinel = rng.standard_normal((k, m))
        sentinel[[0, 1, 7], 0] = -0.0  # rows 0 and 7 outside ``cols``, row 1 in it
        w.grad = sentinel.copy()
        grad = w.grad
        g = rng.standard_normal((n, m))
        backward(ad.sum_(ad.mul(ad.sparse_linear(block, cols, w, b), Tensor(g))))
        outside = np.setdiff1d(np.arange(k), cols)
        assert w.grad is grad
        assert w.grad[outside].tobytes() == sentinel[outside].tobytes()
        assert np.array_equal(w.grad[cols], sentinel[cols] + block.T @ g)

    def test_sparse_linear_backward_allocates_no_array_of_the_weight_size(self):
        rng = make_rng(6101)
        k, m, n = 1 << 15, 8, 4  # w is 2 MB
        cols = np.array([3, 900, 20000])
        w = Tensor(rng.standard_normal((k, m)), requires_grad=True)
        b = _rand(rng, 1, m)
        w.grad = np.zeros_like(w.data)
        loss = ad.sum_(ad.mul(ad.sparse_linear(rng.standard_normal((n, 3)), cols, w, b),
                              Tensor(rng.standard_normal((n, m)))))
        tracemalloc.start()
        try:
            backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < w.data.nbytes
        assert w.grad[cols].any()

    def test_sparse_linear_checks_the_block_width(self):
        w, b = Tensor(np.ones((4, 2)), requires_grad=True), Tensor(np.zeros((1, 2)))
        with pytest.raises(ShapeMismatchError, match=r"sparse_linear: .*\(1, 3\) vs \(2,\)"):
            ad.sparse_linear(np.ones((1, 3)), np.array([0, 2]), w, b)

    @given(seed=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_dyt(self, seed):
        rng = make_rng(seed + 6100)
        n, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x, alpha = _rand(rng, n, d), _rand(rng, 1, 1)
        gamma, beta = _rand(rng, 1, d), _rand(rng, 1, d)
        _assert_oracle(ad.dyt(x, alpha, gamma, beta).data,
                       gamma.data * np.tanh(alpha.data * x.data) + beta.data)
        w = Tensor(rng.standard_normal((n, d)))
        report = grad_check(lambda: ad.sum_(ad.mul(ad.dyt(x, alpha, gamma, beta), w)),
                            {"x": x, "alpha": alpha, "gamma": gamma, "beta": beta},
                            rtol=1e-5, atol=1e-8)
        assert report.passed, report.summary()

    @staticmethod
    def gru_oracle(x, h, w_z, b_z, w_r, b_r, w_n, b_n):
        xh = np.concatenate([x, h], axis=1)
        z = _sigmoid(xh @ w_z + b_z)
        r = _sigmoid(xh @ w_r + b_r)
        cand = np.tanh(np.concatenate([x, r * h], axis=1) @ w_n + b_n)
        return (1.0 - z) * h + z * cand

    @staticmethod
    def gru_params(rng, k, d):
        """The six ``gru_cell`` parameters by name, weights [k+d, d] and biases [1, d]."""
        return {name: _rand(rng, k + d, d) if name[0] == "w" else _rand(rng, 1, d)
                for name in ("w_z", "b_z", "w_r", "b_r", "w_n", "b_n")}

    @given(seed=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_gru_cell(self, seed):
        rng = make_rng(seed + 6200)
        n, k, d = (int(rng.integers(1, 5)) for _ in range(3))
        x, h = _rand(rng, n, k), _rand(rng, n, d)
        params = self.gru_params(rng, k, d)
        out = ad.gru_cell(x, h, **params)
        _assert_oracle(out.data,
                       self.gru_oracle(x.data, h.data, *(p.data for p in params.values())))
        w = Tensor(rng.standard_normal((n, d)))
        report = grad_check(lambda: ad.sum_(ad.mul(ad.gru_cell(x, h, **params), w)),
                            {"x": x, "h": h, **params}, rtol=1e-5, atol=1e-8)
        assert report.passed, report.summary()

    def test_gru_cell_with_one_tensor_as_input_and_state(self):
        rng = make_rng(6250)
        h = _rand(rng, 3, 4)
        params = self.gru_params(rng, 4, 4)
        _assert_oracle(ad.gru_cell(h, h, **params).data,
                       self.gru_oracle(h.data, h.data, *(p.data for p in params.values())))
        report = grad_check(lambda: ad.sum_(ad.mul(ad.gru_cell(h, h, **params), h)),
                            {"h": h, **params}, rtol=1e-5, atol=1e-8)
        assert report.passed, report.summary()

    @staticmethod
    def segment_softmax_oracle(scores, ids, n):
        out = np.zeros_like(scores)
        for s in range(n):
            rows = ids == s
            if rows.any():
                e = np.exp(scores[rows] - scores[rows].max())
                out[rows] = e / e.sum()
        return out

    @given(seed=st.integers(0, 29))
    @settings(max_examples=30, deadline=None)
    def test_segment_softmax(self, seed):
        rng = make_rng(seed + 6300)
        n = int(rng.integers(1, 5))
        ids = np.sort(rng.integers(0, n, size=int(rng.integers(1, 8))))  # empty segments too
        scores = _rand(rng, len(ids), 1)
        _assert_oracle(ad.segment_softmax(scores, ids, n).data,
                       self.segment_softmax_oracle(scores.data, ids, n))
        w = Tensor(rng.standard_normal((len(ids), 1)))
        report = grad_check(lambda: ad.sum_(ad.mul(ad.segment_softmax(scores, ids, n), w)),
                            {"scores": scores}, rtol=1e-5, atol=1e-8)
        assert report.passed, report.summary()

    def test_edgeless_pack(self):
        """A pack of 1-atom molecules has no edge: segment_softmax gets no
        score, and the GRU folds in the zero context that segment_sum makes."""
        rng = make_rng(6350)
        n, d = 3, 4
        scores = _rand(rng, 0, 1)
        no_ids = np.zeros(0, dtype=np.int64)
        attn = ad.segment_softmax(scores, no_ids, n)
        assert attn.shape == (0, 1)
        members = _rand(rng, 0, d)
        h = _rand(rng, n, d)
        params = self.gru_params(rng, d, d)

        def f():
            context = ad.segment_sum(ad.mul(ad.segment_softmax(scores, no_ids, n), members),
                                     no_ids, n)
            return ad.sum_(ad.mul(ad.gru_cell(context, h, **params), h))

        out = ad.gru_cell(ad.segment_sum(members, no_ids, n), h, **params)
        _assert_oracle(out.data, self.gru_oracle(np.zeros((n, d)), h.data,
                                                 *(p.data for p in params.values())))
        report = grad_check(f, {"h": h, **params}, rtol=1e-5, atol=1e-8)
        assert report.passed, report.summary()
        backward(f())
        assert scores.grad.shape == (0, 1) and members.grad.shape == (0, d)

    @staticmethod
    def attention_oracle(q, k, v, heads, mask, lam=None, adjacency=None):
        d_k = q.shape[1] // heads
        outs, probs = [], []
        for i in range(heads):
            cols = slice(i * d_k, (i + 1) * d_k)
            p = _row_softmax(q[:, cols] @ k[:, cols].T / math.sqrt(d_k) + mask)
            probs.append(p)
            w = p if lam is None else lam[0] * p + lam[1] * adjacency
            outs.append(w @ v[:, cols])
        return np.concatenate(outs, axis=1), np.stack(probs)

    @pytest.mark.parametrize("blend", [False, True], ids=["plain", "blend"])
    @given(seed=st.integers(0, 19))
    @settings(max_examples=20, deadline=None)
    def test_attention(self, blend, seed):
        """Random sizes down to m = n = 1, under a block-diagonal mask."""
        rng = make_rng(seed + 6400)
        heads, d_k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        sizes = rng.integers(1, 4, size=int(rng.integers(1, 4)))
        ids = np.repeat(np.arange(len(sizes)), sizes)
        same = ids[:, None] == ids[None, :]
        mask = np.where(same, 0.0, -1e30)
        adjacency = rng.uniform(size=same.shape) * same
        n, width = len(ids), heads * d_k
        q, k, v = (_rand(rng, n, width) for _ in range(3))
        lambdas = {"lambda_attn": _rand(rng, 1, 1), "lambda_adj": _rand(rng, 1, 1)} if blend else {}
        extra = (*lambdas.values(), adjacency) if blend else ()
        out, seen = ad.attention(q, k, v, heads, mask, *extra)
        lam = [float(t.data[0, 0]) for t in lambdas.values()] if blend else None
        want, probs = self.attention_oracle(q.data, k.data, v.data, heads, mask, lam, adjacency)
        _assert_oracle(out.data, want)
        _assert_oracle(seen, probs)
        w = Tensor(rng.standard_normal((n, width)))
        report = grad_check(
            lambda: ad.sum_(ad.mul(ad.attention(q, k, v, heads, mask, *extra)[0], w)),
            {"q": q, "k": k, "v": v, **lambdas}, rtol=1e-5, atol=1e-8,
        )
        assert report.passed, report.summary()

    def test_attention_one_query_one_key(self):
        rng = make_rng(6450)
        q, k, v = (_rand(rng, 1, 6) for _ in range(3))
        lam_attn, lam_adj = _rand(rng, 1, 1), _rand(rng, 1, 1)
        out, _ = ad.attention(q, k, v, 2, np.zeros((1, 1)), lam_attn, lam_adj, np.ones((1, 1)))
        scale = lam_attn.data[0, 0] + lam_adj.data[0, 0]  # the one weight is 1 before the blend
        _assert_oracle(out.data, scale * v.data)
        report = grad_check(
            lambda: ad.sum_(ad.mul(ad.attention(q, k, v, 2, np.zeros((1, 1)), lam_attn, lam_adj,
                                                np.ones((1, 1)))[0], v)),
            {"q": q, "k": k, "v": v, "lambda_attn": lam_attn, "lambda_adj": lam_adj},
            rtol=1e-5, atol=1e-8,
        )
        assert report.passed, report.summary()
        backward(ad.sum_(ad.attention(q, k, v, 2, np.zeros((1, 1)))[0]))
        assert not q.grad.any() and not k.grad.any()  # one key: the weight is constant


class TestGradientPrimitives:
    def test_shared_gradient_array_stays_separate(self):
        """``add`` hands one array to both parents; a second contribution to
        one leaf must not reach the other."""
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
        w = Tensor(np.array([[5.0, 7.0]]))
        backward(ad.sum_(ad.mul(ad.add(a, b), w)))
        assert np.array_equal(a.grad, w.data) and np.array_equal(b.grad, w.data)
        backward(ad.sum_(ad.mul(a, a)))
        assert np.array_equal(a.grad, w.data + 2 * a.data)
        assert np.array_equal(b.grad, w.data)

    def test_gradients_over_two_chunks_are_the_sum(self):
        """Two leaves fed by one ``add``, over two backward passes: each leaf
        ends with the sum of its two gradients, as if accumulated one by one."""
        rng = make_rng(7000)
        a, b = _rand(rng, 3, 4), _rand(rng, 3, 4)
        weights = [rng.standard_normal((3, 4)) for _ in range(2)]
        for w in weights:
            backward(ad.sum_(ad.mul(ad.add(a, b), Tensor(w))))
        assert np.array_equal(a.grad, weights[0] + weights[1])
        assert np.array_equal(b.grad, weights[0] + weights[1])
        assert a.grad is not b.grad

    def test_a_leaf_owns_its_gradient_and_adds_into_it_in_place(self):
        """``add`` hands one array to both parents; each leaf keeps its own
        copy, and a second backward adds into that same array."""
        x = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        y = Tensor(np.array([[3.0, 4.0]]), requires_grad=True)
        backward(ad.sum_(ad.add(x, y)))
        assert not np.shares_memory(x.grad, y.grad)
        grad = x.grad
        backward(ad.sum_(ad.add(x, y)))
        assert x.grad is grad and np.array_equal(grad, [[2.0, 2.0]])

    def test_sigmoid_matches_the_masked_form_bit_for_bit(self):
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            e = np.exp(x[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        special = np.array([0.0, -0.0, np.inf, -np.inf, 1e-320, -1e-320, 36.0, -36.0,
                            709.0, -709.0, 745.0, -745.0, 1e308, -1e308])
        x = np.concatenate([special, make_rng(7100).standard_normal(4000) * 40.0])
        with np.errstate(under="ignore"):
            got, want = ad.sigmoid(Tensor(x)).data, masked(x)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert np.isnan(ad.sigmoid(Tensor([np.nan])).data).all()

    @given(seed=st.integers(0, 19))
    @settings(max_examples=20, deadline=None)
    def test_scatter_adds_match_add_at(self, seed):
        rng = make_rng(seed + 7200)
        n, rows = int(rng.integers(1, 70)), int(rng.integers(0, 140))
        ids = rng.integers(0, n, size=rows)
        a = _rand(rng, rows, int(rng.integers(1, 65)))
        want = np.zeros((n, a.shape[1]))
        np.add.at(want, ids, a.data)
        bound = 1e-15 * rows * max(np.abs(a.data).max(initial=0.0), 1.0)
        assert np.abs(ad.segment_sum(a, ids, n).data - want).max(initial=0.0) <= bound
        source = _rand(rng, n, a.shape[1])
        backward(ad.sum_(ad.mul(ad.gather_rows(source, ids), a)))  # scatters a into source
        assert np.abs(source.grad - want).max(initial=0.0) <= bound

    def test_a_non_finite_row_stays_in_its_segment(self):
        """Under ``filterwarnings = error``, a numpy warning would fail this too."""
        pooled = ad.segment_sum(Tensor([[np.inf], [1.0]]), np.array([0, 1]), 2)
        assert np.array_equal(pooled.data, [[np.inf], [1.0]])

    def test_a_non_finite_gradient_row_stays_in_its_source_row(self):
        source = Tensor([[1.0], [2.0]], requires_grad=True)
        backward(ad.sum_(ad.mul(ad.gather_rows(source, np.array([0, 1])),
                                Tensor([[np.inf], [1.0]]))))
        assert np.array_equal(source.grad, [[np.inf], [1.0]])
