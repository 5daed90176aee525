"""Numeric-core tests: forward values, adjoints vs central differences,
tape isolation across threads, and the Adam update."""

import sys
import threading

import numpy as np
import pytest

from graphcap import autodiff as ad
from graphcap.errors import NumericError, ShapeError
from graphcap.gradcheck import grad_check
from graphcap.optim import OptimizerState, adam_step


def fd_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return g


class TestForwardValues:
    def test_softmax_symmetric(self):
        out = ad.softmax(ad.tensor([0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_relu(self):
        out = ad.relu(ad.tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_matmul_ones(self):
        out = ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((3, 1))))
        np.testing.assert_array_equal(out.data, [[3.0], [3.0]])

    def test_softmax_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(7, 5)) * 10
        out = ad.softmax(ad.tensor(x)).data
        assert out.min() >= 0
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((2, 3))))
        with pytest.raises(ShapeError):
            ad.add(ad.tensor(np.ones(3)), ad.tensor(np.ones(4)))

    def test_nonfinite_raises(self):
        with pytest.raises(NumericError):
            ad.log(ad.tensor([0.0]))
        with pytest.raises(NumericError):
            ad.div(ad.tensor([1.0]), ad.tensor([0.0]))


class TestBackward:
    def test_square(self):
        x = ad.parameter([3.0])
        with ad.record() as tape:
            loss = ad.tsum(ad.mul(x, x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_sum_of_softmax_grad_vanishes(self):
        x = ad.parameter([0.3, -1.2, 2.0, 0.0])
        with ad.record() as tape:
            loss = ad.tsum(ad.softmax(x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, 0.0, atol=1e-15)

    def test_three_layer_composite_matches_fd(self):
        rng = np.random.default_rng(7)
        w1 = ad.parameter(rng.normal(size=(4, 5)))
        w2 = ad.parameter(rng.normal(size=(5, 3)))
        w3 = ad.parameter(rng.normal(size=(3,)))
        x = ad.tensor(rng.normal(size=(2, 4)))

        def f():
            h1 = ad.tanh(ad.matmul(x, w1))
            h2 = ad.sigmoid(ad.matmul(h1, w2))
            return ad.tsum(ad.matmul(h2, w3))

        assert grad_check(f, [w1, w2, w3], eps=1e-5) < 1e-6

    def test_accumulation_without_reset(self):
        x = ad.parameter([2.0])
        for _ in range(2):
            with ad.record() as tape:
                loss = ad.tsum(ad.mul(x, x))
            ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [8.0])
        x.zero_grad()
        with ad.record() as tape:
            loss = ad.tsum(ad.mul(x, x))
        ad.backward(tape, loss)
        np.testing.assert_allclose(x.grad, [4.0])

    def test_non_scalar_loss_rejected(self):
        x = ad.parameter([1.0, 2.0])
        with ad.record() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            ad.backward(tape, y)

    def test_unreachable_parameter_reported(self):
        x = ad.parameter([1.0])
        unused = ad.parameter([5.0])
        with ad.record() as tape:
            a = ad.mul(x, x)
            _ = ad.mul(unused, unused)  # recorded but not feeding the loss
            loss = ad.tsum(a)
        ad.backward(tape, loss)
        assert np.all(unused.grad == 0.0) if unused.grad is not None else True
        np.testing.assert_allclose(x.grad, [2.0])

    def test_concurrent_tapes_hold_only_their_own_entries(self):
        n_threads, n_tapes, depth = 4, 150, 200
        wrong, errors = [], []

        def worker(seed):
            x0 = ad.parameter(np.full(3, 0.1 * seed))
            try:
                for _ in range(n_tapes):
                    outs = []
                    with ad.record() as tape:
                        x = x0
                        for _ in range(depth):
                            x = ad.tanh(x)
                            outs.append(x)
                        outs.append(ad.tsum(x))
                    if len(tape) != len(outs) or any(
                        e.out is not o for e, o in zip(tape.entries, outs)
                    ):
                        wrong.append(seed)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert wrong == [], f"{len(wrong)} of {n_threads * n_tapes} tapes held foreign entries"


PRIMITIVE_CASES = [
    ("matmul22", lambda t: ad.tsum(ad.tanh(ad.matmul(t, ad.tensor(_B22)))), (3, 4)),
    ("matmul12", lambda t: ad.tsum(ad.tanh(ad.matmul(t, ad.tensor(_B12)))), (4,)),
    ("add_broadcast", lambda t: ad.tsum(ad.sigmoid(ad.add(ad.tensor(_X), t))), (4,)),
    ("sub", lambda t: ad.tsum(ad.tanh(ad.sub(t, ad.tensor(_X)))), (3, 4)),
    ("mul_broadcast", lambda t: ad.tsum(ad.mul(ad.tensor(_X), t)), (3, 1)),
    ("div", lambda t: ad.tsum(ad.div(ad.tensor(_X), t)), (3, 4)),
    ("smul", lambda t: ad.tsum(ad.smul(t, 2.5)), (3, 4)),
    ("concat", lambda t: ad.tsum(ad.tanh(ad.concat([t, ad.tensor(_X)], axis=0))), (3, 4)),
    ("slice", lambda t: ad.tsum(ad.tslice(t, (slice(1, 3), slice(0, 2)))), (3, 4)),
    ("lookup", lambda t: ad.tsum(ad.tanh(ad.lookup(t, [0, 2, 2]))), (3, 4)),
    ("tanh", lambda t: ad.tsum(ad.tanh(t)), (3, 4)),
    ("sigmoid", lambda t: ad.tsum(ad.sigmoid(t)), (3, 4)),
    ("relu", lambda t: ad.tsum(ad.relu(t)), (3, 4)),
    ("softmax", lambda t: ad.tsum(ad.mul(ad.softmax(t), ad.tensor(_X))), (3, 4)),
    ("log", lambda t: ad.tsum(ad.log(ad.sigmoid(t))), (3, 4)),
    ("sum_axis", lambda t: ad.tsum(ad.tanh(ad.tsum(t, axis=0))), (3, 4)),
    ("mean_axis", lambda t: ad.tsum(ad.tanh(ad.tmean(t, axis=1))), (3, 4)),
    ("mean_all", lambda t: ad.tmean(ad.mul(t, t)), (3, 4)),
    ("reshape", lambda t: ad.tsum(ad.tanh(ad.reshape(t, (4, 3)))), (3, 4)),
]

_rng = np.random.default_rng(11)
_B22 = _rng.normal(size=(4, 2))
_B12 = _rng.normal(size=(4, 3))
_X = _rng.normal(size=(3, 4))


class TestAdjointsMatchFiniteDifferences:
    """Every registered primitive agrees with central differences to 1e-6."""

    @pytest.mark.parametrize("name,f,shape", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
    def test_primitive(self, name, f, shape):
        rng = np.random.default_rng(hash(name) % 2**32)
        data = rng.normal(size=shape)
        data[np.abs(data) < 0.05] += 0.1  # stay clear of relu kinks
        if name == "div":
            data = np.sign(data) * (np.abs(data) + 0.5)
        t = ad.parameter(data)
        err = grad_check(lambda: f(t), [t], eps=1e-5)
        assert err < 1e-6, f"{name}: {err}"


class TestGradCheckContract:
    def test_linear_is_exact(self):
        x = ad.parameter(np.arange(5.0))
        err = grad_check(lambda: ad.tsum(x), [x])
        assert err < 1e-10

    def test_eps_out_of_range(self):
        x = ad.parameter([1.0])
        with pytest.raises(ShapeError):
            grad_check(lambda: ad.tsum(x), [x], eps=0.5)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = ad.parameter([1.0, -2.0])
        st = OptimizerState(lr=0.1)
        adam_step(st, [p], [np.zeros(2)])
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude_is_lr(self):
        # bias correction makes m_hat=g, v_hat=g^2, so the move is
        # lr * g / (|g| + eps) ~= lr * sign(g)
        p = ad.parameter([0.0, 0.0])
        st = OptimizerState(lr=0.01)
        g = np.array([0.3, -4.0])
        adam_step(st, [p], [g])
        np.testing.assert_allclose(np.abs(p.data), 0.01, rtol=1e-6)
        assert np.sign(p.data[0]) == -1 and np.sign(p.data[1]) == 1

    def test_lr_zero_keeps_params(self):
        p = ad.parameter([1.0, 2.0])
        st = OptimizerState(lr=0.0)
        adam_step(st, [p], [np.array([5.0, -1.0])])
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        assert st.step_count == 1

    def test_shape_mismatch(self):
        p = ad.parameter([1.0, 2.0])
        st = OptimizerState()
        with pytest.raises(ShapeError):
            adam_step(st, [p], [np.zeros(3)])
