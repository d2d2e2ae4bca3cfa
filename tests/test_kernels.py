import numpy as np
import pytest

from udcop import kernels


def naive_eval(unary, codes, w_unit, weights=None):
    """Straightforward reference: one agent, value and neighbor at a time.

    weights, when given, is dense int64[n, n, d, d] with weights[i, j, v, w]
    agent i's weight for the pair (self=v, neighbor j=w).
    """
    n, d = unary.shape
    out = np.empty((n, d))
    for i in range(n):
        for v in range(d):
            conflict = 0
            for j in range(n):
                w = codes[j]
                if j != i and w != v:
                    conflict += 1 if weights is None else weights[i, j, v, w]
            out[i, v] = unary[i, v] + w_unit * conflict
    return out


def random_state(rng, n=8, d=6):
    unary = rng.integers(0, 10, size=(n, d)).astype(np.float64)
    codes = rng.integers(0, d, size=n).astype(np.int64)
    weights = rng.integers(1, 5, size=(n, n, d, d)).astype(np.int64)
    return unary, codes, weights


def sparse_excess(weights):
    """The (keys, counts) form of the weights' excess over 1."""
    n, _, d, _ = weights.shape
    i, j, v, w = np.nonzero(weights - 1)
    keys = kernels.weight_keys(n, d, i, j, w, v)
    order = np.argsort(keys)
    return keys[order], (weights[i, j, v, w] - 1)[order]


@pytest.mark.parametrize("seed", range(10))
def test_unit_kernel_matches_naive(seed):
    rng = np.random.default_rng(seed)
    unary, codes, _ = random_state(rng)
    got = kernels.eval_all_unit(unary, codes, 7.5)
    assert got == pytest.approx(naive_eval(unary, codes, 7.5))


@pytest.mark.parametrize("seed", range(10))
def test_weighted_kernel_matches_naive(seed):
    rng = np.random.default_rng(seed)
    unary, codes, weights = random_state(rng)
    n, d = unary.shape
    same = np.eye(n, dtype=bool)[:, :, None, None] | np.eye(d, dtype=bool)
    weights[same] = 1     # raised entries never pair an agent with itself or equal codes
    keys, counts = sparse_excess(weights)
    got = kernels.eval_all_weighted(unary, codes, 3.25, keys, counts)
    assert got == pytest.approx(naive_eval(unary, codes, 3.25, weights=weights))


def test_weight_keys_are_the_documented_flat_layout():
    n, d = 3, 4
    key = kernels.weight_keys(n, d, np.array([2]), np.array([1]), np.array([3]),
                              np.array([0]))
    assert key.tolist() == [((2 * n + 1) * d + 3) * d + 0]


def test_infinite_unary_slots_propagate():
    unary = np.array([[1.0, np.inf, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    codes = np.array([0, 2, 2], dtype=np.int64)
    out = kernels.eval_all_unit(unary, codes, 10.0)
    assert np.isinf(out[0, 1]) and out[0, 2] == 0.0


def test_empty_neighborhood():
    unary = np.array([[3.0, 4.0]])
    out = kernels.eval_all_unit(unary, np.array([1], dtype=np.int64), 10.0)
    assert out.tolist() == [[3.0, 4.0]]
    out = kernels.eval_all_weighted(unary, np.array([1], dtype=np.int64), 10.0,
                                    np.empty(0, dtype=np.int64),
                                    np.empty(0, dtype=np.int64))
    assert out.tolist() == [[3.0, 4.0]]


def test_backend_name_is_python():
    assert kernels.backend_name() == "python"
