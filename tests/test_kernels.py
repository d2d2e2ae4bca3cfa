import numpy as np
import pytest

from udcop import kernels


def naive_eval(unary, neighbor_vals, w_unit, weights=None, neighbor_ids=None):
    """Straightforward reference: one value at a time, one neighbor at a time."""
    d = len(unary)
    out = []
    for v in range(d):
        total = unary[v]
        for k, nv in enumerate(neighbor_vals):
            if nv != v:
                w = 1 if weights is None else weights[neighbor_ids[k], v, nv]
                total += w_unit * w
        out.append(total)
    return np.array(out)


def random_state(rng, n=8, d=6):
    unary = rng.integers(0, 10, size=d).astype(np.float64)
    ids = np.arange(1, n, dtype=np.int64)
    vals = rng.integers(0, d, size=n - 1).astype(np.int64)
    weights = rng.integers(1, 5, size=(n, d, d)).astype(np.int64)
    return unary, ids, vals, weights


@pytest.mark.parametrize("seed", range(10))
def test_unit_kernel_matches_naive(seed):
    rng = np.random.default_rng(seed)
    unary, _, vals, _ = random_state(rng)
    got = kernels.eval_all_unit(unary, vals, 7.5)
    assert got == pytest.approx(naive_eval(unary, vals, 7.5))


@pytest.mark.parametrize("seed", range(10))
def test_weighted_kernel_matches_naive(seed):
    rng = np.random.default_rng(seed)
    unary, ids, vals, weights = random_state(rng)
    got = kernels.eval_all_weighted(unary, ids, vals, weights, 3.25)
    assert got == pytest.approx(
        naive_eval(unary, vals, 3.25, weights=weights, neighbor_ids=ids))


def test_infinite_unary_slots_propagate():
    unary = np.array([1.0, np.inf, 0.0])
    vals = np.array([2, 2], dtype=np.int64)
    out = kernels.eval_all_unit(unary, vals, 10.0)
    assert np.isinf(out[1]) and out[2] == 0.0


def test_empty_neighborhood():
    unary = np.array([3.0, 4.0])
    out = kernels.eval_all_unit(unary, np.empty(0, dtype=np.int64), 10.0)
    assert list(out) == [3.0, 4.0]


def test_backend_name_is_python():
    assert kernels.backend_name() == "python"
