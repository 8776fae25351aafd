import itertools

import numpy as np
import pytest

from tin.errors import NonFiniteError, ShapeError
from tin.tensors import (Rng, assert_finite, flat_index, load_tensor, mean_over, multi_index,
                         rand_uniform, save_tensor, zeros)


def test_zeros_basic():
    z = zeros([2, 3])
    assert z.shape == (2, 3)
    assert np.count_nonzero(z) == 0


def test_zeros_degenerate_extent():
    assert zeros([0]).shape == (0,)
    assert zeros([0]).size == 0


def test_zeros_sum_identity():
    assert zeros([8, 4, 2, 2]).sum() == 0.0


def test_zeros_rejects_negative_and_overflow():
    with pytest.raises(ShapeError):
        zeros([-1, 2])
    with pytest.raises(ShapeError):
        zeros([2**32, 2**32])


def test_rand_uniform_deterministic():
    a = rand_uniform([7, 3], Rng(42), 0.0, 1.0)
    b = rand_uniform([7, 3], Rng(42), 0.0, 1.0)
    assert np.array_equal(a, b)


def test_rand_uniform_mean_law_of_large_numbers():
    x = rand_uniform([10**4], Rng(0), 0.0, 1.0)
    assert 0.45 < x.mean() < 0.55


def test_rand_uniform_tiny_interval_containment():
    x = rand_uniform([3], Rng(1), 5.0, 5.001)
    assert np.all(x >= 5.0) and np.all(x < 5.001)


def test_rand_uniform_rejects_empty_interval():
    with pytest.raises(ShapeError):
        rand_uniform([2], Rng(0), 1.0, 1.0)
    with pytest.raises(ShapeError):
        rand_uniform([2], Rng(0), 2.0, 1.0)


def test_rng_child_streams_differ_and_reproduce():
    r = Rng(9)
    a = r.child("a").uniform([5])
    b = r.child("b").uniform([5])
    assert not np.array_equal(a, b)
    assert np.array_equal(a, Rng(9).child("a").uniform([5]))


def test_mean_over_arithmetic():
    m = mean_over(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
    assert np.allclose(m, [1.5, 3.5], atol=0)


def test_mean_over_constant():
    x = np.full((3, 4, 2), 7.25)
    m = mean_over(x, (1, 2))
    assert m.shape == (3,)
    assert np.all(m == 7.25)


def test_mean_over_matches_loop_oracle():
    rng = Rng(5)
    x = rng.uniform([4, 3, 5, 5], -1.0, 1.0)
    m = mean_over(x, (2, 3))
    ref = np.zeros((4, 3))
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for a in range(5):
                for b in range(5):
                    acc += x[i, j, a, b]
            ref[i, j] = acc / 25.0
    assert np.max(np.abs(m - ref)) < 1e-12


def test_mean_over_all_axes_equals_sum_over_numel():
    x = Rng(6).uniform([5, 4, 3], -2.0, 2.0)
    m = mean_over(x, (0, 1, 2))
    assert abs(m - x.sum() / x.size) < 1e-12


def test_mean_over_rejects_zero_extent_axis():
    with pytest.raises(ShapeError):
        mean_over(np.zeros((3, 0)), 1)


def test_flat_index_round_trip_exhaustive_small_shapes():
    shapes = [(2,), (2, 3), (2, 1, 3), (2, 2, 2, 2), (1, 2, 3, 1, 2)]
    for shape in shapes:
        for multi in itertools.product(*(range(e) for e in shape)):
            flat = flat_index(shape, multi)
            assert multi_index(shape, flat) == multi
        n = int(np.prod(shape))
        assert sorted(flat_index(shape, m) for m in
                      itertools.product(*(range(e) for e in shape))) == list(range(n))


def test_flat_index_matches_numpy_layout():
    x = np.arange(24.0).reshape(2, 3, 4)
    assert x.reshape(-1)[flat_index(x.shape, (1, 2, 3))] == x[1, 2, 3]


def test_assert_finite_raises():
    with pytest.raises(NonFiniteError):
        assert_finite(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteError):
        assert_finite(np.array([np.inf, 1.0]))
    assert_finite(np.ones(3))


def test_assert_finite_accepts_finite_values_whose_sum_overflows():
    x = np.array([1e308, 1e308])
    assert assert_finite(x) is x
    with pytest.raises(NonFiniteError):
        assert_finite(np.array([1e308, 1e308, np.nan]))


def test_tensor_binary_round_trip(tmp_path):
    x = Rng(12).uniform([3, 4, 2], -5.0, 5.0)
    path = tmp_path / "x.tnsr"
    save_tensor(path, x)
    y = load_tensor(path)
    assert y.shape == x.shape
    assert np.array_equal(x, y)


def test_tensor_format_layout(tmp_path):
    # headers are little-endian uint64: rank, extents, then raw float64
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    path = tmp_path / "x.tnsr"
    save_tensor(path, x)
    raw = path.read_bytes()
    assert len(raw) == 8 + 16 + 32
    assert int.from_bytes(raw[:8], "little") == 2
    assert int.from_bytes(raw[8:16], "little") == 2
    assert np.frombuffer(raw[24:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize("cut", [lambda raw: raw[:12], lambda raw: raw[:-8],
                                 lambda raw: raw + bytes(8)],
                         ids=["short-header", "short-data", "trailing-bytes"])
def test_load_tensor_rejects_a_file_of_the_wrong_length(tmp_path, cut):
    path = tmp_path / "x.tnsr"
    save_tensor(path, np.ones((2, 2)))
    path.write_bytes(cut(path.read_bytes()))
    with pytest.raises(ShapeError):
        load_tensor(path)

