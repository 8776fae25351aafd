import numpy as np
import pytest

from tin.errors import NonFiniteError, ShapeError
from tin.tensors import Rng, assert_finite, load_tensor, rand_uniform, save_tensor


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


def test_rand_uniform_rejects_negative_and_overflow():
    with pytest.raises(ShapeError):
        rand_uniform([-1, 2], Rng(0))
    with pytest.raises(ShapeError):
        rand_uniform([2**32, 2**32], Rng(0))
    assert rand_uniform([0], Rng(0)).shape == (0,)


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

