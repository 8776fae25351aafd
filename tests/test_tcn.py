import ast
import dis
import inspect
import types

import numpy as np
import pytest

from tin import blocks, interlace
from tin.errors import ShapeError
from tin.interlace import InterlaceConfig, interlace_forward
from tin.tcn import (DenseTemporalKernel, EquivKernel, build_equiv_kernel, dense_tconv,
                     equiv_to_dense, run_equivalence_trials, verify_equivalence)
from tin.tensors import Rng


def test_kernel_paper_substitution_offset_1p3():
    # offset 1.3 with weight w puts 0.7w at +1 and 0.3w at +2
    cfg = InterlaceConfig(t=8, c=2, g=1, shift_fraction=0.5, mirror=False)
    w = 1.4
    k = build_equiv_kernel(np.array([1.3]), np.full((1, 8), w), cfg)
    assert k.n0[0] == 1
    assert np.allclose(k.values[0, :, 0], 0.7 * w, atol=1e-12)
    assert np.allclose(k.values[0, :, 1], 0.3 * w, atol=1e-12)


def test_kernel_zero_offset_identity():
    cfg = InterlaceConfig(t=4, c=2, g=1, shift_fraction=0.5, mirror=False)
    k = build_equiv_kernel(np.array([0.0]), np.ones((1, 4)), cfg)
    dense = equiv_to_dense(k)
    ident = DenseTemporalKernel.identity(2, 4)
    assert np.array_equal(dense.taps, ident.taps)


def test_kernel_mirrored_group_is_time_reflection():
    cfg = InterlaceConfig(t=8, c=4, g=2, shift_fraction=0.5, mirror=True)
    w = np.full((2, 8), 0.9)
    k = build_equiv_kernel(np.array([1.3, -1.3]), w, cfg)
    assert k.n0[1] == -2
    dense = equiv_to_dense(k)
    fwd = dense.taps[0, 0]       # channel of group 0, any frame
    rev = dense.taps[1, 0]       # channel of the mirrored group
    assert np.max(np.abs(rev - fwd[::-1])) == 0.0


def test_kernel_mass_conservation_exact_for_dyadic_values():
    cfg = InterlaceConfig(t=8, c=2, g=2, shift_fraction=1.0, mirror=False)
    offsets = np.array([1.25, -0.75])
    weights = np.full((2, 8), 1.5)
    k = build_equiv_kernel(offsets, weights, cfg)
    assert np.all(k.values.sum(axis=-1) == weights)


def test_kernel_mass_conservation_close_generally():
    rng = Rng(0)
    cfg = InterlaceConfig(t=8, c=4, g=4, shift_fraction=1.0, mirror=False)
    offsets = rng.uniform([4], -3.9, 3.9)
    weights = rng.child("w").uniform([4, 8], 0.01, 1.99)
    k = build_equiv_kernel(offsets, weights, cfg)
    assert np.max(np.abs(k.values.sum(axis=-1) - weights)) < 1e-15


def test_receptive_field_union():
    # offsets (O1, O2, -O1, -O2) cover n0, n0+1 and their reflections
    cfg = InterlaceConfig(t=16, c=4, g=4, shift_fraction=1.0, mirror=True)
    o1, o2 = 1.3, 3.6
    k = build_equiv_kernel(np.array([o1, o2, -o1, -o2]), np.ones((4, 16)), cfg)
    positions = set()
    for gi in range(4):
        positions.update({int(k.n0[gi]), int(k.n0[gi]) + 1})
    n0, n1 = 1, 3
    assert positions == {n0, n0 + 1, -n0 - 1, -n0, n1, n1 + 1, -n1 - 1, -n1}


def test_dense_tconv_identity():
    u = Rng(1).uniform([6, 3, 2, 2], -1.0, 1.0)
    v = dense_tconv(u, DenseTemporalKernel.identity(3, 6))
    assert np.array_equal(v, u)


def test_dense_tconv_single_tap_shift():
    u = Rng(2).uniform([6, 2, 2, 2], -1.0, 1.0)
    v = dense_tconv(u, DenseTemporalKernel.stationary(np.tile([1.0, 0.0, 0.0], (2, 1)), 6))
    # tap at -1: v[t] = u[t-1], first frame zero filled
    assert np.array_equal(v[1:], u[:-1])
    assert np.all(v[0] == 0.0)


def test_dense_tconv_matches_scalar_loop():
    rng = Rng(3)
    t, c = 5, 2
    u = rng.uniform([t, c, 2, 2], -1.0, 1.0)
    taps = rng.child("k").uniform([c, t, 2 * t + 1], -1.0, 1.0)
    v = dense_tconv(u, DenseTemporalKernel(taps))
    for t0 in range(t):
        for ci in range(c):
            for a in range(2):
                for b in range(2):
                    acc = 0.0
                    for s in range(-t, t + 1):
                        if 0 <= t0 + s < t:
                            acc += taps[ci, t0, s + t] * u[t0 + s, ci, a, b]
                    assert abs(v[t0, ci, a, b] - acc) < 1e-12


def _loop_tconv(u, kernel):
    """The frame x channel x lag loop that dense_tconv replaced: a reference
    for its summation order, kept here so the oracle has one of its own."""
    t, c = u.shape[:2]
    s_half = kernel.support
    v = np.zeros_like(u)
    for t0 in range(t):
        for ci in range(c):
            acc = np.zeros(u.shape[2:])
            for s in range(-s_half, s_half + 1):
                w = kernel.taps[ci, t0, s + s_half]
                if w != 0.0 and 0 <= t0 + s < t:
                    acc += w * u[t0 + s, ci]
            v[t0, ci] = acc
    return v


def _dense_taps(rng, c, t):
    # every tap nonzero: magnitudes in [0.1, 1) with a random sign
    mag = rng.uniform([c, t, 2 * t + 1], 0.1, 1.0)
    return np.where(rng.child("sign").uniform([c, t, 2 * t + 1], 0.0, 1.0) < 0.5, -mag, mag)


def _sparse_taps(rng, c, t):
    """Some lags zero in every channel, others zero (or -0.0) in only some."""
    taps = _dense_taps(rng, c, t)
    lags = rng.child("lags").uniform([2 * t + 1], 0.0, 1.0)
    taps[:, :, lags < 0.4] = 0.0
    some = rng.child("some").uniform([c, t, 2 * t + 1], 0.0, 1.0)
    taps[some < 0.3] = 0.0
    taps[(some >= 0.3) & (some < 0.4)] = -0.0
    return taps


def _kernels(t, c, seed):
    rng = Rng(seed)
    yield "dense", DenseTemporalKernel(_dense_taps(rng.child("dense"), c, t))
    yield "sparse", DenseTemporalKernel(_sparse_taps(rng.child("sparse"), c, t))
    yield "identity", DenseTemporalKernel.identity(c, t)
    k = min(2 * t + 1, 5)
    yield "stationary", DenseTemporalKernel.stationary(
        rng.child("stat").uniform([c, k], -1.0, 1.0), t)
    if t >= 2:
        g = 2 if c % 2 == 0 else 1
        cfg = InterlaceConfig(t=t, c=c, g=g, shift_fraction=g / c, mirror=g == 2)
        half = rng.child("off").uniform([1], -t / 2 + 1e-6, t / 2)
        offsets = np.concatenate([half, -half]) if g == 2 else half
        weights = rng.child("w").uniform([g, t], 0.1, 1.9)
        yield "equiv", equiv_to_dense(build_equiv_kernel(offsets, weights, cfg))


@pytest.mark.parametrize("t, c", [(1, 1), (1, 4), (2, 3), (5, 2), (8, 4), (16, 1), (16, 8)])
def test_dense_tconv_equals_the_loop_reference_byte_for_byte(t, c):
    for seed in range(3):
        u = Rng(100 + seed).uniform([t, c, 3, 2], -1.0, 1.0)
        u[:, :, 0, 0] = 0.0     # exact zeros in the input as well
        for kind, kernel in _kernels(t, c, seed):
            v = dense_tconv(u, kernel)
            assert v.tobytes() == _loop_tconv(u, kernel).tobytes(), (kind, seed)


def test_sparse_kernels_have_both_kinds_of_zero_lag():
    taps = _sparse_taps(Rng(0).child("sparse"), 4, 8)
    all_zero = ~taps.any(axis=(0, 1))
    some_zero = (taps == 0.0).any(axis=(0, 1)) & ~all_zero
    assert all_zero.any() and some_zero.any()
    assert np.signbit(taps[taps == 0.0]).any()


def _top_level_names(module):
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _codes(code):
    """A code object and every code object nested in it (comprehensions, lambdas)."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _codes(const)


def _names(fn):
    return {name for code in _codes(fn.__code__) for name in code.co_names}


def _uses_matmul_operator(fn):
    return any(i.opname == "BINARY_OP" and i.argrepr in ("@", "@=")
               for code in _codes(fn.__code__) for i in dis.get_instructions(code))


def test_dense_tconv_shares_no_code_with_the_fast_path():
    fast_path = _top_level_names(interlace) | _top_level_names(blocks)
    names = _names(dense_tconv)
    assert not names & {"matmul", "einsum", "tensordot", "dot", "shifts"}
    assert not names & fast_path, names & fast_path
    assert not _uses_matmul_operator(dense_tconv)
    # the guard sees a fast-path call where there is one
    assert "interlace_forward" in _names(verify_equivalence) & fast_path


def test_dense_tconv_rejects_bad_shapes():
    u = np.zeros((4, 2, 2, 2))
    with pytest.raises(ShapeError):
        dense_tconv(u, DenseTemporalKernel.identity(3, 4))
    with pytest.raises(ShapeError):
        DenseTemporalKernel.stationary(np.ones((2, 4)), 4)


def test_verify_equivalence_fractional_case():
    cfg = InterlaceConfig(t=8, c=8, g=2, shift_fraction=0.5, mirror=True)
    rng = Rng(4)
    u = rng.uniform([8, 8, 3, 3], -1.0, 1.0)
    offsets = np.array([1.3, -1.3])
    weights = rng.child("w").uniform([2, 8], 0.1, 1.9)
    rep = verify_equivalence(u, offsets, weights, cfg)
    assert rep.passed
    assert rep.max_abs_diff < 1e-9
    assert len(rep.per_group) == 3  # two groups plus the un-shifted slab


def test_verify_equivalence_integer_offsets_exact():
    cfg = InterlaceConfig(t=8, c=4, g=2, shift_fraction=1.0, mirror=False)
    rng = Rng(5)
    u = rng.uniform([8, 4, 2, 2], -1.0, 1.0)
    rep = verify_equivalence(u, np.array([2.0, -3.0]), rng.child("w").uniform([2, 8], 0.1, 1.9), cfg)
    assert rep.max_abs_diff == 0.0


def test_equivalence_interlace_vs_kernel_route_end_to_end():
    # the two routes share no sampling code; agreement is the whole point
    cfg = InterlaceConfig(t=8, c=8, g=4, shift_fraction=0.5, mirror=False)
    rng = Rng(6)
    u = rng.uniform([8, 8, 2, 2], -1.0, 1.0)
    offsets = np.array([0.4, -2.7, 3.2, -3.9])
    weights = rng.child("w").uniform([4, 8], 0.1, 1.9)
    v_op, _ = interlace_forward(u, offsets, weights, cfg)
    v_conv = dense_tconv(u, equiv_to_dense(build_equiv_kernel(offsets, weights, cfg)))
    assert np.max(np.abs(v_op - v_conv)) < 1e-9


def test_trials_report_shape_and_determinism():
    a = run_equivalence_trials(40, seed=123)
    b = run_equivalence_trials(40, seed=123)
    assert a.passed and a.failures == 0
    assert a.max_abs_diff == b.max_abs_diff
    assert a.to_json() == b.to_json()


def test_trials_boundary_offsets_exercised():
    rep = run_equivalence_trials(60, seed=9)
    assert rep.passed
    assert rep.max_abs_diff < 1e-9
