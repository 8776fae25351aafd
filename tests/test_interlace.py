import tracemalloc

import numpy as np
import pytest

from tin.errors import NonFiniteError, ShapeError
from tin.interlace import (InterlaceConfig, interlace_backward, interlace_forward,
                           partition_channels, shifts, temporal_sample, temporal_sample_vjp)
from tin.tensors import Rng


def loop_sample(u, offset):
    """Independent per-element interpolation oracle."""
    t = u.shape[0]
    n0 = int(np.floor(offset))
    f = offset - n0
    out = np.zeros_like(u)
    for ti in range(t):
        lo, hi = ti + n0, ti + n0 + 1
        acc = np.zeros(u.shape[1:])
        if 0 <= lo < t:
            acc = acc + (1.0 - f) * u[lo]
        if 0 <= hi < t:
            acc = acc + f * u[hi]
        out[ti] = acc
    return out


# ---------------------------------------------------------------------------
# config / partitioning

def test_partition_quarter_fraction():
    cfg = InterlaceConfig(t=8, c=16, g=4, shift_fraction=0.25, mirror=False)
    groups, rest = partition_channels(cfg)
    assert groups == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert rest == (4, 16)


def test_partition_paper_scale():
    cfg = InterlaceConfig(t=8, c=256, g=4, shift_fraction=0.25, mirror=False)
    groups, rest = partition_channels(cfg)
    assert all(hi - lo == 16 for lo, hi in groups)
    assert rest == (64, 256)
    assert rest[1] - rest[0] == 192  # three quarters stay un-shifted


def test_partition_disabled():
    cfg = InterlaceConfig(t=8, c=16, g=0)
    groups, rest = partition_channels(cfg)
    assert groups == [] and rest == (0, 16)


def test_partition_covers_channels_disjointly():
    for c, g, frac in [(16, 4, 0.25), (32, 8, 0.25), (12, 2, 0.5), (8, 8, 1.0)]:
        cfg = InterlaceConfig(t=4, c=c, g=g, shift_fraction=frac, mirror=False)
        groups, rest = partition_channels(cfg)
        seen = []
        for lo, hi in groups + [rest]:
            seen.extend(range(lo, hi))
        assert sorted(seen) == list(range(c))
        assert len(set(seen)) == c


def test_config_rejects_indivisible():
    with pytest.raises(ShapeError):
        InterlaceConfig(t=8, c=10, g=4, shift_fraction=0.25)
    with pytest.raises(ShapeError):
        InterlaceConfig(t=8, c=16, g=3, mirror=True)


# ---------------------------------------------------------------------------
# temporal sampling

def test_sample_paper_boundary_example():
    # sampled position 0.4 blends frames 0 and 1 with weights 0.6 / 0.4
    u = np.zeros((4, 1, 1, 1))
    u[0] = 5.0
    u[1] = 7.0
    v = temporal_sample(u, 0.4)
    assert abs(v[0, 0, 0, 0] - (0.6 * 5.0 + 0.4 * 7.0)) < 1e-15


def test_sample_zero_offset_is_identity():
    u = Rng(0).uniform([6, 3, 2, 2], -1.0, 1.0)
    assert np.array_equal(temporal_sample(u, 0.0), u)


def test_sample_integer_offset_pure_shift():
    u = Rng(1).uniform([6, 2, 2, 2], -1.0, 1.0)
    v = temporal_sample(u, 2.0)
    assert np.array_equal(v[:4], u[2:])
    assert np.all(v[4:] == 0.0)


def test_sample_matches_loop_oracle():
    rng = Rng(2)
    for offset in (1.3, -1.3, 0.5, 2.9, -2.9, 2.0, -2.0, 0.0):
        u = rng.child(f"u{offset}").uniform([8, 3, 2, 2], -1.0, 1.0)
        assert np.max(np.abs(temporal_sample(u, offset) - loop_sample(u, offset))) < 1e-12


def test_sample_beyond_buffer_is_exactly_zero():
    u = Rng(3).uniform([8, 2, 2, 2], 0.5, 1.5)
    v = temporal_sample(u, 3.5)  # frames 5..7 sample positions 8.5..10.5
    assert np.all(v[5:] == 0.0)
    # one-frame buffer: frame 4 samples position 7.5, still half inside
    assert np.any(v[4] != 0.0)


def test_sample_rejects_half_clip_offset():
    u = np.zeros((8, 1, 1, 1))
    with pytest.raises(ShapeError):
        temporal_sample(u, 4.0)
    with pytest.raises(ShapeError):
        temporal_sample(u, -4.0)


def test_sample_rejects_a_non_finite_offset():
    u = np.zeros((8, 1, 1, 1))
    for offset in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteError):
            temporal_sample(u, offset)
        with pytest.raises(NonFiniteError):
            temporal_sample_vjp(u, offset, u)


@pytest.mark.parametrize("t", [1, 2, 8])
def test_shifts_put_lag_k_on_the_kth_diagonal_and_nothing_beyond_the_clip(t):
    lags = np.arange(-t - 2, t + 3)
    e = shifts(t, lags)
    assert e.shape == (len(lags), t, t)
    for k, ek in zip(lags, e):
        assert np.array_equal(ek, np.eye(t, k=k))
        if abs(k) >= t:
            assert not ek.any()
    assert shifts(t, [[0, 1]], np.float32).shape == (1, 2, t, t)
    assert shifts(t, 0, np.float32).dtype == np.float32


def test_sample_linearity():
    rng = Rng(4)
    u1 = rng.child("a").uniform([6, 2, 3, 3], -1.0, 1.0)
    u2 = rng.child("b").uniform([6, 2, 3, 3], -1.0, 1.0)
    v = temporal_sample(2.5 * u1 - 1.5 * u2, 1.7)
    ref = 2.5 * temporal_sample(u1, 1.7) - 1.5 * temporal_sample(u2, 1.7)
    assert np.max(np.abs(v - ref)) < 1e-12


def test_sample_vjp_transpose_identity():
    # <v, S u> == <S^T v, u> for random u, v
    rng = Rng(5)
    u = rng.child("u").uniform([7, 2, 2, 2], -1.0, 1.0)
    v = rng.child("v").uniform([7, 2, 2, 2], -1.0, 1.0)
    for offset in (1.3, -0.6, 2.0, -3.4):
        su = temporal_sample(u, offset)
        stv, _ = temporal_sample_vjp(u, offset, v)
        assert abs(np.sum(v * su) - np.sum(stv * u)) < 1e-12


# ---------------------------------------------------------------------------
# full operator

def _random_inputs(rng, cfg, batch=None):
    shape = [cfg.t, cfg.c, 3, 3] if batch is None else [batch, cfg.t, cfg.c, 3, 3]
    u = rng.child("u").uniform(shape, -1.0, 1.0)
    g_learned = cfg.g // 2 if cfg.mirror else cfg.g
    half = rng.child("o").uniform([g_learned], -cfg.t / 2 + 0.3, cfg.t / 2 - 0.3)
    offsets = np.concatenate([half, -half]) if cfg.mirror else half
    weights = rng.child("w").uniform([cfg.g, cfg.t], 0.1, 1.9)
    if batch is not None:
        offsets = np.tile(offsets, (batch, 1))
        weights = np.tile(weights, (batch, 1, 1))
    return u, offsets, weights


def test_forward_identity_at_neutral_values():
    cfg = InterlaceConfig(t=8, c=16)
    u = Rng(7).uniform([8, 16, 3, 3], -1.0, 1.0)
    v, _ = interlace_forward(u, np.zeros(4), np.ones((4, 8)), cfg)
    assert np.array_equal(v, u)


def test_forward_single_group_equals_temporal_sample():
    cfg = InterlaceConfig(t=8, c=4, g=1, shift_fraction=1.0, mirror=False)
    u = Rng(8).uniform([8, 4, 2, 2], -1.0, 1.0)
    v, _ = interlace_forward(u, np.array([1.3]), np.ones((1, 8)), cfg)
    assert np.max(np.abs(v - temporal_sample(u, 1.3))) < 1e-15


def test_forward_shape_preserved_and_unshifted_passthrough():
    cfg = InterlaceConfig(t=8, c=16, g=4, shift_fraction=0.25, mirror=False)
    rng = Rng(9)
    u, offsets, weights = _random_inputs(rng, cfg)
    v, _ = interlace_forward(u, offsets, weights, cfg)
    assert v.shape == u.shape
    assert np.array_equal(v[:, 4:], u[:, 4:])


@pytest.mark.parametrize("batch", [None, 3])
def test_integer_offsets_with_unit_weights_are_a_zero_filled_shift(batch):
    # the temporal shift module's case: each group is a plain shift of its
    # frames, zero filled, and the unshifted channels pass through untouched
    rng = Rng(31 if batch is None else 32)
    for trial in range(40):
        r = rng.child(f"trial{trial}")
        t = int(r.integers(1, 13))
        mirror = bool(r.integers(0, 2))
        g = 2 * int(r.integers(1, 3)) if mirror else int(r.integers(1, 5))
        gs = int(r.integers(1, 3))
        cfg = InterlaceConfig(t=t, c=2 * g * gs, g=g, shift_fraction=0.5, mirror=mirror)
        reach = (t - 1) // 2                       # |offset| < T/2
        learned = r.integers(-reach, reach + 1, g // 2 if mirror else g).astype(np.float64)
        offsets = np.concatenate([learned, -learned]) if mirror else learned
        weights = np.ones((g, t))
        lead = [] if batch is None else [batch]
        u = r.child("u").uniform(lead + [t, cfg.c, 2, 3], -1.0, 1.0)
        shifts = offsets.astype(int).tolist()
        if batch is not None:
            offsets, weights = np.tile(offsets, (batch, 1)), np.tile(weights, (batch, 1, 1))
        v, _ = interlace_forward(u, offsets, weights, cfg)
        ub, vb = (u[None], v[None]) if batch is None else (u, v)
        groups, (rest, _) = partition_channels(cfg)
        want = ub.copy()
        for (lo, hi), n0 in zip(groups, shifts):
            want[:, :, lo:hi] = 0.0
            want[:, max(-n0, 0):t - max(n0, 0), lo:hi] = ub[:, max(n0, 0):t + min(n0, 0), lo:hi]
        assert np.array_equal(vb, want), (trial, t, g, mirror, shifts)
        assert vb[:, :, rest:].tobytes() == ub[:, :, rest:].tobytes()


def test_forward_linearity_in_input():
    cfg = InterlaceConfig(t=6, c=8, g=2, shift_fraction=0.5, mirror=True)
    rng = Rng(10)
    u1, offsets, weights = _random_inputs(rng.child("1"), cfg)
    u2 = rng.child("2").uniform([6, 8, 3, 3], -1.0, 1.0)
    a, b = 1.7, -0.4
    v, _ = interlace_forward(a * u1 + b * u2, offsets, weights, cfg)
    v1, _ = interlace_forward(u1, offsets, weights, cfg)
    v2, _ = interlace_forward(u2, offsets, weights, cfg)
    assert np.max(np.abs(v - (a * v1 + b * v2))) < 1e-12


def test_forward_piecewise_linear_in_offset():
    # three points inside one unit interval must be collinear
    cfg = InterlaceConfig(t=8, c=4, g=1, shift_fraction=0.25, mirror=False)
    u = Rng(11).uniform([8, 4, 2, 2], -1.0, 1.0)
    w = np.ones((1, 8))
    oa, ob, oc = 1.15, 1.5, 1.85
    va, _ = interlace_forward(u, np.array([oa]), w, cfg)
    vb, _ = interlace_forward(u, np.array([ob]), w, cfg)
    vc, _ = interlace_forward(u, np.array([oc]), w, cfg)
    lam = (ob - oa) / (oc - oa)
    assert np.max(np.abs(vb - ((1 - lam) * va + lam * vc))) < 1e-12


def test_forward_validates_ranges():
    cfg = InterlaceConfig(t=8, c=16, g=4, shift_fraction=0.25, mirror=False)
    u = np.zeros((8, 16, 2, 2))
    with pytest.raises(ShapeError):
        interlace_forward(u, np.array([0.0, 0.0, 0.0, 4.0]), np.ones((4, 8)), cfg)
    with pytest.raises(ShapeError):
        interlace_forward(u, np.zeros(4), np.full((4, 8), 2.0), cfg)
    with pytest.raises(ShapeError):
        interlace_forward(u, np.zeros(4), np.zeros((4, 8)), cfg)


def test_forward_enforces_mirror_invariant():
    cfg = InterlaceConfig(t=8, c=16, g=4, shift_fraction=0.25, mirror=True)
    u = np.zeros((8, 16, 2, 2))
    bad = np.array([1.0, 0.5, -1.0, -0.4999])
    with pytest.raises(ShapeError):
        interlace_forward(u, bad, np.ones((4, 8)), cfg)


def test_buffer_totality_never_wraps():
    # offsets right at the legal edge read zeros, never wrap around
    cfg = InterlaceConfig(t=4, c=2, g=2, shift_fraction=1.0, mirror=False)
    u = Rng(12).uniform([4, 2, 2, 2], 1.0, 2.0)  # strictly positive
    offsets = np.array([1.999, -1.999])
    v, _ = interlace_forward(u, offsets, np.ones((2, 4)), cfg)
    # frame 3 of the +1.999 group samples 4.999: both taps out of range
    assert np.all(v[3, 0] == 0.0)
    assert np.all(v[0, 1] == 0.0)
    assert np.all(np.isfinite(v))


def test_batched_matches_per_clip():
    cfg = InterlaceConfig(t=6, c=8, g=2, shift_fraction=0.5, mirror=False)
    rng = Rng(13)
    u = rng.child("u").uniform([3, 6, 8, 2, 2], -1.0, 1.0)
    offsets = rng.child("o").uniform([3, 2], -2.4, 2.4)
    weights = rng.child("w").uniform([3, 2, 6], 0.1, 1.9)
    grad_v = rng.child("g").uniform(u.shape, -1.0, 1.0)
    v, tape = interlace_forward(u, offsets, weights, cfg)
    grads = interlace_backward(grad_v, tape)
    for i in range(3):
        vi, tape_i = interlace_forward(u[i], offsets[i], weights[i], cfg)
        assert np.array_equal(v[i], vi)
        for batched, single in zip(grads, interlace_backward(grad_v[i], tape_i)):
            assert np.array_equal(batched[i], single)


# ---------------------------------------------------------------------------
# backward

def test_backward_zero_grad_gives_zero():
    cfg = InterlaceConfig(t=6, c=8, g=2, shift_fraction=0.5, mirror=False)
    u, offsets, weights = _random_inputs(Rng(14), cfg)
    _, tape = interlace_forward(u, offsets, weights, cfg)
    gu, go, gw = interlace_backward(np.zeros_like(u), tape)
    assert not gu.any() and not go.any() and not gw.any()


def test_backward_identity_path_passes_grad_through():
    cfg = InterlaceConfig(t=8, c=16)
    u = Rng(15).uniform([8, 16, 2, 2], -1.0, 1.0)
    _, tape = interlace_forward(u, np.zeros(4), np.ones((4, 8)), cfg)
    grad_v = Rng(16).uniform([8, 16, 2, 2], -1.0, 1.0)
    gu, _, _ = interlace_backward(grad_v, tape)
    # un-shifted channels: exact passthrough
    assert np.array_equal(gu[:, 4:], grad_v[:, 4:])


def test_backward_offset_gradient_nonzero_generically():
    cfg = InterlaceConfig(t=8, c=8, g=2, shift_fraction=0.5, mirror=False)
    u, offsets, weights = _random_inputs(Rng(17), cfg)
    v, tape = interlace_forward(u, offsets, weights, cfg)
    gu, go, gw = interlace_backward(np.ones_like(v), tape)
    assert np.all(np.abs(go) > 0)


def test_tape_is_single_use():
    cfg = InterlaceConfig(t=6, c=8, g=2, shift_fraction=0.5, mirror=False)
    u, offsets, weights = _random_inputs(Rng(18), cfg)
    v, tape = interlace_forward(u, offsets, weights, cfg)
    interlace_backward(np.ones_like(v), tape)
    with pytest.raises(ShapeError):
        interlace_backward(np.ones_like(v), tape)


def test_backward_matches_loop_oracle_for_input_grad():
    # scatter the stencil by hand and compare
    cfg = InterlaceConfig(t=6, c=4, g=2, shift_fraction=0.5, mirror=False)
    rng = Rng(19)
    u, offsets, weights = _random_inputs(rng, cfg)
    v, tape = interlace_forward(u, offsets, weights, cfg)
    grad_v = rng.child("gv").uniform(u.shape, -1.0, 1.0)
    gu, _, _ = interlace_backward(grad_v, tape)

    ref = grad_v.copy()
    t = cfg.t
    for gi, (lo, hi) in enumerate(partition_channels(cfg)[0]):
        ref[:, lo:hi] = 0.0
        n0 = int(np.floor(offsets[gi]))
        f = offsets[gi] - n0
        for ti in range(t):
            for tap, coef in ((ti + n0, 1.0 - f), (ti + n0 + 1, f)):
                if 0 <= tap < t:
                    ref[tap, lo:hi] += coef * weights[gi, ti] * grad_v[ti, lo:hi]
    assert np.max(np.abs(gu - ref)) < 1e-12


def test_rejected_gradient_leaves_the_tape_usable():
    cfg = InterlaceConfig(t=4, c=8, g=2, shift_fraction=0.5, mirror=False)
    u, offsets, weights = _random_inputs(Rng(20), cfg)
    grad_v = Rng(21).uniform(u.shape, -1.0, 1.0)
    _, tape = interlace_forward(u, offsets, weights, cfg)
    with pytest.raises(ShapeError):
        interlace_backward(np.ones([4, 8, 3, 4]), tape)
    got = interlace_backward(grad_v, tape)
    _, fresh = interlace_forward(u, offsets, weights, cfg)
    for a, b in zip(got, interlace_backward(grad_v, fresh)):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# random configurations: oracle and property sweeps

def _random_case(r, batch=None, dtype=np.float64):
    """A seeded random config and (u, offsets, weights, grad_v) for it.

    A third of the cases put every offset on an integer, the kink of the
    offset gradient; T = 1 leaves only offset 0.
    """
    t = int(r.integers(1, 10))
    mirror = bool(r.integers(0, 2))
    g = 2 * int(r.integers(1, 3)) if mirror else int(r.integers(1, 5))
    gs = int(r.integers(1, 3))
    frac = (0.25, 0.5, 1.0)[int(r.integers(0, 3))]
    cfg = InterlaceConfig(t=t, c=round(g * gs / frac), g=g, shift_fraction=frac, mirror=mirror,
                          weight_all_channels=bool(r.integers(0, 2)))
    lead = [] if batch is None else [batch]
    learned = lead + [g // 2 if mirror else g]
    if r.integers(0, 3) == 0 or t == 1:
        reach = (t - 1) // 2
        half = r.integers(-reach, reach + 1, learned).astype(np.float64)
    else:
        half = r.child("o").uniform(learned, -t / 2 + 1e-3, t / 2 - 1e-3)
    offsets = np.concatenate([half, -half], axis=-1) if mirror else half
    weights = r.child("w").uniform(lead + [g, t], 0.05, 1.95)
    shape = lead + [t, cfg.c, 2, 3]
    u = r.child("u").uniform(shape, -1.0, 1.0, dtype=dtype)
    grad_v = r.child("g").uniform(shape, -1.0, 1.0, dtype=dtype)
    return cfg, u, offsets.astype(dtype), weights.astype(dtype), grad_v


def _product_form_grads(u, offsets, weights, grad_v, cfg):
    """grad_w and grad_offsets with the products g * (B @ x) and g * (D @ x)
    formed in full, one clip and one group at a time, in float64."""
    ub, ob, wb, gb = (a.astype(np.float64) for a in (u, offsets, weights, grad_v))
    if u.ndim == 4:
        ub, ob, wb, gb = ub[None], ob[None], wb[None], gb[None]
    groups, (rest, _) = partition_channels(cfg)
    grad_w = np.zeros_like(wb)
    grad_o = np.zeros_like(ob)
    for n in range(ub.shape[0]):
        for gi, (lo, hi) in enumerate(groups):
            x, g = ub[n, :, lo:hi], gb[n, :, lo:hi]
            n0 = np.floor(ob[n, gi])
            bx = loop_sample(x, ob[n, gi])
            dx = loop_sample(x, n0 + 1) - loop_sample(x, n0)
            grad_w[n, gi] = np.sum(g * bx, axis=(1, 2, 3))
            grad_o[n, gi] = np.sum(wb[n, gi] * np.sum(g * dx, axis=(1, 2, 3)))
        if cfg.weight_all_channels:
            grad_w[n] += np.sum(gb[n, :, rest:] * ub[n, :, rest:], axis=(1, 2, 3)) / cfg.g
    return (grad_w, grad_o) if u.ndim == 5 else (grad_w[0], grad_o[0])


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
@pytest.mark.parametrize("batch", [None, 3])
def test_weight_and_offset_grads_match_the_product_form(batch, dtype, tol):
    rng = Rng(40 if batch is None else 41)
    for trial in range(60):
        cfg, u, offsets, weights, grad_v = _random_case(rng.child(f"trial{trial}"), batch, dtype)
        _, tape = interlace_forward(u, offsets, weights, cfg)
        _, grad_o, grad_w = interlace_backward(grad_v, tape)
        assert grad_o.dtype == grad_w.dtype == dtype
        for got, want in zip((grad_w, grad_o), _product_form_grads(u, offsets, weights, grad_v, cfg)):
            scale = max(np.max(np.abs(want)), 1e-30)
            assert np.max(np.abs(got - want)) <= tol * scale, (trial, cfg)


@pytest.mark.parametrize("batch", [None, 2])
def test_adjoint_identity_at_fixed_offsets_and_weights(batch):
    # <v(u), g> = <u, grad_u>: the backward is the transpose of the forward
    rng = Rng(42 if batch is None else 43)
    for trial in range(60):
        cfg, u, offsets, weights, grad_v = _random_case(rng.child(f"trial{trial}"), batch)
        v, tape = interlace_forward(u, offsets, weights, cfg)
        grad_u, _, _ = interlace_backward(grad_v, tape)
        lhs, rhs = np.sum(v * grad_v), np.sum(u * grad_u)
        assert abs(lhs - rhs) <= 1e-12 * np.sum(np.abs(v * grad_v)), (trial, cfg)


@pytest.mark.parametrize("batch", [None, 2])
def test_offset_zero_and_weight_one_are_the_identity_bit_for_bit(batch):
    rng = Rng(44 if batch is None else 45)
    lead = [] if batch is None else [batch]
    for trial in range(40):
        cfg, u, _, _, grad_v = _random_case(rng.child(f"trial{trial}"), batch)
        v, tape = interlace_forward(u, np.zeros(lead + [cfg.g]), np.ones(lead + [cfg.g, cfg.t]), cfg)
        grad_u, _, _ = interlace_backward(grad_v, tape)
        assert v.tobytes() == u.tobytes(), (trial, cfg)
        assert grad_u.tobytes() == grad_v.tobytes(), (trial, cfg)


@pytest.mark.parametrize("batch", [None, 2])
def test_time_reversal_negates_the_offsets(batch):
    # interlace(u reversed in time, -O, w reversed) = interlace(u, O, w) reversed;
    # with mirror on, -O is again a mirrored offset vector
    rng = Rng(46 if batch is None else 47)
    t_axis = 0 if batch is None else 1
    for trial in range(60):
        cfg, u, offsets, weights, _ = _random_case(rng.child(f"trial{trial}"), batch)
        v, _ = interlace_forward(u, offsets, weights, cfg)
        v_rev, _ = interlace_forward(np.flip(u, t_axis), -offsets, weights[..., ::-1], cfg)
        assert np.max(np.abs(v_rev - np.flip(v, t_axis))) <= 1e-12, (trial, cfg)


@pytest.mark.parametrize("weight_all_channels", [False, True])
def test_forward_and_backward_allocate_little_beyond_their_result(weight_all_channels):
    # at the training shapes: no product the size of the shifted channels,
    # no full-map copy later overwritten
    cfg = InterlaceConfig(t=8, c=16, g=4, shift_fraction=0.25, mirror=True,
                          weight_all_channels=weight_all_channels)
    rng = Rng(48)
    u = rng.child("u").uniform([64, 8, 16, 16, 16], -1.0, 1.0)
    grad_v = rng.child("g").uniform(u.shape, -1.0, 1.0)
    half = rng.child("o").uniform([64, 2], -3.5, 3.5)
    offsets = np.concatenate([half, -half], axis=1)
    weights = rng.child("w").uniform([64, 4, 8], 0.1, 1.9)
    tracemalloc.start()
    try:
        v, tape = interlace_forward(u, offsets, weights, cfg)
        forward_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        grad_u, _, _ = interlace_backward(grad_v, tape)
        backward_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert forward_peak <= v.nbytes + 2**20
    assert backward_peak <= grad_u.nbytes + 2**20


@pytest.mark.parametrize("batch", [None, 3])
@pytest.mark.parametrize("mirror", [True, False])
@pytest.mark.parametrize("weight_all_channels", [False, True])
@pytest.mark.parametrize("zero_grad", [False, True])
def test_backward_into_grad_v_is_bit_equal_to_the_fresh_path(batch, mirror, weight_all_channels,
                                                            zero_grad):
    cfg = InterlaceConfig(t=8, c=16, g=4, mirror=mirror, weight_all_channels=weight_all_channels)
    rng = Rng(49)
    u, offsets, weights = _random_inputs(rng, cfg, batch)
    grad_v = np.zeros_like(u) if zero_grad else rng.child("g").uniform(list(u.shape), -1.0, 1.0)
    before = grad_v.copy()
    _, tape = interlace_forward(u, offsets, weights, cfg)
    want = interlace_backward(grad_v, tape)
    assert grad_v.tobytes() == before.tobytes(), "the fresh path wrote into grad_v"
    for out in (grad_v, np.full_like(u, np.nan)):
        _, tape = interlace_forward(u, offsets, weights, cfg)
        got = interlace_backward(grad_v, tape, out=out)
        assert got[0] is out
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
        grad_v = before.copy()


def test_backward_rejects_an_out_it_cannot_write_whole():
    # wrong shape or dtype, not C-ordered, read-only, or a part of grad_v
    cfg = InterlaceConfig(t=8, c=16)
    u, offsets, weights = _random_inputs(Rng(50), cfg, 2)
    both = np.ones((3,) + u.shape[1:])
    grad_v = both[:2]
    read_only = np.empty_like(u)
    read_only.flags.writeable = False
    for out in (np.empty(u.shape[1:]), np.empty(u.shape, np.float32), np.empty(u.shape[::-1]).T,
                read_only, both[1:], grad_v[::-1]):
        _, tape = interlace_forward(u, offsets, weights, cfg)
        with pytest.raises(ShapeError):
            interlace_backward(grad_v, tape, out=out)
        assert not tape.consumed
