import numpy as np
import pytest

from tin.errors import NonFiniteError
from tin import blocks
from tin.gradcheck import (GradReport, check, layer_check, offset_kink_distance, rel_err,
                           run_standard_checks, standard_checks)
from tin.tensors import Rng


def test_self_test_quadratic():
    x0 = Rng(0).uniform([6], -2.0, 2.0)
    rep = check(lambda p: p["x"] ** 2,
                lambda p, cot: {"x": 2.0 * p["x"] * cot},
                {"x": x0})
    assert rep.passed
    assert rep.max_rel_err < 1e-9


def test_linear_map_error_at_machine_scale():
    rng = Rng(1)
    a = rng.uniform([4, 7], -1.0, 1.0)
    x0 = rng.child("x").uniform([7], -1.0, 1.0)
    rep = check(lambda p: a @ p["x"],
                lambda p, cot: {"x": a.T @ cot},
                {"x": x0})
    assert rep.max_rel_err < 1e-10


def test_wrong_gradient_is_caught():
    x0 = Rng(2).uniform([5], 0.5, 2.0)
    rep = check(lambda p: p["x"] ** 2,
                lambda p, cot: {"x": 1.9 * p["x"] * cot},  # deliberately off
                {"x": x0})
    assert not rep.passed


def test_kink_coordinates_are_skipped_and_reported():
    def f(p):
        return np.abs(p["x"])

    def vjp(p, cot):
        return {"x": np.sign(p["x"]) * cot}

    point = {"x": np.array([1.5, 0.0, -2.0])}  # 0.0 sits on the kink of |x|
    rep = check(f, vjp, point,
                kink_dist=lambda name, p: np.abs(p["x"]))
    assert rep.passed
    assert ("x", 1) in rep.kinks
    assert rep.params[0].n_skipped == 1
    assert rep.params[0].n_checked == 2


def test_worst_index_is_the_last_largest_error_as_a_multi_index():
    def f(p):
        return 2.0 * p["x"]

    def vjp(p, cot, planted=None):
        g = 2.0 * cot
        if planted is not None:
            g[planted] *= 1.5
        return {"x": g}

    point = {"x": np.arange(1.0, 7.0).reshape(2, 3)}
    rep = check(f, lambda p, cot: vjp(p, cot, (1, 0)), point)
    assert rep.params[0].worst_index == (1, 0)
    # every error exactly 0, a tie: the last checked coordinate is reported, as Python ints
    rep = check(lambda p: 0.0 * p["x"], lambda p, cot: {"x": np.zeros((2, 3))}, point)
    assert rep.params[0].max_rel_err == 0.0 and rep.params[0].worst_index == (1, 2)
    assert all(type(i) is int for i in rep.params[0].worst_index)
    # every coordinate skipped at a kink: no index
    rep = check(f, vjp, point, kink_dist=lambda name, p: np.zeros((2, 3)))
    assert rep.params[0].worst_index == () and rep.params[0].n_checked == 0


def test_offset_kink_distance():
    d = offset_kink_distance(np.array([0.0, 1.3, -0.5, 2.00001]))
    assert np.allclose(d, [0.0, 0.3, 0.5, 0.00001], atol=1e-9)


def test_rel_err_definition():
    assert rel_err(1.0, 1.0) == 0.0
    assert rel_err(2.0, 1.0) == 0.5
    assert rel_err(0.0, 1e-9) == 1e-9 / 1e-8  # floor kicks in


def test_non_finite_point_raises():
    def explode(p):
        with np.errstate(divide="ignore"):
            return p["x"] / 0.0

    with pytest.raises(NonFiniteError):
        check(explode, lambda p, cot: {"x": cot}, {"x": np.ones(2)})


def test_registry_covers_every_operator():
    names = {c[0] for c in standard_checks(0)}
    for expected in ("temporal_sample.input", "temporal_sample.offset", "interlace",
                     "pool_descriptor", "conv1d.single_out", "conv1d.multi_out", "fc",
                     "sigmoid", "rescale_offsets", "rescale_offsets.mirror",
                     "offsetnet.params", "weightnet.params", "weightnet.channel_mean",
                     "cross_entropy",
                     "tin_block", "toy_net.end_to_end", "layer.pointwise_conv2d",
                     "layer.relu", "layer.temporal_conv", "layer.conv_relu", "layer.conv_max_pool",
                     "layer.temporal_mean", "layer.linear"):
        assert expected in names


class ScaledBackward:
    """A layer whose backward is off by a factor of 1.01."""

    def __init__(self, layer):
        self.layer = layer

    def named_params(self):
        return self.layer.named_params()

    def forward(self, x):
        return self.layer.forward(x)

    def backward(self, grad_y, tape):
        gx, grads = self.layer.backward(grad_y, tape)
        return 1.01 * gx, {k: 1.01 * v for k, v in grads.items()}


def test_layer_check_catches_a_scaled_backward():
    x = Rng(3).uniform([2, 3, 4, 2, 2], -1.0, 1.0)
    conv = blocks.PointwiseConv2d(4, 3, Rng(4), "pw")
    _, fwd, vjp, point, kink_dist, tol = layer_check("pw", conv, x)
    assert check(fwd, vjp, point, tol=tol, kink_dist=kink_dist).passed
    _, fwd, vjp, point, kink_dist, tol = layer_check("pw", ScaledBackward(conv), x)
    rep = check(fwd, vjp, point, tol=tol, kink_dist=kink_dist)
    assert {p.name for p in rep.params} == {"w", "b", "x"}
    assert not any(p.passed for p in rep.params)


def test_each_entry_alone_matches_the_full_registry():
    # an entry that wrote into an array another entry reads would change
    # the reports of the entries after it
    full = run_standard_checks(seed=0, max_coords=64)
    for i, name in enumerate(full):
        entry_name, fwd, vjp, point, kink_dist, tol = standard_checks(0)[i]
        assert entry_name == name
        alone = check(fwd, vjp, point, tol=tol, rng=Rng(0 ^ 0x5EED), max_coords=64,
                      kink_dist=kink_dist)
        assert alone.to_dict() == full[name].to_dict(), name


def test_full_registry_passes():
    reports = run_standard_checks(seed=0, max_coords=64)
    failures = {n: r.max_rel_err for n, r in reports.items() if not r.passed}
    assert not failures, failures
    # the deliberate integer-offset case is reported as a kink, not a pass
    assert len(reports["temporal_sample.offset_at_integer_kink"].kinks) == 1


def test_weightnet_channel_mean_entry_passes_at_seeds_0_to_59():
    # the only entry whose backward runs through the channel mean
    for seed in range(60):
        for name, fwd, vjp, point, kink_dist, tol in standard_checks(seed):
            if name == "weightnet.channel_mean":
                rep = check(fwd, vjp, point, tol=tol, rng=Rng(seed ^ 0x5EED), kink_dist=kink_dist)
                assert rep.passed, (seed, rep.to_dict())


def test_report_serializes():
    reports = run_standard_checks(seed=1, max_coords=8)
    from tin.gradcheck import reports_to_json
    import json

    body = json.loads(reports_to_json(reports))
    assert body["passed"] is True
    assert "tin_block" in body
