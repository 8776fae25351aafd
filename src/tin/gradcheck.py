"""Central finite-difference verification of every hand-written backward.

check() compares an analytic vector-Jacobian product against the central
difference (f(x + eps e) - f(x - eps e)) / (2 eps) of the scalar
<cotangent, forward(x)>, coordinate by coordinate. Coordinates sitting
within 2 eps of a known kink (integer sampling offsets) are skipped and
reported rather than silently passed. Relative error is
|a - n| / max(|a|, |n|, 1e-8).

standard_checks() is the registry of every differentiable operation in
the package, shared by the test suite and the CLI. An entry is a tuple
(name, forward, vjp, point, kink_dist, tol). A pure function's forward
and vjp read the point they are given. layer_check() builds the entry
for anything with forward, backward and named_params; it checks
the layers of the generator nets (conv1d.single_out, conv1d.multi_out, fc,
sigmoid), both nets (offsetnet.params, weightnet.params and
weightnet.channel_mean), each per-frame layer of the toy nets
(layer.conv_relu, layer.conv_max_pool, layer.relu, layer.temporal_conv,
layer.temporal_mean, layer.linear), layer.pointwise_conv2d (the fused
layers' test reference), the block (tin_block) and a toy net
(toy_net.end_to_end).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteError, ShapeError
from .interlace import InterlaceConfig
from .tensors import Rng

EPS = 1e-5
TOL = 1e-6
# the block of the tin_block and toy_net.end_to_end entries
_BLOCK_CFG = InterlaceConfig(t=4, c=8, g=2, shift_fraction=0.25, mirror=True)


@dataclass
class ParamReport:
    name: str
    max_rel_err: float
    max_abs_err: float
    worst_index: tuple
    n_checked: int
    n_skipped: int
    passed: bool


@dataclass
class GradReport:
    eps: float
    tol: float
    params: list
    kinks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.params)

    @property
    def max_rel_err(self) -> float:
        return max((p.max_rel_err for p in self.params), default=0.0)

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def rel_err(a: float, n: float) -> float:
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def check(forward, vjp, point: dict, *, eps: float = EPS, tol: float = TOL,
          rng: Rng | None = None, max_coords: int = 256, kink_dist=None) -> GradReport:
    """Verify vjp(point, v) against central differences of <v, forward(point)>.

    forward must be a pure function of the point dict; vjp returns a dict
    of gradients with the same keys. kink_dist, when given, maps
    (name, point) to per-coordinate distances from the nearest
    non-differentiable point; coordinates closer than 2 eps are skipped.
    """
    if max_coords < 1:
        raise ConfigError(f"need at least one coordinate per entry, got max_coords={max_coords}")
    rng = rng or Rng(0)
    out0 = np.asarray(forward(point))
    if not np.all(np.isfinite(out0)):
        raise NonFiniteError("forward produced non-finite values at the check point")
    cot = rng.child("cotangent").uniform(out0.shape, -1.0, 1.0)
    analytic = vjp(point, cot)
    if set(analytic) != set(point):
        raise ShapeError(f"vjp keys {sorted(analytic)} != point keys {sorted(point)}")

    def scalar(name: str, x: np.ndarray, flat: int, delta: float) -> float:
        xp = x.copy()
        xp.reshape(-1)[flat] += delta
        return float(np.sum(cot * np.asarray(forward({**point, name: xp}))))

    reports, kinks = [], []
    for name in sorted(point):
        x = np.asarray(point[name], dtype=np.float64)
        a = np.asarray(analytic[name], dtype=np.float64)
        if a.shape != x.shape:
            raise ShapeError(f"gradient for {name!r} shaped {a.shape}, expected {x.shape}")
        n_total = x.size
        if n_total == 0:
            reports.append(ParamReport(name, 0.0, 0.0, (), 0, 0, True))
            continue
        if n_total <= max_coords:
            coords = np.arange(n_total)
        else:
            coords = rng.child(f"coords:{name}").permutation(n_total)[:max_coords]
        dist = None if kink_dist is None else np.asarray(kink_dist(name, point))
        worst = (0.0, 0.0, None)    # rel err, abs err, flat index: the last largest wins
        n_checked = n_skipped = 0
        for flat in coords:
            flat = int(flat)
            if dist is not None and dist.reshape(-1)[flat] < 2 * eps:
                kinks.append((name, flat))
                n_skipped += 1
                continue
            numeric = (scalar(name, x, flat, eps) - scalar(name, x, flat, -eps)) / (2 * eps)
            e = rel_err(float(a.reshape(-1)[flat]), numeric)
            if e >= worst[0]:
                worst = (e, abs(float(a.reshape(-1)[flat]) - numeric), flat)
            n_checked += 1
        index = () if worst[2] is None else tuple(int(i) for i in np.unravel_index(worst[2], x.shape))
        reports.append(ParamReport(name, worst[0], worst[1], index,
                                   n_checked, n_skipped, worst[0] < tol))
    return GradReport(eps, tol, reports, kinks)


def offset_kink_distance(offsets: np.ndarray) -> np.ndarray:
    """Distance of each sampling offset from the nearest integer."""
    offsets = np.asarray(offsets, dtype=np.float64)
    return np.abs(offsets - np.round(offsets))


# ---------------------------------------------------------------------------
# registry of every backward pass in the package

def _fractional_offsets(rng: Rng, cfg, margin: float = 0.1) -> np.ndarray:
    """Offsets with |O - round(O)| > margin, mirror-consistent."""
    g_learned = cfg.g // 2 if cfg.mirror else cfg.g
    vals = np.empty(g_learned)
    for i in range(g_learned):
        while True:
            o = float(rng.uniform([], -cfg.t / 2 + 0.05, cfg.t / 2 - 0.05)[()])
            if abs(o - round(o)) > margin:
                vals[i] = o
                break
    return np.concatenate([vals, -vals]) if cfg.mirror else vals


def _offset_kinks(name: str, p: dict) -> np.ndarray:
    """Sampling offsets kink at integers; no other input has a kink."""
    if name in ("offset", "offsets"):
        return offset_kink_distance(p[name])
    return np.full(np.asarray(p[name]).size, np.inf)


def layer_check(name: str, layer, x, key: str = "x", tol: float = TOL) -> tuple:
    """Registry entry for anything with forward, backward and named_params.

    Checks the input (under key) and every parameter through the layer's
    own tape. A layer reads its parameters from its own arrays, so forward
    and vjp load each check point into them in place first, and the layer
    must not be shared with another entry. The point holds copies.
    """
    live = {**layer.named_params(), key: np.array(x, dtype=np.float64)}

    def run(p):
        for k, arr in live.items():
            arr[...] = p[k]
        return layer.forward(live[key])

    def vjp(p, cot):
        gx, param_grads = layer.backward(cot, run(p)[1])
        return {**param_grads, key: gx}

    return name, lambda p: run(p)[0], vjp, {k: a.copy() for k, a in live.items()}, None, tol


def standard_checks(seed: int = 0) -> list:
    """(name, forward, vjp, point, kink_dist, tol) for every operator."""
    from . import blocks, nets
    from .interlace import interlace_backward, interlace_forward, temporal_sample, \
        temporal_sample_vjp

    rng = Rng(seed)
    checks = []

    # temporal sampling w.r.t. the input at a fixed fractional offset
    u0 = rng.child("ts_u").uniform([6, 3, 2, 2], -1.0, 1.0)
    checks.append(("temporal_sample.input", lambda p: temporal_sample(p["u"], 1.3),
                   lambda p, cot: {"u": temporal_sample_vjp(p["u"], 1.3, cot)[0]},
                   {"u": u0}, None, TOL))

    # temporal sampling w.r.t. the offset (fractional, plus a flagged kink)
    for name, offset in (("temporal_sample.offset", -0.7),
                         ("temporal_sample.offset_at_integer_kink", 2.0)):
        checks.append((name, lambda p: temporal_sample(u0, float(p["offset"][0])),
                       lambda p, cot: {"offset": np.array(
                           [temporal_sample_vjp(u0, float(p["offset"][0]), cot)[1]])},
                       {"offset": np.array([offset])}, _offset_kinks, TOL))

    # full interlace operator w.r.t. input, offsets, weights
    cfg = InterlaceConfig(t=6, c=8, g=4, shift_fraction=0.5, mirror=False)
    uin = rng.child("il_u").uniform([6, 8, 2, 2], -1.0, 1.0)
    il = {"u": uin, "offsets": _fractional_offsets(rng.child("il_off"), cfg),
          "weights": rng.child("il_w").uniform([4, 6], 0.2, 1.8)}

    def run_il(p):
        return interlace_forward(p["u"], p["offsets"], p["weights"], cfg)

    checks.append(("interlace", lambda p: run_il(p)[0],
                   lambda p, cot: dict(zip(il, interlace_backward(cot, run_il(p)[1]))),
                   il, _offset_kinks, TOL))

    cfg_all = InterlaceConfig(t=6, c=8, g=2, shift_fraction=0.5, mirror=True,
                              weight_all_channels=True)
    ilm = {"u": uin, "half": _fractional_offsets(rng.child("ilm_off"), cfg_all)[:1],
           "weights": rng.child("ilm_w").uniform([2, 6], 0.2, 1.8)}

    def run_ilm(p):
        offsets = np.concatenate([p["half"], -p["half"]])
        return interlace_forward(p["u"], offsets, p["weights"], cfg_all)

    def ilm_vjp(p, cot):
        gu, go, gw = interlace_backward(cot, run_ilm(p)[1])
        return {"u": gu, "half": go[:1] - go[1:], "weights": gw}

    checks.append(("interlace.mirror_weight_all", lambda p: run_ilm(p)[0], ilm_vjp, ilm, None, TOL))

    # pooling
    checks.append((
        "pool_descriptor",
        lambda p: nets.pool_descriptor(p["u"]),
        lambda p, cot: {"u": nets.pool_descriptor_vjp(cot, p["u"].shape[-2], p["u"].shape[-1])},
        {"u": rng.child("pool").uniform([5, 3, 4, 4], -1.0, 1.0)}, None, TOL))

    # offset rescale, plain and mirrored
    raw0 = rng.child("rs").uniform([4], 0.05, 0.95)
    for mirror in (False, True):
        checks.append(("rescale_offsets" + ".mirror" * mirror,
                       lambda p, m=mirror: nets.rescale_offsets(p["raw"], 8, m),
                       lambda p, cot, m=mirror: {"raw": nets.rescale_offsets_vjp(cot, 8, m)},
                       {"raw": raw0}, None, TOL))

    # classification loss
    lg = rng.child("ce_x").uniform([3, 4], -2.0, 2.0)
    labels = np.array([0, 2, 3])
    checks.append((
        "cross_entropy",
        lambda p: np.array([blocks.cross_entropy(p["logits"], labels)[0]]),
        lambda p, cot: {"logits": float(cot[0]) * blocks.cross_entropy(p["logits"], labels)[1]},
        {"logits": lg}, None, TOL))

    # the layers of the generator nets: conv over time C -> 1 (no bias) and
    # C -> G (bias), fully connected, sigmoid (kept unsaturated so
    # differences stay meaningful)
    z0 = rng.child("c1_z").uniform([2, 5, 7], -1.0, 1.0)
    checks.append(layer_check("conv1d.single_out", blocks.Conv1d(
        5, 1, rng.child("c1_k"), "conv", bias=False, scale=1.0), z0))
    conv = blocks.Conv1d(5, 4, rng.child("cg_k"), "conv", scale=1.0)
    conv.b[:] = rng.child("cg_b").uniform([4], -1.0, 1.0)
    checks.append(layer_check("conv1d.multi_out", conv, z0))
    fc = blocks.Linear(6, 4, rng.child("fc_w"), "fc", scale=1.0)
    fc.b[:] = rng.child("fc_b").uniform([4], -1.0, 1.0)
    checks.append(layer_check("fc", fc, rng.child("fc_x").uniform([3, 6], -1.0, 1.0)))
    checks.append(layer_check("sigmoid", blocks.Sigmoid(), rng.child("sig").uniform([4, 5], -3.5, 3.5)))

    # offset net and weight net end to end, parameters nudged off their zero init
    zo = rng.child("onet_z").uniform([2, 5, 7], -1.0, 1.0)
    onet = blocks.OffsetNet(7, 5, 2, rng.child("onet"))
    onet.fc2_w[:] = rng.child("onet_w2").uniform([2, 7], -0.5, 0.5)
    onet.fc2_b[:] = rng.child("onet_b2").uniform([2], -0.5, 0.5)
    checks.append(layer_check("offsetnet.params", onet, zo))
    # the channel mean divides the input gradient by C; a wider kernel keeps
    # it further above the rounding noise of the differences
    for name, mode, tag, k in (("weightnet.params", "descriptor", "wnet", 0.5),
                               ("weightnet.channel_mean", "channel_mean", "wnet_cm", 1.5)):
        wnet = blocks.WeightNet(7, 5, 3, rng.child(tag), mode)
        wnet.conv[:] = rng.child(f"{tag}_k").uniform(wnet.conv.shape, -k, k)
        wnet.bias[:] = rng.child(f"{tag}_b").uniform([3], -0.5, 0.5)
        checks.append(layer_check(name, wnet, zo))

    # every per-frame layer on its own, [N, T, C, H, W] -> ... -> [N, K]
    tconv = blocks.TemporalConv(4, "tconv")     # random taps: the identity init uses one tap only
    tconv.taps[:] = rng.child("tconv").uniform([4, 3], -1.0, 1.0)
    pw = blocks.PointwiseConv2d(3, 4, rng.child("pw"), "pw")
    fused = {}
    for name, cls in (("layer.conv_relu", blocks.PointwiseConv2dReLU),
                      ("layer.conv_max_pool", blocks.PointwiseConv2dMaxPool)):
        fused[name] = cls(3, 4, rng.child(f"{name}.w"), "pw")
        fused[name].b[:] = rng.child(f"{name}.b").uniform([4], -0.5, 0.5)
    for name, layer, shape in (
            ("layer.pointwise_conv2d", pw, [2, 3, 3, 2, 2]),
            ("layer.relu", blocks.ReLU(), [2, 3, 4, 2, 2]),
            ("layer.temporal_conv", tconv, [2, 3, 4, 2, 2]),
            ("layer.conv_relu", fused["layer.conv_relu"], [2, 3, 3, 2, 2]),
            ("layer.conv_max_pool", fused["layer.conv_max_pool"], [2, 3, 3, 3, 3]),
            ("layer.temporal_mean", blocks.TemporalMean(), [2, 3, 4]),
            ("layer.linear", blocks.Linear(4, 3, rng.child("linear"), "linear"), [2, 4])):
        checks.append(layer_check(name, layer, rng.child(name).uniform(shape, -1.0, 1.0)))

    # the full block: every parameter plus the input, via the block's own tape
    brng = rng.child("block")
    block = blocks.TinBlock(_BLOCK_CFG, brng.child("params"), "tin")
    _nudge(block, brng, w2=0.4, b2=(0.35, -0.2), wk=0.3, wb=0.3)
    checks.append(layer_check("tin_block", block,
                              brng.child("u").uniform([4, 8, 2, 2], -1.0, 1.0), key="u"))
    # toy net end to end: deepest composition, looser tolerance
    trng = rng.child("toynet")
    checks.append(layer_check("toy_net.end_to_end", _scaled_toy_net(trng),
                              trng.child("x").uniform([2, 4, 2, 3, 3], -2.0, 2.0), tol=1e-5))
    return checks


def _nudge(block, rng: Rng, w2: float, b2: tuple, wk: float, wb: float) -> None:
    """Perturb a TinBlock's nets off their init so offsets sit far from integers."""
    block.onet.fc2_w[:] = rng.child("w2").uniform(block.onet.fc2_w.shape, -w2, w2)
    block.onet.fc2_b[:] = b2
    block.wnet.conv[:] = rng.child("wk").uniform(block.wnet.conv.shape, -wk, wk)
    block.wnet.bias[:] = rng.child("wb").uniform(block.wnet.bias.shape, -wb, wb)


def _scaled_toy_net(rng: Rng):
    """The toy net for the deepest composition, the whole network mapping.

    Scales are pushed up so no weakly-connected coordinate has a gradient
    near the finite-difference noise floor; exact-zero coordinates (dead
    ReLUs, mirrored raw offsets) difference to exactly zero and are fine.
    """
    from . import blocks

    net = blocks.make_toy_net(4, 2, 3, rng.child("net"), hidden=8, temporal="tin",
                              cfg=_BLOCK_CFG, head_scale=1.0)
    tin = net.tin_blocks()[0]
    tin.onet.conv *= 2.0
    tin.onet.fc1_w *= 1.5
    _nudge(tin, rng, w2=0.5, b2=(0.5, -0.35), wk=0.15, wb=0.4)
    for layer in net.layers:
        if layer.name in ("conv1", "conv2"):
            layer.w *= 2.0
    return net


def run_standard_checks(seed: int = 0, max_coords: int = 256) -> dict:
    """Run the whole registry; returns {name: GradReport}."""
    out = {}
    for name, fwd, vjp, point, kink_dist, tol in standard_checks(seed):
        out[name] = check(fwd, vjp, point, tol=tol, rng=Rng(seed ^ 0x5EED),
                          max_coords=max_coords, kink_dist=kink_dist)
    return out


def reports_to_json(reports: dict) -> str:
    body = {name: rep.to_dict() for name, rep in sorted(reports.items())}
    body["passed"] = all(rep.passed for rep in reports.values())
    return json.dumps(body, indent=2, sort_keys=True)
