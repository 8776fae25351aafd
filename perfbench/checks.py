"""Correctness checks on the program's outputs.

Each check compares against a computation made here, apart from the
program (loops over frames, central differences), or against a property
the method must have. None compares against a saved copy of an earlier
output. Every check returns (ok, detail).
"""

from __future__ import annotations

import math

import numpy as np

BLOCK_TOL = 1e-9
# Central differences: a VJP that is off by 1 % must fail. Rounding must not,
# nor the dense ReLU kinks of the near-constant background pixels, which put
# errors of up to 3e-4 on conv1.b of trained nets.
GRAD_EPS = 1e-6
GRAD_TOL = 1e-3
GRAD_ULPS = 64


def interlace_reference(u: np.ndarray, offsets, weights, c_shift: int) -> np.ndarray:
    """The operator written as a loop over frames, for one clip [T, C, H, W].

    Group g owns channels [g*gs, (g+1)*gs) with gs = c_shift / G, and
    v[t] = w[g, t] * ((1 - f) * u[t + n0] + f * u[t + n0 + 1]) with
    n0 = floor(O_g), f = O_g - n0 and zeros outside the clip. The
    remaining channels pass through.
    """
    t = u.shape[0]
    g = len(offsets)
    gs = c_shift // g
    v = u.copy()
    for gi in range(g):
        o = float(offsets[gi])
        n0 = math.floor(o)
        f = o - n0
        lo, hi = gi * gs, (gi + 1) * gs
        for ti in range(t):
            acc = np.zeros(u.shape[1:])[lo:hi]
            for src, coef in ((ti + n0, 1.0 - f), (ti + n0 + 1, f)):
                if 0 <= src < t:
                    acc = acc + coef * u[src, lo:hi]
            v[ti, lo:hi] = float(weights[gi, ti]) * acc
    return v


def tconv_reference(u: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Zero-padded per-channel temporal convolution as a loop over frames.

    u: [T, C, H, W]; taps[c] covers relative frames -(k//2) .. k//2.
    """
    t, c = u.shape[:2]
    k = taps.shape[1]
    v = np.zeros_like(u)
    for ti in range(t):
        for j in range(k):
            src = ti + j - k // 2
            if 0 <= src < t:
                v[ti] += taps[:, j, None, None] * u[src]
    return v


def block_matches_loop(arm: str, block, u: np.ndarray, v: np.ndarray, tape):
    """The trained temporal layer's output on one clip against the loop.

    u, v: the layer's input and output, [1, T, C, H, W]; tape: the
    layer's forward tape (TinBlock's holds the emitted offsets and weights).
    """
    if arm == "tin":
        want = interlace_reference(u[0], np.asarray(tape["offsets"])[0],
                                   np.asarray(tape["weights"])[0], block.cfg.c_shift)
    else:
        want = tconv_reference(u[0], block.taps)
    if v[0].shape != want.shape:
        return False, f"{arm} block on one clip: shape {v[0].shape} != {want.shape}"
    diff = float(np.max(np.abs(v[0] - want)))
    return diff <= BLOCK_TOL, f"{arm} block on one clip: max |program - loop| = {diff:.3e}"


def sample_coords(params: dict, per_param: int, rng: np.random.Generator) -> list:
    """(name, flat index) pairs, a few from every parameter tensor."""
    coords = []
    for name in sorted(params):
        size = params[name].size
        for flat in rng.choice(size, size=min(per_param, size), replace=False):
            coords.append((name, int(flat)))
    return coords


def loss_gradient_matches(net, cross_entropy, x: np.ndarray, labels: np.ndarray, coords: list):
    """ToyNet.backward against central differences of the loss.

    A coordinate passes when the analytic value is within GRAD_TOL
    (relative) plus the rounding noise of the differences, a few ulps of
    the loss divided by eps. ReLU and max pooling make the loss piecewise
    smooth, and the near-constant background pixels put many
    pre-activations within eps of a kink. Where the two one-sided
    differences disagree by more than twice that allowance the coordinate
    straddles a kink: it is skipped and counted, as gradcheck does with
    integer offsets. At least half the coordinates must be checked.
    """
    params = net.named_params()

    def loss() -> float:
        logits, _ = net.forward(x)
        return cross_entropy(logits, labels)[0]

    logits, tapes = net.forward(x)
    base, grad_logits, _ = cross_entropy(logits, labels)
    _, grads = net.backward(grad_logits, tapes)
    noise = GRAD_ULPS * float(np.spacing(max(abs(base), 1.0))) / GRAD_EPS
    worst, where, kinks = 0.0, None, 0
    for name, flat in coords:
        p = params[name].reshape(-1)
        old = p[flat]
        p[flat] = old + GRAD_EPS
        up = loss()
        p[flat] = old - GRAD_EPS
        down = loss()
        p[flat] = old
        ahead, behind = (up - base) / GRAD_EPS, (base - down) / GRAD_EPS
        analytic = float(np.asarray(grads[name]).reshape(-1)[flat])
        allowed = GRAD_TOL * max(abs(analytic), abs(ahead), abs(behind)) + noise
        if abs(ahead - behind) > 2.0 * allowed:
            kinks += 1
            continue
        err = abs(analytic - (ahead + behind) / 2.0) / allowed
        if not err < worst:
            worst, where = err, (name, flat)
    ok = worst < 1.0 and 2 * kinks <= len(coords)
    return ok, (f"loss gradient at {len(coords)} coordinates, {kinks} on a kink: "
                f"worst error {worst:.2f} of the allowance at {where}")


def all_finite(values, what: str):
    values = np.asarray(values, dtype=np.float64)
    ok = bool(np.all(np.isfinite(values)))
    return ok, f"{what}: {values.size} values, all finite" if ok else f"{what}: non-finite value"


def loss_lowered(before: float, after: float):
    return after < before, f"val loss {before:.4f} before training, {after:.4f} after"


def above_chance(acc: float, classes: int, val_clips: int):
    """Above chance by the acceptance gate's margin, three binomial sigmas."""
    bar = 1.0 / classes + 3.0 * math.sqrt(0.25 / val_clips)
    return acc > bar, f"val acc {acc:.4f} vs chance + margin {bar:.4f}"


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def equivalence_passed(report):
    ok = report.passed and report.failures == 0 and report.max_abs_diff < report.tol
    return ok, (f"equivalence: {report.trials} trials, max diff {report.max_abs_diff:.2e}, "
                f"{report.failures} failures")


def gradcheck_passed(reports: dict):
    """Every registry entry passes and the integer-offset kink is reported."""
    failing = sorted(name for name, rep in reports.items() if not rep.passed)
    kinked = sorted(name for name, rep in reports.items() if rep.kinks)
    ok = not failing and bool(kinked)
    return ok, f"gradcheck: {len(reports)} checks, failing {failing}, kinks reported in {kinked}"
