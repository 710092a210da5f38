"""Seeded input generator and independent reference arithmetic.

Nothing here imports phidual: instances are plain instance documents (the
JSON format `phidual.serialize.parse_instance` reads) plus the piece lists
they were built from, and the reference values are computed with numpy and
literal formula transcriptions, so they cannot share the library's bugs.

The same seed always gives the same documents (see `digest`).
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

INF = math.inf

# 1D working box and class truncation shared by exact-1d and grid-1d
BOX_1D = (-10.0, 10.0, 2001)
A_MAX, V_MAX = 8.0, 32.0
PHI_1D = {
    "lsc-quadratic": {"kind": "lsc-quadratic", "a_max": A_MAX, "v_max": V_MAX, "grid": [65, 65]},
    "affine": {"kind": "affine", "a_max": A_MAX, "v_max": V_MAX, "grid": [65]},
}
# seeded instances per operation list (one list is one pass of a run):
# exact-1d runs the first 8 of the 1D stream, grid-1d twins the first 16
N_EXACT_1D = 8
N_GRID_1D = 16
SEARCH_BUDGET = 8
SPOTS_PER_INSTANCE = 3


def _snap(x: float, step: float = 0.25) -> float:
    return round(float(x) / step) * step


def _enc(x: float):
    if x == INF:
        return "+inf"
    if x == -INF:
        return "-inf"
    return float(x)


def digest(obj) -> str:
    """Stable hash of a JSON-ready structure (used by the determinism test)."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# independent piecewise-quadratic arithmetic
# ---------------------------------------------------------------------------


def piece_values(pieces, xs: np.ndarray) -> np.ndarray:
    """f at xs: minimum over the pieces whose closed interval holds x, +inf elsewhere."""
    out = np.full(np.shape(xs), INF)
    for lo, hi, a2, a1, a0 in pieces:
        inside = (xs >= lo) & (xs <= hi)
        out = np.where(inside, np.minimum(out, (a2 * xs + a1) * xs + a0), out)
    return out


def quad_sup(A: float, B: float, C: float, lo: float, hi: float) -> float:
    """sup of A x^2 + B x + C over [lo, hi] (ends may be infinite)."""
    if (hi == INF and (A > 0 or (A == 0 and B > 0))) or (
        lo == -INF and (A > 0 or (A == 0 and B < 0))
    ):
        return INF
    cands = [A * x * x + B * x + C for x in (lo, hi) if math.isfinite(x)]
    if A < 0 and lo <= -B / (2 * A) <= hi:
        cands.append(C - B * B / (4 * A))
    if A == 0 and B == 0:
        cands.append(C)
    return max(cands)


def conjugate_ref(pieces, side: str, a: float, v: float, box=None) -> float:
    """right: sup(phi - f); left: sup(-f - phi), phi = -a x^2 + v x (c = 0)."""
    s = 1.0 if side == "right" else -1.0
    best = -INF
    for lo, hi, a2, a1, a0 in pieces:
        if box is not None:
            lo, hi = max(lo, box[0]), min(hi, box[1])
            if lo > hi:
                continue
        best = max(best, quad_sup(-s * a - a2, s * v - a1, -a0, lo, hi))
    return best


def lipschitz_on_box(pieces, lo: float, hi: float) -> float:
    """Largest |f'| over the pieces' parts inside [lo, hi]."""
    out = 0.0
    for plo, phi_, a2, a1, _ in pieces:
        l, h = max(plo, lo), min(phi_, hi)
        if l <= h:
            out = max(out, abs(2 * a2 * l + a1), abs(2 * a2 * h + a1))
    return out


def clip_pieces(pieces, lo: float, hi: float):
    return [
        (max(p[0], lo), min(p[1], hi), *p[2:])
        for p in pieces
        if max(p[0], lo) <= min(p[1], hi)
    ]


def pieces_doc(pieces, label: str) -> dict:
    return {
        "type": "piecewise-quadratic",
        "label": label,
        "pieces": [
            {"interval": [_enc(lo), _enc(hi)], "coeffs": [a2, a1, a0]}
            for lo, hi, a2, a1, a0 in pieces
        ],
    }


def box_axis_1d() -> np.ndarray:
    return np.linspace(BOX_1D[0], BOX_1D[1], BOX_1D[2])


def instance_doc_1d(f_pieces, g_pieces, kind: str) -> dict:
    return {
        "dimension": 1,
        "f": pieces_doc(f_pieces, "f"),
        "g": pieces_doc(g_pieces, "g"),
        "box": {"lower": [BOX_1D[0]], "upper": [BOX_1D[1]], "samples": [BOX_1D[2]]},
        "phi": dict(PHI_1D[kind]),
    }


def twin_doc_1d(f_pieces, g_pieces, phi: dict) -> dict:
    """Tabulated twin: both functions sampled on the 1D box grid."""
    xs = box_axis_1d()

    def tab(pieces, label):
        return {
            "type": "tabulated",
            "label": label,
            "table": {"values": [_enc(v) for v in piece_values(pieces, xs).tolist()]},
        }

    return {
        "dimension": 1,
        "f": tab(f_pieces, "f"),
        "g": tab(g_pieces, "g"),
        "box": {"lower": [BOX_1D[0]], "upper": [BOX_1D[1]], "samples": [BOX_1D[2]]},
        "phi": dict(phi),
    }


# ---------------------------------------------------------------------------
# random 1D instances (exact-1d, and the twins of grid-1d)
# ---------------------------------------------------------------------------


# the 8 strata of the 1D stream: (class kind, pair, domain of f, optimum).
# "grid" puts the minimizer and an optimal elementary on the searched grids,
# so a KKT search certifies at once; "generic" optima fall between grid
# points and the search spends its whole budget; "gap" has a duality gap.
STRATA_1D = (
    ("lsc-quadratic", "convex", "unbounded", "grid"),
    ("affine", "convex", "unbounded", "grid"),
    ("lsc-quadratic", "nonconvex", "unbounded", "grid"),
    ("affine", "nonconvex", "unbounded", "grid"),
    ("lsc-quadratic", "convex", "bounded", "generic"),
    ("affine", "convex", "bounded", "generic"),
    ("lsc-quadratic", "nonconvex", "bounded", "generic"),
    ("affine", "gap", "bounded", "generic"),
)


def _two_pieces(lo, hi, a2, a1, a0, s, b2, kink):
    """Split a2 x^2 + a1 x + a0 at s: the right piece has curvature b2 and a
    slope larger by `kink` at s, and the function stays continuous."""
    b1 = a1 + 2 * (a2 - b2) * s + kink
    b0 = a0 + (a2 - b2) * s * s + (a1 - b1) * s
    return [(lo, s, a2, a1, a0), (s, hi, b2, b1, b0)]


def random_instance_1d(rng, k: int) -> dict:
    """Instance k of the stratified 1D stream; stratum k mod 8 fixes the
    structure (and so the work), the seed draws the coefficients.

    Outside the gap stratum f + g has curvature >= 1/2 where it is finite,
    so every minimum lies well inside the box; in the gap stratum it is
    affine on a bounded domain.
    """
    kind, pair, domain, optimum = STRATA_1D[k % len(STRATA_1D)]
    lo, hi = (-INF, INF)
    if domain == "bounded":
        lo, hi = float(rng.integers(-6, -2)), float(rng.integers(3, 7))
    if optimum == "grid":
        # integer minimizer, half-integer curvatures, integer slopes: the
        # optimal w = g'(x*) + 2 a x* is an integer, a point of the v-grid
        x_star = float(rng.integers(-3, 4))
        if pair == "convex":
            af, ag = float(rng.choice([1.0, 1.5, 2.0])), float(rng.choice([0.5, 1.0]))
        else:
            af, ag = float(rng.choice([2.0, 3.0])), float(rng.choice([-1.0, -0.5]))
        g1 = float(rng.integers(-3, 4))
        f1 = -2 * af * x_star - (2 * ag * x_star + g1)
        f0, g0 = _snap(rng.uniform(-3, 3)), _snap(rng.uniform(-3, 3))
    else:
        af = float(rng.choice([1.0, 2.0])) if pair != "gap" else float(rng.choice([-1.0, -0.5]))
        ag = float(rng.choice([0.5, 1.0]))
        if pair == "nonconvex":
            af, ag = float(rng.choice([2.0, 3.0])), float(rng.choice([-1.0, -0.5]))
        f1, g1 = rng.uniform(-3, 3), rng.uniform(-3, 3)
        f0, g0 = rng.uniform(-3, 3), rng.uniform(-3, 3)
    if pair == "gap":
        lo, hi = float(-rng.integers(1, 3)), float(rng.integers(1, 3))
        ag = -af  # f + g is affine on [lo, hi]: the minimum sits on a box end
        # its slope is at most a quarter of |af| (hi - lo): the convex
        # envelope of f then dips below f + g inside [lo, hi], so every seed
        # has a gap and the bridge's intersection search exhausts its budget
        g1 = -f1 + rng.uniform(-0.25, 0.25) * abs(af) * (hi - lo)
    g = [(-INF, INF, ag, g1, g0)]
    if k % 2 == 0 and pair != "gap":
        # lsc strata give f a convex kink two units away from the minimizer
        s = float(np.clip(round(-(f1 + g1) / (2 * (af + ag))) + 2, lo + 1, hi - 1))
        f = _two_pieces(lo, hi, af, f1, f0, s, af + 0.5, 1.0)
    else:
        f = [(lo, hi, af, f1, f0)]
    spots = [
        {
            "which": str(rng.choice(["f", "g"])),
            "side": str(rng.choice(["right", "left"])),
            "a": float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            "v": _snap(rng.uniform(-4, 4)),
        }
        for _ in range(SPOTS_PER_INSTANCE)
    ]
    # the certified KKT pair of the "grid" strata: phi* = (a*, w*) with
    # a* in [-ag, af] on the a-grid and w* = g'(x*) + 2 a* x* (an integer)
    kkt = None
    if optimum == "grid" and not (kind == "affine" and pair == "nonconvex"):
        a_star = 1.0 if pair == "nonconvex" else 0.0
        kkt = {"x": x_star, "a": a_star, "w": 2 * ag * x_star + g1 + 2 * a_star * x_star}
    return {
        "name": f"random-{k}",
        "index": k,
        "kind": kind,
        "stratum": "/".join((kind, pair, domain, optimum)),
        "kkt": kkt,
        "f": f,
        "g": g,
        "spots": spots,
    }


def instances_1d(seed: int, n: int) -> list[dict]:
    """The first n instances of the seeded 1D stream (the worker puts the
    catalog entries, read from the library, in front of them)."""
    rng = np.random.default_rng([seed, 1])
    return [random_instance_1d(rng, k) for k in range(n)]
