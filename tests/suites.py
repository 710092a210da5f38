"""Parameterized random property suites, shared by the regular tests (small
sizes) and the acceptance gate (full sizes).

Each suite returns the list of violations it found (empty = pass), so both
callers can assert emptiness and print diagnostics.
"""

from __future__ import annotations

import numpy as np

from phidual import (
    Elementary,
    INF,
    biconjugate_leq_f,
    check_intersection_property,
    duality_chain_report,
    eps_subgradient_via_conjugate,
    is_eps_subgradient,
    phi_conjugate,
)
from oracles import (
    box1d,
    check_intersection_direct,
    lsc_class,
    random_elementary,
    random_instance,
    random_piecewise,
)


def suite_fenchel_moreau(rng: np.random.Generator, n_instances: int, tol=1e-9):
    """f(x) + f*(phi) >= phi(x) on sampled x in dom f, random f and phi."""
    box = box1d(n=501)
    violations = []
    for k in range(n_instances):
        f = random_piecewise(rng)
        for _ in range(5):
            phi = random_elementary(rng)
            fstar = phi_conjugate(f, phi, box).value
            if fstar == INF:
                continue
            for x in (-3.0, -1.0, 0.0, 0.5, 2.0):
                fx = f(x)
                if fx == INF:
                    continue
                slack = fx + fstar - phi(x)
                if slack < -tol:
                    violations.append((k, phi, x, slack))
    return violations


def suite_biconjugate_below(rng: np.random.Generator, n_instances: int, tol=1e-6):
    """f** <= f at every grid point for random piecewise instances."""
    box = box1d(n=501)
    cls = lsc_class(grid=33)
    violations = []
    for k in range(n_instances):
        f = random_piecewise(rng)
        if not biconjugate_leq_f(f, cls, box, tol=tol):
            violations.append(k)
    return violations


def suite_chain(rng: np.random.Generator, n_instances: int):
    """No certified violation of the value chain on random instances."""
    violations = []
    for k in range(n_instances):
        inst = random_instance(rng)
        report = duality_chain_report(inst)
        if not report.chain_ok:
            violations.append((k, report.violations))
    return violations


def suite_eps_equivalence(rng: np.random.Generator, n_queries: int):
    """The direct and conjugate-side eps-subgradient tests always agree."""
    box = box1d(n=501)
    mismatches = []
    done = 0
    while done < n_queries:
        f = random_piecewise(rng)
        phi = random_elementary(rng)
        x_candidates = [x for x in (-2.5, -1.0, 0.0, 0.75, 2.0) if f(x) < INF]
        if not x_candidates:
            continue
        x_bar = x_candidates[int(rng.integers(0, len(x_candidates)))]
        eps = float(rng.choice([0.0, 0.001, 0.01, 0.1, 1.0, 2.5]))
        direct = is_eps_subgradient(f, x_bar, phi, eps, box).holds
        via = eps_subgradient_via_conjugate(f, x_bar, phi, eps, box)
        if direct != via:
            mismatches.append((f, phi, x_bar, eps, direct, via))
        done += 1
    return mismatches


def suite_lemma_agreement(rng: np.random.Generator, n_cases: int, t_grid=1001):
    """The lemma-form intersection check agrees with the direct emptiness oracle."""
    box = box1d(n=501)
    mismatches = []
    done = 0
    while done < n_cases:
        phi1 = Elementary(
            float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            (float(rng.uniform(-3, 3)),),
            float(rng.uniform(-4, 4)),
        )
        phi2 = Elementary(
            float(rng.choice([0.0, 0.5, 1.0])),
            (float(rng.uniform(-3, 3)),),
            float(rng.uniform(-4, 4)),
        )
        alpha = float(rng.uniform(-8.0, 2.0))
        cert = check_intersection_property(phi1, phi2, alpha, box)
        if abs(cert.min_over_x_at_t0 - alpha) < 5e-3:
            continue  # near-tie: the two checks legitimately disagree there
        direct = check_intersection_direct(phi1, phi2, alpha, box, t_grid)
        if cert.holds != direct:
            mismatches.append((phi1, phi2, alpha, cert.holds, direct))
        done += 1
    return mismatches
