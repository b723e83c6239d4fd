"""Training objectives over beam distributions, with analytic gradients.

Five loss families, each available on joint logits over all Na*Ne*Nr beams
and (where meaningful) on factorised "sep" logits with separate azimuth,
elevation, and sector heads:

* ce:  cross entropy against the optimal beam index;
* cep: cross entropy against a soft target derived from the beam power
       tensor in dB (floored, shifted to be nonnegative, normalised);
* ws:  optimal-transport cost between the predicted distribution and the
       one-hot target under the Euclidean distance between beam index
       triples, solved by entropic regularisation (log-domain scaling
       iterations); against a one-hot target the cost reduces to the
       expectation of the distance column, which supplies the gradient;
* ir:  mean squared error on the index triple treated as three regression
       targets (sep only);
* gr:  mean squared error on the beam power tensor in dB (same flooring as
       cep), candidates ranked by predicted value.

A central finite-difference checker validates every analytic gradient, and
an exact linear-program transport solver serves as the oracle for the
entropic solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IterationLimitError, UnsupportedFormError


def softmax(z, axis=-1):
    """Numerically stable exponential normalisation."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(z, axis=-1):
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def ce_loss(logits, target_index):
    """Cross entropy of a one-hot target; grad = softmax(logits) - one_hot."""
    p = softmax(logits)
    loss = -log_softmax(logits)[target_index]
    grad = p.copy()
    grad[target_index] -= 1.0
    return float(loss), grad


def ce_loss_sep(logits_sep, target_triple):
    """Sum of per-head cross entropies for a factorised prediction."""
    losses, grads = zip(*(ce_loss(z, t) for z, t in zip(logits_sep, target_triple)))
    return float(sum(losses)), tuple(grads)


def cep_target(tensor, floor_db=-30.0):
    """Soft target from a beam power tensor: dB relative to the peak,
    floored at floor_db, shifted to be >= 0, normalised to sum 1.

    Zero entries map to the floor share. Flattens in C order (flat beam
    index order).
    """
    t = np.asarray(tensor, dtype=np.float64).ravel()
    peak = t.max()
    if peak <= 0.0:
        raise ValueError("soft target undefined for an all-zero tensor")
    if floor_db >= 0.0:
        raise ValueError("floor must be below the 0 dB peak")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.where(t > 0.0, t / peak, 0.0))
    shifted = np.maximum(db, floor_db) - floor_db
    return shifted / shifted.sum()


def cep_target_sep(tensor, floor_db=-30.0):
    """Marginals of the joint soft target along each beam axis."""
    joint = cep_target(tensor, floor_db).reshape(np.asarray(tensor).shape)
    return (joint.sum(axis=(1, 2)), joint.sum(axis=(0, 2)), joint.sum(axis=(0, 1)))


def cep_loss(logits, soft_target):
    """Cross entropy against a soft target; grad = softmax(logits) - target."""
    soft_target = np.asarray(soft_target, dtype=np.float64)
    if soft_target.shape != np.shape(logits):
        raise ValueError("logits and soft target shapes differ")
    logp = log_softmax(logits)
    loss = -float(np.dot(soft_target, logp))
    grad = softmax(logits) - soft_target
    return loss, grad


def cep_loss_sep(logits_sep, soft_sep):
    losses, grads = zip(*(cep_loss(z, s) for z, s in zip(logits_sep, soft_sep)))
    return float(sum(losses)), tuple(grads)


def beam_distance_matrix(dims):
    """Euclidean distances between beam index triples, flat x flat."""
    na, ne, nr = dims
    triples = np.stack(np.meshgrid(np.arange(na), np.arange(ne), np.arange(nr),
                                   indexing="ij"), axis=-1).reshape(-1, 3).astype(np.float64)
    diff = triples[:, None, :] - triples[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def _lse(a, axis):
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return np.squeeze(m, axis) + np.log(np.exp(a - m).sum(axis=axis))


@dataclass
class SinkhornResult:
    cost: float
    plan: np.ndarray
    iterations: int
    marginal_error: float


def _round_to_marginals(plan, p, q):
    """Repair an almost-feasible plan so both marginals hold exactly:
    scale overweight rows/columns down, then spread the leftover mass as a
    rank-one correction. The cost moves by at most twice the residual mass
    times the cost range."""
    rows = plan.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale_r = np.where(rows > 0, np.minimum(1.0, p / rows), 0.0)
    t1 = plan * scale_r[:, None]
    cols = t1.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale_c = np.where(cols > 0, np.minimum(1.0, q / cols), 0.0)
    t2 = t1 * scale_c[None, :]
    du = p - t2.sum(axis=1)
    dv = q - t2.sum(axis=0)
    total = du.sum()
    if total > 0:
        t2 = t2 + np.outer(du, dv) / total
    return t2


def sinkhorn(p, q, cost, epsilon, tol=1e-9, max_iter=10_000):
    """Entropic-regularised transport between distributions p and q.

    Log-domain alternating scaling with two accelerations, both needed for
    cost matrices with heavily tied entries at epsilon far below the cost
    scale:

    * epsilon annealing: the temperature cools geometrically to the target,
      warm-starting the potentials;
    * drift extrapolation: near a support change the potentials creep by a
      constant step per sweep for thousands of sweeps; once the step
      stabilises, a line search jumps directly to where the next plan entry
      activates.

    Exactly tied routes can still leave the mass split among equal-cost
    alternatives converging arbitrarily slowly; when the iteration stalls
    within 1e-4 of feasibility, the best plan seen is finished by the
    standard rounding step (scale rows/columns down, distribute the
    residual as a rank-one correction), which satisfies the marginal
    tolerance exactly and moves the cost by at most twice the residual.

    Returns the transport cost <plan, cost>; raises IterationLimitError
    carrying the best marginal error otherwise.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    with np.errstate(divide="ignore"):
        logp = np.where(p > 0.0, np.log(np.maximum(p, 1e-300)), -np.inf)
        logq = np.where(q > 0.0, np.log(np.maximum(q, 1e-300)), -np.inf)
    f = np.zeros(p.size)
    g = np.zeros(q.size)

    def sweep(eps):
        nonlocal f, g
        with np.errstate(invalid="ignore"):
            f = eps * logp - eps * _lse((g[None, :] - cost) / eps, axis=1)
            g = eps * logq - eps * _lse((f[:, None] - cost) / eps, axis=0)

    def plan_of(eps):
        with np.errstate(invalid="ignore"):
            expo = (f[:, None] + g[None, :] - cost) / eps
        return np.exp(np.where(np.isnan(expo), -np.inf, expo))

    stages = []
    e = max(cost.max(), epsilon) / 2.0
    while e > epsilon:
        stages.append(e)
        e *= 0.7
    iterations = 0
    converged_early = False
    for eps in stages:
        for _ in range(30):
            if iterations >= max_iter:
                break
            sweep(eps)
            iterations += 1
        # forced or near-forced couplings are done long before the cooling
        # schedule ends; one target-temperature sweep detects that cheaply
        sweep(epsilon)
        iterations += 1
        if float(np.abs(plan_of(epsilon).sum(axis=1) - p).max()) < tol:
            converged_early = True
            break

    err = math.inf
    if converged_early:
        plan = plan_of(epsilon)
        return SinkhornResult(cost=float((plan * cost).sum()), plan=plan,
                              iterations=iterations,
                              marginal_error=float(np.abs(plan.sum(axis=1) - p).max()))
    best_err = math.inf
    best_plan = None
    stall_mark = (0, math.inf)
    prev_delta = None
    while iterations < max_iter:
        f_old, g_old = f, g
        sweep(epsilon)
        iterations += 1
        plan = plan_of(epsilon)
        # column marginals are exact after the g-update; rows measure error
        err = float(np.abs(plan.sum(axis=1) - p).max())
        if err < best_err:
            best_err = err
            best_plan = plan
        if err < tol:
            break
        # pinned coordinates (zero-support marginals) sit at -inf and do
        # not drift; treat them as static so the detector stays finite
        with np.errstate(invalid="ignore"):
            df = np.where(np.isfinite(f) & np.isfinite(f_old), f - f_old, 0.0)
            dg = np.where(np.isfinite(g) & np.isfinite(g_old), g - g_old, 0.0)
        if prev_delta is not None:
            drift = max(np.abs(df).max(), np.abs(dg).max(), 1e-300)
            change = max(np.abs(df - prev_delta[0]).max(),
                         np.abs(dg - prev_delta[1]).max())
            if change < 1e-3 * drift:
                with np.errstate(invalid="ignore"):
                    expo = (f[:, None] + g[None, :] - cost) / epsilon
                rate = (df[:, None] + dg[None, :]) / epsilon
                rising = (rate > 1e-18) & (expo < -1.0) & np.isfinite(expo)
                if rising.any():
                    steps = ((-expo[rising] - 0.5) / rate[rising]).min()
                    if steps > 2.0:
                        f = f + steps * df
                        g = g + steps * dg
                        prev_delta = None
                        continue
        prev_delta = (df, dg)
        if iterations - stall_mark[0] >= 500:
            if best_err > 0.5 * stall_mark[1] and best_err < 1e-4:
                plan = _round_to_marginals(best_plan, p, q)
                err = float(np.abs(plan.sum(axis=1) - p).max())
                if err < tol:
                    return SinkhornResult(cost=float((plan * cost).sum()),
                                          plan=plan, iterations=iterations,
                                          marginal_error=err)
            stall_mark = (iterations, best_err)
    if not err < tol:
        raise IterationLimitError(
            f"transport solver stopped at marginal error {best_err:.3e} "
            f"after {iterations} iterations (tol {tol:.1e})",
            achieved_tol=best_err)
    plan = plan_of(epsilon)
    return SinkhornResult(cost=float((plan * cost).sum()), plan=plan,
                          iterations=iterations, marginal_error=err)


def exact_transport_cost(p, q, cost):
    """Exact optimal-transport cost via the linear program (oracle path)."""
    from scipy import optimize  # dev dependency; imported here to keep imports light
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([p, q])
    res = optimize.linprog(cost.ravel(), A_eq=a_eq[:-1], b_eq=b_eq[:-1],
                           bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"transport LP failed: {res.message}")
    return float(res.fun)


def ws_loss(logits, target_index, distances, epsilon=None):
    """Transport cost of softmax(logits) against a one-hot target.

    With a single target atom the optimal plan is forced, so the cost is the
    expected distance-to-target under the predicted distribution; the
    general solver still runs (it converges immediately in this case) and
    the gradient flows through the softmax.
    """
    distances = np.asarray(distances, dtype=np.float64)
    if epsilon is None:
        epsilon = 1e-3 * distances.max()
    p = softmax(logits)
    q = np.zeros_like(p)
    q[target_index] = 1.0
    result = sinkhorn(p, q, distances, epsilon)
    d = distances[:, target_index]
    expected = float(p @ d)
    grad = p * (d - expected)
    return result.cost, grad


def ws_loss_sep(logits_sep, target_triple, epsilon=None):
    """Sum of three 1-D transport costs with |i - j| ground distances."""
    total = 0.0
    grads = []
    for z, t in zip(logits_sep, target_triple):
        n = np.size(z)
        d1 = np.abs(np.subtract.outer(np.arange(n, dtype=np.float64),
                                      np.arange(n, dtype=np.float64)))
        loss, grad = ws_loss(z, t, d1, epsilon)
        total += loss
        grads.append(grad)
    return float(total), tuple(grads)


def ir_loss(pred_triple, target_triple):
    """Mean squared error of the three regressed index components."""
    pred = np.asarray(pred_triple, dtype=np.float64)
    target = np.asarray(target_triple, dtype=np.float64)
    if pred.shape != (3,):
        raise UnsupportedFormError(
            "index regression is defined only on the factorised (sep) form "
            "with one scalar per beam axis")
    diff = pred - target
    return float((diff**2).mean()), 2.0 * diff / 3.0


def ir_ranking(pred_triple, dims):
    """Beams ordered by Euclidean index distance to the regressed triple.

    pred_triple has shape (..., 3); the order runs over the last axis.
    """
    na, ne, nr = dims
    lattice = np.stack(np.meshgrid(np.arange(na), np.arange(ne), np.arange(nr),
                                   indexing="ij"), axis=-1).reshape(-1, 3)
    pred = np.asarray(pred_triple, dtype=np.float64)[..., None, :]
    d2 = ((lattice - pred) ** 2).sum(axis=-1)
    return np.argsort(d2, axis=-1, kind="stable")  # ties fall back to flat order


def gr_target_db(tensor, floor_db=-30.0):
    """Beam power tensor in dB relative to its peak, floored (cep flooring)."""
    t = np.asarray(tensor, dtype=np.float64)
    peak = t.max()
    if peak <= 0.0:
        raise ValueError("dB target undefined for an all-zero tensor")
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(np.where(t > 0.0, t / peak, 0.0))
    return np.maximum(db, floor_db)


def gr_target_db_sep(tensor, floor_db=-30.0):
    """Per-axis dB targets: linear power marginals converted to floored dB."""
    t = np.asarray(tensor, dtype=np.float64)
    return tuple(gr_target_db(t.sum(axis=axes), floor_db)
                 for axes in ((1, 2), (0, 2), (0, 1)))


def gr_loss(pred_db, target_tensor, floor_db=-30.0):
    """MSE between predicted and floored-dB tensors; grad = 2*(pred-t)/n."""
    pred = np.asarray(pred_db, dtype=np.float64)
    target = gr_target_db(target_tensor, floor_db)
    if pred.shape != target.shape:
        raise ValueError(f"prediction shape {pred.shape} vs target {target.shape}")
    diff = pred - target
    return float((diff**2).mean()), 2.0 * diff / diff.size


def grad_check(fn, point, step=1e-5):
    """Max relative deviation of the analytic gradient from central
    finite differences, coordinate by coordinate.

    fn maps a flat parameter array to (loss, grad). Only valid where fn is
    differentiable; ranking-only helpers have no gradient to check.
    """
    point = np.asarray(point, dtype=np.float64)
    _, grad = fn(point)
    numeric = np.empty_like(point)
    for i in range(point.size):
        hi = point.copy()
        lo = point.copy()
        hi[i] += step
        lo[i] -= step
        numeric[i] = (fn(hi)[0] - fn(lo)[0]) / (2.0 * step)
    dev = np.abs(grad - numeric) / (np.abs(numeric) + 1e-12)
    return float(dev.max())
