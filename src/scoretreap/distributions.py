"""Probability vectors over dense keys, divergence measures, perturbations."""

from __future__ import annotations

import math
import random
from itertools import repeat
from operator import le, lt
from typing import Callable, Sequence

__all__ = [
    "Distribution",
    "entropy",
    "cross_entropy",
    "kl",
    "error_measures",
    "MEASURES",
    "perturb",
    "mae",
    "noisy_scores",
]

_SUM_TOL = 1e-9
_LN2 = math.log(2.0)
# the least kl of two accepted distributions: by the log-sum inequality, with
# p summing to at least 1 - tol and q to at most 1 + tol, kl(p, q) is at least
# (1 - tol) ln((1 - tol) / (1 + tol)), about -2e-9
_KL_FLOOR = (1.0 - _SUM_TOL) * math.log((1.0 - _SUM_TOL) / (1.0 + _SUM_TOL))


class Distribution:
    """Probability masses for keys ``1..n``; must sum to 1 within 1e-9."""

    def __init__(self, masses: Sequence[float]):
        vals = list(map(float, masses))
        if not vals:
            raise ValueError("distribution must be non-empty")
        n = len(vals)
        # two C-level passes; NaN fails both, the loop only names the key
        if not (all(map(le, repeat(0.0, n), vals)) and all(map(lt, vals, repeat(math.inf, n)))):
            for i, v in enumerate(vals):
                if v < 0.0 or math.isnan(v) or math.isinf(v):
                    raise ValueError(f"mass for key {i + 1} must be a finite non-negative number")
        total = math.fsum(vals)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1 within {_SUM_TOL}")
        self._p = vals
        self.n = n
        # ``perturb``'s mixture-walk outcomes, by (measure, eps)
        self._mixture_walks: dict[tuple[str, float], Distribution | float | None] = {}

    def __getitem__(self, key: int) -> float:
        if not 1 <= key <= self.n:
            raise KeyError(key)
        return self._p[key - 1]

    def masses(self) -> list[float]:
        return list(self._p)

    @classmethod
    def uniform(cls, n: int) -> "Distribution":
        return cls([1.0 / n] * n)

    @classmethod
    def from_unnormalized(cls, values: Sequence[float]) -> "Distribution":
        s = math.fsum(values)
        if s <= 0:
            raise ValueError("cannot normalize a non-positive vector")
        return cls([v / s for v in values])


# ----------------------------------------------------------------------
# divergences


def _check_pair(p: Distribution, q: Distribution) -> None:
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")


def entropy(p: Distribution) -> float:
    """Shannon entropy in bits; zero-mass terms contribute nothing."""
    return -math.fsum(v * math.log(v) / _LN2 for v in p.masses() if v > 0.0)


def cross_entropy(p: Distribution, q: Distribution) -> float:
    """``-sum p_x log2 q_x``; infinite-support mismatches are an error."""
    _check_pair(p, q)
    out = 0.0
    for pv, qv in zip(p.masses(), q.masses()):
        if pv > 0.0:
            if qv <= 0.0:
                raise ValueError("cross entropy undefined: prediction drops supported mass")
            out -= pv * math.log(qv) / _LN2
    return out


def kl(p: Distribution, q: Distribution) -> float:
    """Relative entropy in nats; equals ln 2 (cross_entropy - entropy)."""
    _check_pair(p, q)
    out = 0.0
    for pv, qv in zip(p.masses(), q.masses()):
        if pv > 0.0:
            if qv <= 0.0:
                raise ValueError("kl undefined: prediction drops supported mass")
            out += pv * math.log(pv / qv)
    if out < _KL_FLOOR:
        raise AssertionError(f"kl came out negative: {out}")
    return max(out, 0.0)


def error_measures(p: Distribution, q: Distribution) -> dict[str, float]:
    """Total variation, L2, Linf, chi-square, and Hellinger in one pass."""
    _check_pair(p, q)
    tv = 0.0
    l2 = 0.0
    linf = 0.0
    chi2 = 0.0
    hel = 0.0
    for pv, qv in zip(p.masses(), q.masses()):
        d = pv - qv
        ad = abs(d)
        tv += ad
        l2 += d * d
        if ad > linf:
            linf = ad
        if qv > 0.0:
            chi2 += d * d / qv
        elif pv > 0.0:
            chi2 = math.inf
        hd = math.sqrt(pv) - math.sqrt(qv)
        hel += hd * hd
    return {
        "tv": 0.5 * tv,
        "l2": math.sqrt(l2),
        "linf": linf,
        "chi2": chi2,
        "hellinger": 0.5 * math.sqrt(hel),
    }


# the divergence names ``perturb`` can target
MEASURES = ("kl", "tv", "l2", "linf", "chi2", "hellinger")


def _measure(p: Distribution, q: Distribution, name: str) -> float:
    return kl(p, q) if name == "kl" else error_measures(p, q)[name]


# ----------------------------------------------------------------------
# perturbation


def _apply_floor(vals: list[float], floor: float) -> list[float]:
    # max(v, floor) without the call: v unless floor is strictly larger
    clipped = [floor if v < floor else v for v in vals]
    s = math.fsum(clipped)
    return [v / s for v in clipped]


def _bisect(below: Callable[[float], bool], hi: float) -> float:
    """Bisect [0, hi], where ``below`` is false at ``hi``, for up to 80 steps;
    returns the upper end, the smallest point found where ``below`` is false.

    A step that would leave the interval as it was repeats in every later
    step, so stopping there returns the same point.
    """
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if below(mid):
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return hi


def _walk(p: Distribution, family: Callable[[float], Distribution], hi: float,
          measure: str, eps: float) -> Distribution | float | None:
    """One monotone family on [0, hi]: the accepted ``q``, else the value
    reached at ``hi``, else None when ``family(hi)`` is not a valid ``q``."""
    try:
        reach = _measure(p, family(hi), measure)
    except ValueError:
        return None
    if reach < eps:
        return reach
    q = family(_bisect(lambda lam: _measure(p, family(lam), measure) < eps, hi))
    got = _measure(p, q, measure)
    return q if 0.9 * eps <= got <= 1.1 * eps else reach


def perturb(
    p: Distribution,
    measure: str,
    eps: float,
    rng: random.Random,
) -> Distribution:
    """Construct ``q`` with the requested divergence from ``p``.

    The achieved value lands within 10% of ``eps`` (asserted within the
    acceptance band [0.8*eps, 1.2*eps]).  Two monotone families are tried: a
    mixture walk toward the uniform distribution, and -- when that cannot
    reach the target, e.g. for ``p`` uniform -- an exponential tilt along a
    random +/-1 direction.  Every mass of ``q`` is clipped up to the floor
    ``1/(100 n^2)`` before renormalising, which keeps it polynomially bounded
    away from zero.

    The mixture walk draws nothing at random, so its outcome (the accepted
    ``q``, or the value it reached) is remembered on ``p`` per
    ``(measure, eps)``; a repeat call returns the same ``q`` object.
    Only the tilt consults ``rng``, but every call with ``eps > 0`` first
    draws its n directions, so a shared ``rng`` advances by n draws whichever
    family answers.
    """
    n = p.n
    floor = 1.0 / (100.0 * n * n)
    if measure not in MEASURES:
        raise ValueError(f"unknown error measure {measure!r}")
    if eps < 0:
        raise ValueError(f"target must be non-negative, got {eps}")
    if eps == 0.0:
        return Distribution(p.masses())
    base = p.masses()
    direction = [1.0 if rng.random() < 0.5 else -1.0 for _ in range(n)]

    def mixture(lam: float) -> Distribution:
        keep, add = 1 - lam, lam * (1.0 / n)
        return Distribution(_apply_floor([keep * b + add for b in base], floor))

    def tilt(lam: float) -> Distribution:
        vals = [max(b, floor) * math.exp(lam * d) for b, d in zip(base, direction)]
        total = math.fsum(vals)
        return Distribution(_apply_floor([v / total for v in vals], floor))

    walks = p._mixture_walks
    key = (measure, eps)
    if key not in walks:
        walks[key] = _walk(p, mixture, 1.0, measure, eps)
    mixed = walks[key]
    if isinstance(mixed, Distribution):
        return mixed
    tilted = _walk(p, tilt, 80.0, measure, eps)
    if isinstance(tilted, Distribution):
        return tilted
    reached = [r for r in (mixed, tilted) if r is not None]  # each family's far-end value
    largest = f" (largest reached {max(reached):.3f})" if reached else ""
    raise ValueError(f"cannot reach {measure}={eps} from this distribution{largest}")


def mae(truth: Sequence[float], predicted: Sequence[float]) -> float:
    """Sum of absolute prediction errors (a sum, not a mean)."""
    if len(truth) != len(predicted):
        raise ValueError(f"length mismatch: {len(truth)} vs {len(predicted)}")
    return math.fsum(abs(a - b) for a, b in zip(truth, predicted))


def noisy_scores(
    scores: Sequence[float],
    target: float,
    rng: random.Random,
    *,
    hi: float,
) -> list[float]:
    """Perturb nonnegative scores to a summed absolute error near ``target``.

    Draws one uniform direction per entry and bisects a common amplitude
    until mae(scores, result) lands within 10% of the target (clamping to
    [0, hi] is folded into the search).  target = 0 returns the scores
    unchanged.
    """
    if target < 0:
        raise ValueError(f"target error must be >= 0, got {target}")
    base = [float(s) for s in scores]
    if target == 0 or not base:
        return base
    dirs = [rng.uniform(-1.0, 1.0) for _ in base]

    def apply(c: float) -> list[float]:
        out = []
        for s, d in zip(base, dirs):
            v = s + c * d
            if v < 0.0:
                v = 0.0
            if v > hi:
                v = hi
            out.append(v)
        return out

    top = 1.0
    for _ in range(80):
        if mae(base, apply(top)) >= target:
            break
        top *= 2.0
    else:
        raise ValueError(f"cannot reach summed error {target} within clamps")
    out = apply(_bisect(lambda c: mae(base, apply(c)) < target, top))
    got = mae(base, out)
    if not 0.9 * target <= got <= 1.1 * target:
        raise ValueError(f"summed error {got} missed target {target}")
    return out
