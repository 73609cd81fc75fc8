"""HIP estimation of distance-based statistics Q_g and centralities
C_{alpha,beta} (Equations 1-3 and 5 of the paper).

A statistic is specified by ``g(node, distance)`` (Equation 1) or by a
decay kernel ``alpha`` over distances and a node weight/filter ``beta``
(Equation 2).  Given the adjusted weights of an ADS, the estimate is a
single weighted sum over the (logarithmically many) ADS entries -- and the
same ADS answers *any* such query, including ones whose beta-filter is
chosen after the sketches were built, which is the flexibility the paper
highlights over beta-specific sketch constructions.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional, Sequence

from repro.errors import EstimatorError

Kernel = Callable[[float], float]


# ----------------------------------------------------------------------
# Standard kernels from the introduction
# ----------------------------------------------------------------------
# Module-level callable classes, not closures: the parallel kernel tier
# ships alpha callables to worker processes, and a pickled instance of
# one of these round-trips where a lambda would not.
class _NeighborhoodKernel:
    __slots__ = ("d",)

    def __init__(self, d: float):
        self.d = float(d)

    def __call__(self, x: float) -> float:
        return 1.0 if x <= self.d else 0.0


class _ReachabilityKernel:
    __slots__ = ()

    def __call__(self, x: float) -> float:
        return 1.0


class _ExponentialDecayKernel:
    __slots__ = ("half_life",)

    def __init__(self, half_life: float):
        self.half_life = float(half_life)

    def __call__(self, x: float) -> float:
        return 2.0 ** (-x / self.half_life)


class _HarmonicKernel:
    __slots__ = ()

    def __call__(self, x: float) -> float:
        return 1.0 / x if x > 0 else 0.0


class _InversePolynomialKernel:
    __slots__ = ("power",)

    def __init__(self, power: float):
        self.power = float(power)

    def __call__(self, x: float) -> float:
        return x**-self.power if x > 0 else 0.0


def neighborhood_kernel(d: float) -> Kernel:
    """alpha(x) = 1 for x <= d else 0: C_alpha = d-neighborhood size."""
    return _NeighborhoodKernel(d)


def reachability_kernel() -> Kernel:
    """alpha(x) = 1: C_alpha = number of reachable nodes."""
    return _ReachabilityKernel()


def exponential_decay_kernel(half_life: float = 1.0) -> Kernel:
    """alpha(x) = 2^{-x/half_life} (Dangalchev's residual closeness at
    half_life=1)."""
    if half_life <= 0:
        raise EstimatorError(f"half_life must be positive, got {half_life}")
    return _ExponentialDecayKernel(half_life)


def harmonic_kernel() -> Kernel:
    """alpha(x) = 1/x for x > 0 (harmonic centrality); alpha(0) = 0."""
    return _HarmonicKernel()


CENTRALITY_KINDS = ("classic", "harmonic", "decay", "distsum")


def centrality_kind_kwargs(kind: str, half_life: float = 1.0) -> dict:
    """Map a centrality *kind* name to closeness-estimator kwargs.

    The single source of truth behind the CLI's ``--kind`` option and
    the HTTP API's ``kind`` parameter, so shell and wire queries agree
    number-for-number: ``classic`` -> Bavelas closeness, ``harmonic`` ->
    the harmonic kernel, ``decay`` -> exponential decay with
    *half_life*, ``distsum`` -> the raw sum of distances.
    """
    if kind == "classic":
        return {"classic": True}
    if kind == "harmonic":
        return {"alpha": harmonic_kernel()}
    if kind == "decay":
        return {"alpha": exponential_decay_kernel(half_life)}
    if kind == "distsum":
        return {}
    raise EstimatorError(
        f"unknown centrality kind {kind!r}; expected one of "
        f"{list(CENTRALITY_KINDS)}"
    )


def inverse_polynomial_kernel(power: float) -> Kernel:
    """alpha(x) = 1/x^power for x > 0 (generalised distance decay)."""
    if power <= 0:
        raise EstimatorError(f"power must be positive, got {power}")
    return _InversePolynomialKernel(power)


# ----------------------------------------------------------------------
# Estimators over (node, distance, adjusted-weight) triples
# ----------------------------------------------------------------------
def q_statistic_estimate(
    nodes: Sequence[Hashable],
    distances: Sequence[float],
    weights: Sequence[float],
    g: Callable[[Hashable, float], float],
    include_source: bool = True,
) -> float:
    """Q_g-hat(i) = sum_j a_ij g(j, d_ij)  (Equation 5).

    The entry at distance 0 is the source itself; pass
    ``include_source=False`` to exclude it (the convention for
    centralities, where only j != i contribute).
    """
    if not len(nodes) == len(distances) == len(weights):
        raise EstimatorError("nodes/distances/weights length mismatch")
    total = 0.0
    for node, dist, weight in zip(nodes, distances, weights):
        if not include_source and dist == 0.0:
            continue
        value = float(g(node, dist))
        if not value >= 0.0:  # negative or NaN
            raise EstimatorError(
                f"g must be nonnegative (got {value} at node {node!r}); "
                "HIP unbiasedness and the variance bounds assume g >= 0"
            )
        total += weight * value
    return total


def closeness_centrality_estimate(
    nodes: Sequence[Hashable],
    distances: Sequence[float],
    weights: Sequence[float],
    alpha: Optional[Kernel] = None,
    beta: Optional[Callable[[Hashable], float]] = None,
) -> float:
    """C-hat_{alpha,beta}(i) = sum_j a_ij alpha(d_ij) beta(j)  (Equation 3).

    ``alpha=None`` means the *sum of distances* (the inverse of classic
    closeness centrality -- Q_g with g = d); any provided alpha must be a
    non-increasing nonnegative kernel for the Theorem 5.1 CV guarantee to
    apply.  beta defaults to 1.
    """
    def g(node: Hashable, dist: float) -> float:
        weight = 1.0 if beta is None else float(beta(node))
        if alpha is None:
            return dist * weight
        return float(alpha(dist)) * weight

    return q_statistic_estimate(
        nodes, distances, weights, g, include_source=False
    )
