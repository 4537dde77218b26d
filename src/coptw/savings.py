"""Saving values and the saving order of customer pairs that drives construction.

The saving of an ordered customer pair (i, j) combines three terms: the
classical Clarke-Wright distance saving d_i0 + d_0j - lambda*d_ij normalized
by the maximum pairwise distance, a sweep-style term that rewards pairs
subtending an acute angle at the depot, and a reward term that pushes
high-score pairs up the list:

    (d_i0 + d_0j - lambda*d_ij) / d_max
    + mu * cos(theta_ij) * |d_max - (d_i0 - d_0j)/2| / d_max
    + vartheta * (reward_i + reward_j) / mean_reward

d_max is the maximum distance over all vertex pairs (depot included) and
mean_reward averages over customers only.  The absolute value wraps the
distance expression only; cos(theta) stays outside, so the sweep term is
negative for obtuse pairs.  Note the middle term makes the saving
asymmetric: S(i, j) != S(j, i) in general.

Only the coefficients differ between triplets, so saving_terms evaluates
everything else once per instance, as numpy arrays over the arc-feasible
pairs (heuristic.prepare holds them).  saving_matrix evaluates a list of
triplets over them at once, one row per triplet, in saving_value's float
grouping, so a row's values equal saving_value's bit for bit.
calc_saving_pairs ranks one row: sorting by saving_value gives its order
and ties keep theirs.  first_appearances ranks many rows at once, but only
as far as construction reads them: each vertex's first pair in the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import cos_polar_angle
from .instances import Instance

LAMBDA_VALUES = (0.0, 0.7, 1.4)
MU_VALUES = (0.0, 0.7, 1.4)
VARTHETA_VALUES = (0.0, 0.7, 1.4, 2.1, 2.8, 3.5)


@dataclass(frozen=True)
class SavingParams:
    lambda_: float
    mu: float
    vartheta: float


def parameter_grid() -> list[SavingParams]:
    """The 54 coefficient triplets, lambda outermost and vartheta innermost.

    Both distance coefficients range over {0, 0.7, 1.4}; the reward
    coefficient gets the broader range {0, ..., 3.5} because it dominates
    solution quality.  The order is fixed so ties between triplets resolve
    identically everywhere.
    """
    return [
        SavingParams(lam, mu, vth)
        for lam in LAMBDA_VALUES
        for mu in MU_VALUES
        for vth in VARTHETA_VALUES
    ]


def mean_customer_reward(instance: Instance) -> float:
    """Average reward over customers (the depot's zero would only dilute it)."""
    rewards = [v.reward for v in instance.vertices[1:]]
    return sum(rewards) / len(rewards) if rewards else 0.0


def saving_value(
    i: int,
    j: int,
    instance: Instance,
    d: np.ndarray,
    params: SavingParams,
    d_max: float,
    gamma_bar: float,
) -> float:
    """Saving of the ordered pair (i, j) under one coefficient triplet."""
    if d_max <= 0:
        raise ValueError("d_max must be positive")
    if gamma_bar <= 0:
        raise ValueError("gamma_bar must be positive")
    vi, vj, depot = instance.vertices[i], instance.vertices[j], instance.vertices[0]
    d_i0 = float(d[i, 0])
    d_0j = float(d[0, j])
    base = (d_i0 + d_0j - params.lambda_ * float(d[i, j])) / d_max
    cos_theta = cos_polar_angle((vi.x, vi.y), (vj.x, vj.y), (depot.x, depot.y))
    sweep = params.mu * cos_theta * abs(d_max - (d_i0 - d_0j) / 2.0) / d_max
    reward = params.vartheta * (vi.reward + vj.reward) / gamma_bar
    return base + sweep + reward


class SavingTerms(NamedTuple):
    """Triplet-independent saving inputs per feasible pair, in row-major (i, j)
    order, which calc_saving_pairs and first_appearances keep as the tie
    order."""

    i: np.ndarray
    j: np.ndarray
    base0: np.ndarray  # d_i0 + d_0j
    d_ij: np.ndarray
    cos: np.ndarray
    spread: np.ndarray  # |d_max - (d_i0 - d_0j)/2|
    rsum: np.ndarray  # reward_i + reward_j
    d_max: float
    gamma_bar: float


def saving_terms(instance: Instance, d: np.ndarray, feasible: np.ndarray) -> SavingTerms:
    """Evaluate the parts of saving_value that no coefficient touches, over
    the pairs that the arc-feasibility matrix `feasible` admits."""
    d_max = float(d.max()) or 1.0  # all vertices coincide: distance terms vanish
    gamma_bar = mean_customer_reward(instance) or 1.0  # every reward is 0
    pairs = feasible[1:, 1:] & ~np.eye(instance.n_vertices - 1, dtype=bool)
    i, j = np.argwhere(pairs).T + 1  # row-major (i, j) order
    depot = instance.vertices[0]
    ax = np.array([v.x for v in instance.vertices], dtype=float) - depot.x
    ay = np.array([v.y for v in instance.vertices], dtype=float) - depot.y
    sq = ax * ax + ay * ay
    # as cos_polar_angle: one square root of the product, 1 on the depot
    norm = np.sqrt(sq[i] * sq[j])
    dot = ax[i] * ax[j] + ay[i] * ay[j]
    cos = np.divide(dot, norm, out=np.ones_like(norm), where=norm != 0.0)
    d_i0, d_0j = d[i, 0], d[0, j]
    reward = np.array([v.reward for v in instance.vertices], dtype=float)
    return SavingTerms(i, j, d_i0 + d_0j, d[i, j], np.clip(cos, -1.0, 1.0),
                       np.abs(d_max - (d_i0 - d_0j) / 2.0), reward[i] + reward[j],
                       d_max, gamma_bar)


# The most values first_appearances holds in one (triplets, pairs) block;
# its working arrays stay within a small multiple of this.
BLOCK_ELEMENTS = 1 << 20


def saving_matrix(terms: SavingTerms, grid: list[SavingParams]) -> np.ndarray:
    """The savings of `terms`' pairs under each triplet of `grid`, one row
    per triplet, in the grouping of saving_value: (base + sweep) + reward."""
    lam, mu, vth = np.array([(p.lambda_, p.mu, p.vartheta) for p in grid],
                            dtype=float).reshape(-1, 3).T[:, :, None]  # columns
    return (
        (terms.base0 - lam * terms.d_ij) / terms.d_max
        + mu * terms.cos * terms.spread / terms.d_max
    ) + vth * terms.rsum / terms.gamma_bar


def calc_saving_pairs(terms: SavingTerms, params: SavingParams) -> list[tuple[int, int]]:
    """All ordered customer pairs (i, j) of `terms`, best saving first.

    A pair enters the list when the arc (i, j) is traversable: a member can
    leave i at its earliest service completion and reach j's window, and j
    still allows returning to the depot by the horizon.  Only the order is
    returned; saving_value gives a pair's value.  Ties are broken by (i, j)
    index so the list is a total, reproducible order.
    """
    value = saving_matrix(terms, [params])[0]
    order = np.argsort(-value, kind="stable")  # stable: ties keep the (i, j) order
    return list(zip(terms.i[order].tolist(), terms.j[order].tolist()))


def first_appearances(terms: SavingTerms, grid: list[SavingParams]) -> list[list[int]]:
    """Per triplet of `grid`, the vertices of `terms`' pairs in the order
    they first appear in calc_saving_pairs' list, i end before j end.

    A vertex first appears in its best pair: its highest saving, and among
    equal savings the lowest (i, j) index.  So the vertices are sorted by
    that value (highest first), that pair's index, then their side of it.
    The pairs' ends are grouped by vertex once; each block of triplets,
    at most BLOCK_ELEMENTS values, takes every vertex's best value and
    lowest tied pair with two reductions over its groups."""
    n_pairs = len(terms.i)
    if not n_pairs:
        return [[] for _ in grid]
    ends = np.concatenate([terms.i, terms.j])
    by_vertex = np.argsort(ends, kind="stable")
    pair = (by_vertex % n_pairs).astype(np.int32)  # the pair of each grouped end
    # one group of ends per vertex: its first end and each end's group
    vertex, starts, group = np.unique(ends[by_vertex], return_index=True, return_inverse=True)
    step = max(1, BLOCK_ELEMENTS // n_pairs)
    orders = []
    for a in range(0, len(grid), step):
        value = saving_matrix(terms, grid[a:a + step])[:, pair]
        best = np.maximum.reduceat(value, starts, axis=1)
        tied = value == best[:, group]
        del value  # freed before np.where allocates, to lower the block's peak
        first = np.minimum.reduceat(np.where(tied, pair, n_pairs), starts, axis=1)
        del tied
        j_end = terms.i[first] != vertex
        orders += vertex[np.lexsort((j_end, first, -best), axis=-1)].tolist()
    return orders
