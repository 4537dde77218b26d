"""Distance matrix and arc feasibility precomputation shared by the solvers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .instances import Instance


def build_distance_matrix(instance: Instance) -> np.ndarray:
    """Full double-precision Euclidean distance matrix, shared by the
    heuristic and the exact solver so they agree bit for bit."""
    xs = np.array([v.x for v in instance.vertices], dtype=float)
    ys = np.array([v.y for v in instance.vertices], dtype=float)
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    return np.sqrt(dx**2 + dy**2)


@dataclass
class ArcSet:
    """Boolean arc-feasibility matrix: feasible[i, j] for arc (i, j).

    Arc (i, j) is feasible when a member leaving i at its earliest service
    completion o_i + a_i reaches j by c_j, and j itself still allows a return
    to the depot by the horizon.  Comparisons are exact (no epsilon) so every
    component sees the identical arc set.
    """

    feasible: np.ndarray


def build_arc_set(instance: Instance, d: np.ndarray) -> ArcSet:
    opens = np.array([v.open for v in instance.vertices])
    closes = np.array([v.close for v in instance.vertices])
    durations = np.array([v.duration for v in instance.vertices])
    t = d / instance.velocity
    departs = opens + durations
    # (i, j) usable: earliest departure from i reaches j's window, and j can
    # still return to the depot by the horizon.  The depot column uses the
    # same predicate; its closing time is the horizon by construction.
    reach = departs[:, None] + t <= closes[None, :]
    can_return = departs + t[:, 0] <= instance.t_max
    feasible = reach & can_return[None, :]
    np.fill_diagonal(feasible, False)
    return ArcSet(feasible=feasible)


def cos_polar_angle(p_i: tuple[float, float], p_j: tuple[float, float],
                    depot: tuple[float, float]) -> float:
    """Cosine of the angle between the depot rays through p_i and p_j.

    A point coincident with the depot has no defined ray; the cosine is taken
    as 1 there, which keeps the sweep term bounded and favors the (already
    depot-adjacent) vertex.
    """
    ax, ay = p_i[0] - depot[0], p_i[1] - depot[1]
    bx, by = p_j[0] - depot[0], p_j[1] - depot[1]
    # single square root of the product keeps collinear pairs exactly at +-1
    norm = math.sqrt((ax * ax + ay * ay) * (bx * bx + by * by))
    if norm == 0.0:
        return 1.0
    value = (ax * bx + ay * by) / norm
    return max(-1.0, min(1.0, value))
