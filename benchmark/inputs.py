"""Seeded input generation, independent of the program's own generators.

Every input is plain NumPy data made here from a ``numpy.random.Generator``;
the program only ever sees it through its public constructors or as files in
the documented formats.  A later change to ``random_model`` or
``save_model_file`` therefore leaves the benchmark inputs unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


def grid_points(rng: np.random.Generator, cells: int) -> np.ndarray:
    """Breakpoints 0 = t_0 < ... < t_M = 1 with cell widths within a factor 3 of each other.

    Bounded width ratios keep every breakpoint far above the program's
    1e-12 merge tolerance, so the grid is used exactly as written.
    """
    widths = rng.uniform(0.5, 1.5, size=cells)
    pts = np.concatenate(([0.0], np.cumsum(widths) / widths.sum()))
    pts[-1] = 1.0
    return pts


@dataclass
class ModelSpec:
    """An absorbing model on a grid: kernel[i, a, j] moves mass from cell i to cell j."""

    points: np.ndarray          # (M+1,)
    actions: int
    available: list             # per cell: sorted tuple of action indices
    kernel: np.ndarray          # (M, A, M)
    absorb: np.ndarray          # (M, A)
    rewards: np.ndarray         # (M, A, N)
    initial: np.ndarray         # (M,) probability masses

    @property
    def shape(self) -> tuple:
        return (len(self.available), self.actions, self.rewards.shape[2])


def model_spec(rng: np.random.Generator, cells: int, actions: int, criteria: int,
               min_absorb: float = 0.12, density: float = 0.7) -> ModelSpec:
    """Uniformly absorbing model: every available row absorbs at least ``min_absorb``."""
    points = grid_points(rng, cells)
    available = []
    for _ in range(cells):
        k = int(rng.integers(1, actions + 1))
        available.append(tuple(sorted(rng.choice(actions, size=k, replace=False).tolist())))
    kernel = np.zeros((cells, actions, cells))
    absorb = np.ones((cells, actions))
    rewards = np.zeros((cells, actions, criteria))
    for i, acts in enumerate(available):
        for a in acts:
            absorb[i, a] = rng.uniform(min_absorb, 0.6)
            weights = rng.random(cells) * (rng.random(cells) < density)
            if weights.sum() == 0.0:
                weights[rng.integers(cells)] = 1.0
            kernel[i, a] = weights / weights.sum() * (1.0 - absorb[i, a])
            rewards[i, a] = rng.uniform(-1.0, 1.0, size=criteria)
    mu = rng.random(cells) + 0.05
    return ModelSpec(points, actions, available, kernel, absorb, rewards, mu / mu.sum())


def policy_points(rng: np.random.Generator, grid: np.ndarray, extra_cuts: int) -> np.ndarray:
    """Grid breakpoints plus up to ``extra_cuts`` cuts strictly inside cells."""
    cuts = []
    for _ in range(int(rng.integers(0, extra_cuts + 1))):
        i = int(rng.integers(len(grid) - 1))
        cuts.append(grid[i] + rng.uniform(0.2, 0.8) * (grid[i + 1] - grid[i]))
    return np.unique(np.concatenate((grid, cuts)))


def owner_cells(points: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Grid cell containing each interval of a partition that refines the grid."""
    mids = 0.5 * (points[:-1] + points[1:])
    return np.searchsorted(grid, mids, side="right") - 1


def stationary_policy(rng: np.random.Generator, spec: ModelSpec, extra_cuts: int = 2):
    """(points, probs): Dirichlet action probabilities over each cell's available actions."""
    pts = policy_points(rng, spec.points, extra_cuts)
    probs = np.zeros((len(pts) - 1, spec.actions))
    for s, i in enumerate(owner_cells(pts, spec.points)):
        acts = list(spec.available[i])
        probs[s, acts] = rng.dirichlet(np.ones(len(acts)))
    return pts, probs


def deterministic_policy(rng: np.random.Generator, spec: ModelSpec, extra_cuts: int = 2):
    """(points, actions): a uniformly drawn available action per interval."""
    pts = policy_points(rng, spec.points, extra_cuts)
    acts = np.array([rng.choice(spec.available[i]) for i in owner_cells(pts, spec.points)])
    return pts, acts


@dataclass
class VectorSpec:
    """Vector measure: base masses per cell and one density row per cell."""

    points: np.ndarray      # (M+1,)
    masses: np.ndarray      # (M,) base probability masses
    densities: np.ndarray   # (M, N)


def vector_spec(cells: int) -> VectorSpec:
    """Densities (1, 2x) over the uniform base measure on a uniform grid: the
    vector measure of the Lyapunov acceptance criterion, with x sampled at
    cell midpoints."""
    points = np.linspace(0.0, 1.0, cells + 1)
    mids = 0.5 * (points[:-1] + points[1:])
    return VectorSpec(points, np.diff(points), np.column_stack([np.ones(cells), 2.0 * mids]))


# ---------------------------------------------------------------------------
# files in the documented formats
# ---------------------------------------------------------------------------


def model_document(spec: ModelSpec) -> dict:
    """Model JSON document: destination rows are whole grid cells."""
    pts = [float(t) for t in spec.points]
    kernel, rewards = [], []
    for i, acts in enumerate(spec.available):
        kernel.append([
            {
                "to": [[pts[j], pts[j + 1], float(m)]
                       for j, m in enumerate(spec.kernel[i, a]) if m > 0.0],
                "absorb": float(spec.absorb[i, a]),
            }
            for a in acts
        ])
        rewards.append([[float(r) for r in spec.rewards[i, a]] for a in acts])
    return {
        "kind": "absorbing",
        "grid": pts,
        "actions": spec.actions,
        "available": [list(a) for a in spec.available],
        "kernel": kernel,
        "rewards": rewards,
        "initial": [[pts[j], pts[j + 1], float(m)] for j, m in enumerate(spec.initial)],
    }


def write_model(spec: ModelSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_document(spec), fh)


def write_densities(vs: VectorSpec, path) -> None:
    """Densities file: `lo hi mass d_1 .. d_N` rows tiling [0, 1]."""
    with open(path, "w") as fh:
        for k, (mass, dens) in enumerate(zip(vs.masses, vs.densities)):
            cols = [vs.points[k], vs.points[k + 1], mass, *dens]
            fh.write(" ".join(repr(float(c)) for c in cols) + "\n")


def write_policy(points: np.ndarray, values: np.ndarray, path) -> None:
    """Policy file: `lo hi action` rows, or `lo hi p_0 .. p_{A-1}` rows."""
    with open(path, "w") as fh:
        for k in range(len(points) - 1):
            row = values[k]
            cols = [repr(int(row))] if np.ndim(row) == 0 else [repr(float(p)) for p in row]
            fh.write(" ".join([repr(float(points[k])), repr(float(points[k + 1])), *cols]) + "\n")
