"""Linear and coupled-cell dynamical systems on graphs.

Vertices are numbered 1..n throughout the package, matching the usual
graph-theory convention; a dependency edge (j, i) means variable j enters
the update of variable i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


MAX_DRAWS = 100  # draws a seeded generator makes before it raises GenerationError


class GenerationError(RuntimeError):
    """A seeded generator exhausted its :data:`MAX_DRAWS` draws."""


def check_vertex(vertex: int, n: int) -> None:
    """ValueError unless ``vertex`` is one of the vertices 1..n."""
    if not 1 <= vertex <= n:
        raise ValueError(f"vertex {vertex} out of range 1..{n}")


def _state_vector(x0, dim: int) -> np.ndarray:
    """``x0`` as a flat float vector; ValueError unless it has ``dim`` entries."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != dim:
        raise ValueError(f"x0 has dimension {x0.shape[0]}, system needs {dim}")
    return x0


@dataclass(frozen=True)
class LinearSystem:
    """Discrete-time linear dynamics x(k+1) = a @ x(k).

    ``a`` is the square update matrix; entries are interpreted as weighted
    dependency-graph edges (a[i, j] != 0 means vertex j+1 feeds vertex i+1).
    """

    a: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"update matrix must be square, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("system dimension must be at least 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("update matrix entries must be finite")
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class Trajectory:
    """States x(0)..x(m) of a simulation, one row per time step."""

    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.array(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValueError("trajectory needs at least one state vector")
        finite = np.isfinite(states).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"trajectory states must be finite; step {int(np.argmin(finite))} is not"
            )
        states.setflags(write=False)
        object.__setattr__(self, "states", states)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def local(self, vertex: int) -> np.ndarray:
        """Scalar observations of one vertex (1-based index)."""
        check_vertex(vertex, self.n)
        return self.states[:, vertex - 1]


@dataclass(frozen=True)
class CoupledCellSystem:
    """Network of d two-dimensional cells with cubic internal dynamics.

    Cell i maps (x1, x2) to (alpha_i*x1 + beta_i*(x2**3 - x2), gamma_i*x2)
    and receives epsilon-weighted input to its first coordinate from the
    first coordinates of the cells j with coupling[i, j] = 1.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    coupling: np.ndarray
    epsilon: float

    def __post_init__(self) -> None:
        arrays = {name: np.array(getattr(self, name), dtype=float)
                  for name in ("alpha", "beta", "gamma", "coupling")}
        for name, value in {**arrays, "epsilon": self.epsilon}.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        d = arrays["alpha"].shape[0]
        if not arrays["beta"].shape == arrays["gamma"].shape == (d,):
            raise ValueError("per-cell parameter arrays must share one length")
        if arrays["coupling"].shape != (d, d):
            raise ValueError(f"coupling matrix must be {d}x{d}")
        if np.any(np.diag(arrays["coupling"]) != 0):
            raise ValueError("coupling matrix must have a zero diagonal")
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.alpha.shape[0]


def _iterate(step, x0, dim: int, steps: int) -> Trajectory:
    """States x(0)..x(steps) from ``x0``; ``step(x, out)`` writes x(k+1) from x(k)."""
    x0 = _state_vector(x0, dim)
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    states = np.empty((steps + 1, dim))
    states[0] = x0
    with np.errstate(over="ignore", invalid="ignore"):  # Trajectory rejects inf/NaN
        for k in range(steps):
            step(states[k], states[k + 1])
    return Trajectory(states)


def simulate(sys: LinearSystem, x0: np.ndarray, steps: int) -> Trajectory:
    """Iterate x(k+1) = a @ x(k) for ``steps`` steps starting from ``x0``."""
    return _iterate(lambda x, out: np.matmul(sys.a, x, out=out), x0, sys.n, steps)


def simulate_local(sys: LinearSystem, x0: np.ndarray, steps: int, vertex: int) -> np.ndarray:
    """Scalar trajectory observed at one vertex of the full simulation."""
    check_vertex(vertex, sys.n)
    return simulate(sys, x0, steps).local(vertex)


def normalized_laplacian(adjacency: np.ndarray) -> np.ndarray:
    """Normalized graph Laplacian I - D^(-1/2) W D^(-1/2) of a weighted graph.

    Requires a finite symmetric nonnegative weight matrix in which every
    vertex has positive degree; the spectrum then lies in [0, 2].
    """
    w = np.asarray(adjacency, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if not np.all(np.isfinite(w)):
        raise ValueError("adjacency weights must be finite")
    if not np.array_equal(w, w.T):
        raise ValueError("adjacency must be symmetric")
    if np.any(w < 0):
        raise ValueError("adjacency weights must be nonnegative")
    degrees = w.sum(axis=1)
    if np.any(degrees <= 0):
        isolated = [int(v) + 1 for v in np.nonzero(degrees <= 0)[0]]
        raise ValueError(f"vertices {isolated} have zero degree")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return np.eye(w.shape[0]) - (inv_sqrt[:, None] * w) * inv_sqrt[None, :]


def build_wave_system(laplacian: np.ndarray, c: float) -> LinearSystem:
    """Discretized graph wave equation [[2I - c^2 L, -I], [I, 0]].

    For a normalized Laplacian and wave speed 0 < c < sqrt(2), every
    eigenvalue of the block matrix lies on the unit circle, so no mode is
    damped out.
    """
    laplacian = np.asarray(laplacian, dtype=float)
    if laplacian.ndim != 2 or laplacian.shape[0] != laplacian.shape[1]:
        raise ValueError("laplacian must be a square matrix")
    if not 0 < c < np.inf:
        raise ValueError(f"wave speed must be finite and positive, got {c}")
    n = laplacian.shape[0]
    eye = np.eye(n)
    top = np.hstack([2.0 * eye - c * c * laplacian, -eye])
    bottom = np.hstack([eye, np.zeros((n, n))])
    return LinearSystem(np.vstack([top, bottom]))


def generate_sbm(
    cluster_sizes: list[int],
    intra_p: float,
    inter_p: float,
    intra_weight: float,
    inter_weight: float,
    seed: int,
) -> np.ndarray:
    """Weighted stochastic-block-model adjacency, deterministic in ``seed``.

    Each intra-cluster pair is connected independently with probability
    ``intra_p`` and weight ``intra_weight``; inter-cluster pairs use
    ``inter_p`` / ``inter_weight``. Draws are repeated, at most
    :data:`MAX_DRAWS` times, until no vertex is isolated, since downstream
    Laplacians need positive degrees.
    """
    sizes = [int(s) for s in cluster_sizes]
    if len(sizes) < 1 or any(s < 1 for s in sizes):
        raise ValueError("need at least one cluster of positive size")
    for p in (intra_p, inter_p):
        if not 0.0 <= p <= 1.0:
            raise ValueError("connection probabilities must lie in [0, 1]")
    for name, value in (("intra_weight", intra_weight), ("inter_weight", inter_weight)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")

    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    same = labels[:, None] == labels[None, :]
    prob = np.where(same, intra_p, inter_p)
    weight = np.where(same, intra_weight, inter_weight)

    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        upper = np.triu(rng.random((n, n)) < prob, k=1)
        w = np.where(upper, weight, 0.0)
        w = w + w.T
        if np.all(w.sum(axis=1) > 0):
            return w
    raise GenerationError(
        f"no isolation-free graph found in {MAX_DRAWS} draws (seed {seed})"
    )


# Directed dependency edges (source, target) of the 6-vertex bipartite
# benchmark graph; parts {1, 2, 3} and {4, 5, 6}, no self-loops.
_BIPARTITE_EDGES = (
    (1, 4), (4, 1),
    (2, 5), (5, 2),
    (3, 6), (6, 3),
    (4, 2), (5, 1), (5, 3), (6, 2),
)


def bipartite_fixture() -> LinearSystem:
    """6-vertex system whose dependency graph is bipartite (parts 1-3 / 4-6).

    Every edge crosses the partition, so the matrix is block anti-diagonal
    and its spectrum is invariant under multiplication by -1 for any edge
    weights. Unit weights leave a vertex-swap symmetry (1<->3, 4<->6) that
    makes the system non-localizable in vertices 2 and 5, so the k-th listed
    edge instead carries weight 1 + k/10; the test suite asserts both the
    spectrum symmetry and localizability everywhere.
    """
    a = np.zeros((6, 6))
    for k, (source, target) in enumerate(_BIPARTITE_EDGES):
        a[target - 1, source - 1] = 1.0 + 0.1 * k
    return LinearSystem(a)


def simulate_coupled(sys: CoupledCellSystem, x0: np.ndarray, steps: int) -> Trajectory:
    """Simulate the coupled-cell network; state layout (x_{1,1}, x_{1,2}, x_{2,1}, ...)."""
    def step(x, out):
        x1, x2 = x[0::2], x[1::2]
        out[0::2] = sys.alpha * x1 + sys.beta * (x2**3 - x2) + sys.epsilon * (sys.coupling @ x1)
        out[1::2] = sys.gamma * x2

    return _iterate(step, x0, 2 * sys.d, steps)


def koopman_lift(sys: CoupledCellSystem) -> LinearSystem:
    """Exact linear representation over the lifted states (x1, x2, x2**3) per cell.

    Augmenting each cell with x3 := x2**3 turns the cubic term linear:
    the per-cell block is [[alpha, -beta, beta], [0, gamma, 0], [0, 0, gamma**3]]
    and the coupling acts on the (x_{i,1}, x_{j,1}) entries. Projecting a
    lifted simulation onto (x1, x2) reproduces the nonlinear trajectory.
    """
    a = np.zeros((3 * sys.d, 3 * sys.d))
    a[0::3, 0::3] = sys.epsilon * sys.coupling + 0.0  # + 0.0: no -0.0 where epsilon < 0
    c = np.arange(0, 3 * sys.d, 3)  # each cell's x_{i,1}; its x_{i,2}, x_{i,3} follow
    a[c, c], a[c, c + 1], a[c, c + 2] = sys.alpha, -sys.beta, sys.beta
    a[c + 1, c + 1] = sys.gamma
    # float_power rounds as scalar ** does; an array ** may take a SIMD pow that does not
    a[c + 2, c + 2] = np.float_power(sys.gamma, 3)
    return LinearSystem(a)


def lift_state(sys: CoupledCellSystem, x0: np.ndarray) -> np.ndarray:
    """Embed a 2d-dimensional coupled-cell state into the 3d lifted space."""
    x0 = _state_vector(x0, 2 * sys.d)
    lifted = np.empty(3 * sys.d)
    lifted[0::3] = x0[0::2]
    lifted[1::3] = x0[1::2]
    lifted[2::3] = x0[1::2] ** 3
    return lifted


# Coupling structure of the 4-cell benchmark network.
_COUPLED_S = np.array(
    [
        [0, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
    ],
    dtype=float,
)


def coupled_cell_fixture(seed: int) -> CoupledCellSystem:
    """Seeded 4-cell benchmark system with epsilon = 0.1.

    Parameters are drawn uniformly (alpha in [-1, 0], beta in [1, 2],
    gamma in [-1, 0]) and redrawn, at most :data:`MAX_DRAWS` times, until
    the Koopman-lifted linear system is localizable in every observable
    x_{i,1} vertex. The x_{i,2} and x_{i,3} lifted vertices evolve
    autonomously, so no draw can be localizable there; the filter covers
    the vertices one can actually analyze from.
    """
    from . import localizability

    rng = np.random.default_rng(seed)
    for _ in range(MAX_DRAWS):
        sys = CoupledCellSystem(
            alpha=rng.uniform(-1.0, 0.0, 4),
            beta=rng.uniform(1.0, 2.0, 4),
            gamma=rng.uniform(-1.0, 0.0, 4),
            coupling=_COUPLED_S,
            epsilon=0.1,
        )
        _, reports = localizability.localizable_everywhere(koopman_lift(sys))
        if all(reports[3 * i].localizable for i in range(sys.d)):
            return sys
    raise GenerationError(
        f"no localizable parameter draw found in {MAX_DRAWS} draws (seed {seed})"
    )
