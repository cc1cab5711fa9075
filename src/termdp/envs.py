"""Benchmark instance builders and the JSON instance/maze formats.

The maze follows gridworld slip dynamics: an instruction into an open
direction succeeds with probability ``p_intended`` while every open direction
(including, under the default reading, the instructed one) receives an extra
``p_slip``; walled instructions and the rest action only slip.  The agent
stays put with the remaining probability.  Stage cost is 1 off the goal and 0
on it; missing the goal at the end of the horizon incurs a large terminal
penalty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import InstanceError
from .model import FiniteMdp, check_array, check_bool, check_count, check_real, check_type

__all__ = [
    "MazeSpec",
    "ACTIONS",
    "build_maze",
    "build_nonconvex_toy",
    "sample_maze_spec",
    "simple_paths",
    "route_cells",
    "load_instance",
    "save_instance",
    "instance_to_dict",
    "instance_from_dict",
    "load_maze_spec",
    "save_maze_spec",
    "maze_spec_to_dict",
    "maze_spec_from_dict",
]

ACTIONS = ("N", "E", "S", "W", "R")
_OFFSETS = {"N": (-1, 0), "E": (0, 1), "S": (1, 0), "W": (0, -1)}
_OPPOSITE = {"N": "S", "S": "N", "E": "W", "W": "E"}


@dataclass(frozen=True)
class MazeSpec:
    """Gridworld geometry and dynamics parameters.

    Cells are row-major indices; ``walls`` holds (cell, direction) pairs and
    is symmetrized on construction, so a wall between two cells is recorded on
    both sides.  Grid borders are implicit walls.
    """

    width: int
    height: int
    walls: frozenset[tuple[int, str]]
    start: int
    goal: int
    p_intended: float = 0.8
    p_slip: float = 0.05
    horizon: int = 55
    terminal_penalty: float = 10000.0
    intended_slip_share: bool = True

    def __post_init__(self) -> None:
        def store(name, checker, *bounds):  # the checked value, a Python number
            object.__setattr__(self, name, checker(name, getattr(self, name), *bounds))

        for name, low in (("width", 1), ("height", 1), ("horizon", 1), ("start", 0), ("goal", 0)):
            store(name, check_count, low)
        for name in ("p_intended", "p_slip", "terminal_penalty"):
            store(name, check_real, -math.inf)
        store("intended_slip_share", check_bool)
        n = self.width * self.height
        for cell in (self.start, self.goal):
            if cell >= n:
                raise InstanceError(f"cell {cell} outside the {self.width}x{self.height} grid")
        if self.start == self.goal:
            raise InstanceError("start and goal must differ")
        symmetric = set()
        for wall in check_type("walls", self.walls, list, tuple, set, frozenset):
            if len(check_type("wall", wall, list, tuple)) != 2:
                raise InstanceError(f"wall {wall!r} is not a (cell, direction) pair")
            cell, d = wall
            if check_count("wall cell", cell, 0) >= n:
                raise InstanceError(f"wall on cell {cell} outside the grid")
            if not isinstance(d, str) or d not in _OFFSETS:
                raise InstanceError(f"wall on cell {cell} has unknown direction {d!r}")
            symmetric.add((cell, d))
            nb = self._neighbor(cell, d)
            if nb is not None:
                symmetric.add((nb, _OPPOSITE[d]))
        object.__setattr__(self, "walls", frozenset(symmetric))
        if not 0 < self.p_intended <= 1 or not 0 <= self.p_slip <= 1:
            raise InstanceError("maze probabilities must lie in [0, 1]")
        worst_open = 4
        if self.p_intended + self.p_slip * worst_open > 1.0 + 1e-12:
            raise InstanceError(
                f"p_intended={self.p_intended} plus {worst_open} slip shares of "
                f"{self.p_slip} exceeds 1"
            )

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def _neighbor(self, cell: int, d: str) -> int | None:
        r, c = divmod(cell, self.width)
        dr, dc = _OFFSETS[d]
        r, c = r + dr, c + dc
        if 0 <= r < self.height and 0 <= c < self.width:
            return r * self.width + c
        return None

    def open_directions(self, cell: int) -> list[str]:
        """Directions without a wall that stay inside the grid."""
        out = []
        for d in ("N", "E", "S", "W"):
            if (cell, d) in self.walls:
                continue
            if self._neighbor(cell, d) is None:
                continue
            out.append(d)
        return out


def build_maze(spec: MazeSpec) -> FiniteMdp:
    """Materialize the maze as a stationary finite MDP.

    The stay probability is the exact remainder of each row, nudged so rows
    sum to exactly 1.0 in floating point.
    """
    n = check_type("spec", spec, MazeSpec).n_cells
    p = np.zeros((n, len(ACTIONS), n))
    for cell in range(n):
        open_dirs = spec.open_directions(cell)
        for a, name in enumerate(ACTIONS):
            row = p[cell, a]
            if name != "R" and name in open_dirs:
                row[spec._neighbor(cell, name)] += spec.p_intended
                if spec.intended_slip_share:
                    slip_targets = open_dirs
                else:
                    slip_targets = [d for d in open_dirs if d != name]
            else:
                slip_targets = open_dirs
            for d in slip_targets:
                row[spec._neighbor(cell, d)] += spec.p_slip
            remainder = 1.0 - row.sum()
            if remainder < -1e-9:
                raise InstanceError(
                    f"cell {cell}: action {name} allocates probability "
                    f"{row.sum()!r} > 1; check p_intended/p_slip"
                )
            row[cell] += max(remainder, 0.0)
            for _ in range(3):
                err = 1.0 - row.sum()
                if err == 0.0:
                    break
                # park the roundoff on the largest entry, which tolerates it
                row[int(np.argmax(row))] += err
    cost = np.ones((n, len(ACTIONS)))
    cost[spec.goal, :] = 0.0
    terminal = np.full(n, spec.terminal_penalty)
    terminal[spec.goal] = 0.0
    initial = np.zeros(n)
    initial[spec.start] = 1.0
    T = spec.horizon
    return FiniteMdp(
        transitions=tuple(p for _ in range(T)),
        stage_costs=tuple(cost for _ in range(T)),
        terminal_cost=terminal,
        initial=initial,
    )


def build_nonconvex_toy() -> FiniteMdp:
    """Two-step binary instance with copy dynamics and mismatch cost.

    The state is uniformly random at the first step and thereafter equals the
    previous control; each stage costs 1 on mismatch between control and
    state, and the terminal cost is zero.  The induced objective surface has
    multiple stationary points, which makes this the standard nonconvexity
    probe.
    """
    p = np.zeros((2, 2, 2))
    p[:, 0, 0] = 1.0
    p[:, 1, 1] = 1.0
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    return FiniteMdp(
        transitions=(p, p),
        stage_costs=(cost, cost),
        terminal_cost=np.zeros(2),
        initial=np.array([0.5, 0.5]),
    )


# ---------------------------------------------------------------------------
# Shipped sample maze
# ---------------------------------------------------------------------------


_SHORT_ROUTE = [
    (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 4), (3, 5), (3, 6), (3, 7),
    (2, 7), (2, 8), (2, 9), (2, 10), (3, 10), (3, 11), (3, 12), (3, 13),
    (2, 13), (2, 14), (2, 15), (2, 16),
]
_LONG_ROUTE = (
    [(2, 0)]
    + [(r, 0) for r in range(3, 9)]
    + [(8, c) for c in range(1, 16)]
    + [(r, 15) for r in range(7, 1, -1)]
    + [(2, 16)]
)
_TRAP_ALLEYS = [
    ((2, 5), (1, 5), (0, 5)),
    ((3, 8), (4, 8), (5, 8)),
    ((2, 11), (1, 11), (0, 11)),
    ((3, 14), (4, 14), (5, 14)),
]


def _open_edges_sample() -> tuple[set[frozenset[int]], int, int, int]:
    """Corridor graph of the shipped two-route maze (17 x 9).

    The short route (20 moves) zigzags between rows 2 and 3, so its
    instructions change every few cells and overshooting a turn lands in a
    dead-end trap alley; following it cheaply requires knowing where the
    agent is.  The long route (28 moves) is three straight corridors (down
    the left edge, across the bottom, up the second-to-last column), where
    rough position knowledge suffices.  Both merge one cell before the goal,
    leaving the goal a single-entrance stub.
    """
    width = 17

    def cell(rc: tuple[int, int]) -> int:
        return rc[0] * width + rc[1]

    edges: set[frozenset[int]] = set()
    for path in (_SHORT_ROUTE, _LONG_ROUTE):
        for a, b in zip(path, path[1:]):
            edges.add(frozenset((cell(a), cell(b))))
    for alley in _TRAP_ALLEYS:
        # each trap hangs off the cell just before its turn corner
        prev = _SHORT_ROUTE[_SHORT_ROUTE.index((alley[0][0], alley[0][1] - 1))]
        chain = [prev, *alley]
        for a, b in zip(chain, chain[1:]):
            edges.add(frozenset((cell(a), cell(b))))
    return edges, cell((2, 0)), cell((2, 16)), width


def sample_maze_spec(horizon: int = 55) -> MazeSpec:
    """The shipped 17 x 9 two-route maze."""
    height = 9
    edges, start, goal, width = _open_edges_sample()
    walls = set()
    for r in range(height):
        for c in range(width):
            idx = r * width + c
            for d in ("E", "S"):
                dr, dc = _OFFSETS[d]
                rr, cc = r + dr, c + dc
                if not (0 <= rr < height and 0 <= cc < width):
                    continue
                nb = rr * width + cc
                if frozenset((idx, nb)) not in edges:
                    walls.add((idx, d))
    return MazeSpec(
        width=width,
        height=height,
        walls=frozenset(walls),
        start=start,
        goal=goal,
        horizon=horizon,
    )


def simple_paths(spec: MazeSpec) -> list[tuple[int, ...]]:
    """All simple start-to-goal paths in the corridor graph, by DFS."""
    adj: dict[int, list[int]] = {}
    for cell in range(spec.n_cells):
        adj[cell] = sorted(
            spec._neighbor(cell, d) for d in spec.open_directions(cell)
        )
    paths: list[tuple[int, ...]] = []
    path = [spec.start]
    seen = {spec.start}

    def dfs(cell: int) -> None:
        if cell == spec.goal:
            paths.append(tuple(path))
            return
        for nb in adj[cell]:
            if nb in seen:
                continue
            seen.add(nb)
            path.append(nb)
            dfs(nb)
            path.pop()
            seen.remove(nb)

    dfs(spec.start)
    return sorted(paths, key=len)


def route_cells(spec: MazeSpec) -> tuple[frozenset[int], frozenset[int]]:
    """Cell sets of the (short, long) routes; endpoints belong to both."""
    paths = simple_paths(spec)
    if len(paths) != 2:
        raise InstanceError(
            f"expected exactly two simple routes, found {len(paths)}"
        )
    return frozenset(paths[0]), frozenset(paths[1])


# ---------------------------------------------------------------------------
# JSON formats
# ---------------------------------------------------------------------------


def _depth(value) -> int:
    d = 0
    while isinstance(value, list):
        d += 1
        value = value[0] if value else None
    return d


def _slices(doc: dict, key: str, ndim: int, horizon: int) -> list[np.ndarray]:
    """One ndim-d slice reused for every t, or a per-time list of them."""
    value = doc[key]
    if _depth(value) == ndim:
        return [check_array(key, value)] * horizon
    if _depth(value) != ndim + 1:
        raise InstanceError(
            f"{key} must be a {ndim}-d slice or a list of {ndim}-d slices"
        )
    if len(value) != horizon:
        raise InstanceError(f"{key} lists {len(value)} slices for horizon {horizon}")
    return [check_array(key, item) for item in value]


def instance_from_dict(doc: dict) -> FiniteMdp:
    """Validate and expand an instance document into a FiniteMdp.

    ``states``/``actions`` may be a single integer or a per-time list;
    ``transition`` and ``stage_cost`` may be a single slice (reused for every
    t) or a per-time list of slices.
    """
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    for key in ("horizon", "transition", "stage_cost", "terminal_cost", "initial"):
        if key not in doc:
            raise InstanceError(f"instance document is missing field {key!r}")
    horizon = check_count("horizon", doc["horizon"], 1)
    mdp = FiniteMdp(
        transitions=tuple(_slices(doc, "transition", 3, horizon)),
        stage_costs=tuple(_slices(doc, "stage_cost", 2, horizon)),
        terminal_cost=doc["terminal_cost"],
        initial=doc["initial"],
    )
    for key, cards in (("states", mdp.state_cards), ("actions", mdp.action_cards)):
        if key not in doc:
            continue
        declared = doc[key]
        if isinstance(declared, int):
            declared = [declared] * len(cards)
        if declared != list(cards):
            raise InstanceError(
                f"declared {key} {declared} do not match array shapes {list(cards)}"
            )
    return mdp


def instance_to_dict(mdp: FiniteMdp) -> dict:
    """Serialize with the stationary shorthand when slices repeat."""
    tr = [p.tolist() for p in mdp.transitions]
    sc = [c.tolist() for c in mdp.stage_costs]
    return {
        "horizon": mdp.horizon,
        "states": list(mdp.state_cards),
        "actions": list(mdp.action_cards),
        "transition": tr[0] if all(t == tr[0] for t in tr) else tr,
        "stage_cost": sc[0] if all(c == sc[0] for c in sc) else sc,
        "terminal_cost": mdp.terminal_cost.tolist(),
        "initial": mdp.initial.tolist(),
    }


def _read_json(path: str | Path, what: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read {what} file {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"{what} file {path} is not valid JSON: {exc}") from exc


def load_instance(path: str | Path) -> FiniteMdp:
    return instance_from_dict(_read_json(path, "instance"))


def save_instance(mdp: FiniteMdp, path: str | Path) -> None:
    Path(path).write_text(json.dumps(instance_to_dict(mdp), indent=2) + "\n")


def maze_spec_to_dict(spec: MazeSpec) -> dict:
    return {
        "width": spec.width,
        "height": spec.height,
        "walls": sorted([cell, d] for cell, d in spec.walls),
        "start": spec.start,
        "goal": spec.goal,
        "p_intended": spec.p_intended,
        "p_slip": spec.p_slip,
        "horizon": spec.horizon,
        "terminal_penalty": spec.terminal_penalty,
        "intended_slip_share": spec.intended_slip_share,
    }


def maze_spec_from_dict(doc: dict) -> MazeSpec:
    if not isinstance(doc, dict):
        raise InstanceError("maze document must be a JSON object")
    for key in ("width", "height", "walls", "start", "goal"):
        if key not in doc:
            raise InstanceError(f"maze document is missing field {key!r}")
    try:  # the values as given: the spec checks each field
        return MazeSpec(**{f.name: doc[f.name] for f in fields(MazeSpec) if f.name in doc})
    except InstanceError as exc:
        raise InstanceError(f"maze document has a malformed value: {exc}") from None


def load_maze_spec(path: str | Path) -> MazeSpec:
    return maze_spec_from_dict(_read_json(path, "maze"))


def save_maze_spec(spec: MazeSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(maze_spec_to_dict(spec), indent=2) + "\n")
