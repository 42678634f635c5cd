"""Finite irreducible reversible Markov chains, generators, and file formats.

A chain is the triple (states, Q, pi): a row-stochastic kernel Q and its
stationary probability vector pi satisfying detailed balance.  The adjacency
relation x ~ y holds iff Q[x, y] > 0 for x != y; self loops are allowed in Q
(lazy chains) but never count as edges.
"""

from __future__ import annotations

import contextlib
import functools
import json
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameters, NotIrreducible, NotReversible, NotStochastic

#: relative tolerance for row sums, detailed balance and stationarity
VALIDATION_RTOL = 1e-10


@dataclass(frozen=True)
class ChainStats:
    """Degree and measure extremes used by the inequality checks."""

    q_min: float
    pi_min: float
    pi_max: float
    deg_weighted: np.ndarray      # D(x) = sum_{y != x} Q(x, y)
    deg_weighted_max: float       # D
    deg_pi: np.ndarray            # D_pi(x) = (1/pi(x)) sum_{y ~ x} pi(y)
    deg_pi_max: float             # D_pi


def derived(fn):
    """Memoize ``fn(chain, *args)`` in the chain's memo dict under the key
    ``(fn, *args)``: computed once per chain and argument, freed with the
    chain.  Threads racing on a missing entry may both compute it;
    ``setdefault`` keeps one result, which every caller shares read-only."""
    @functools.wraps(fn)
    def memoized(chain, *args):
        key = (fn, *args)
        try:
            return chain._derived[key]
        except KeyError:
            return chain._derived.setdefault(key, fn(chain, *args))
    return memoized


class MarkovChain:
    """Validated finite Markov chain.

    Immutable after construction; its arrays must not be written to.
    Quantities derived from the chain (degree statistics, graph distances,
    spectrum, Cheeger constant, intrinsic diameter, mixing times, vertex
    curvatures, optimal-set forms) are computed on first use by `derived`
    functions into one memo dict on the chain, so callers never pass them
    around.  Safe for concurrent shared reads.

    `automorphisms` are candidate permutations of the states (sigma[x] is
    the image of x), supplied by the generators; they are not checked here
    but by `pair_orbits`, on first use.
    """

    def __init__(self, q: np.ndarray, pi: np.ndarray | None = None,
                 states: list[str] | None = None, automorphisms=()):
        q = np.array(q, dtype=float)
        pi = None if pi is None else np.array(pi, dtype=float)
        for name, a in (("Q", q), ("pi", pi)):
            if a is not None and not np.isfinite(a).all():
                at = ",".join(map(str, np.argwhere(~np.isfinite(a))[0]))
                raise InvalidParameters(
                    f"{name}[{at}] = {a[~np.isfinite(a)][0]} is not finite")
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise NotStochastic(f"Q must be square, got shape {q.shape}")
        n = q.shape[0]
        if n < 2:
            raise InvalidParameters(f"a chain needs at least two states, got {n}")
        if states is None:
            states = [str(i) for i in range(n)]
        if len(states) != n or len(set(states)) != n:
            raise InvalidParameters("states must be distinct and match Q's size")

        if (q < 0).any():
            x, y = np.argwhere(q < 0)[0]
            raise NotStochastic(f"Q[{states[x]},{states[y]}] = {q[x, y]} < 0")
        row_sums = q.sum(axis=1)
        bad = np.abs(row_sums - 1.0) > VALIDATION_RTOL
        if bad.any():
            x = int(np.argmax(np.abs(row_sums - 1.0)))
            raise NotStochastic(
                f"row {states[x]} sums to {float(row_sums[x])!r} "
                f"(residual {row_sums[x] - 1.0:.3e})")

        adjacency = (q > 0.0)
        np.fill_diagonal(adjacency, False)
        # one search answers irreducibility and gives pi's spanning tree
        order, parent = _breadth_first(adjacency)
        if len(order) < n:
            lost = np.setdiff1d(np.arange(n), order)[0]
            raise NotIrreducible(
                f"state {states[lost]} is not reachable from state {states[0]}")

        if pi is None:
            pi = _stationary_vector(q, adjacency, states, order, parent)
        elif pi.shape != (n,):
            raise InvalidParameters(f"pi must have shape ({n},)")
        if (pi <= 0).any() or abs(pi.sum() - 1.0) > VALIDATION_RTOL:
            raise InvalidParameters("pi must be strictly positive and sum to 1")

        # detailed balance: w(x,y) = Q(x,y) pi(x) symmetric
        w = q * pi[:, None]
        np.fill_diagonal(w, 0.0)
        resid = np.abs(w - w.T)
        scale = np.maximum(w, w.T)
        bad = resid > VALIDATION_RTOL * np.maximum(scale, 1e-300)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise NotReversible(
                f"detailed balance fails for ({states[x]},{states[y]}): "
                f"Q(x,y)pi(x)={float(w[x, y])!r} vs Q(y,x)pi(y)={float(w[y, x])!r}")

        stat_resid = np.abs(pi @ q - pi)
        if (stat_resid > VALIDATION_RTOL * np.maximum(pi, 1e-300)).any():
            y = int(np.argmax(stat_resid))
            raise NotReversible(
                f"pi is not stationary at {states[y]} (residual {stat_resid[y]:.3e})")

        self._states = tuple(states)
        self._index = {s: i for i, s in enumerate(states)}
        self._q = q
        self._q.setflags(write=False)
        self._pi = pi
        self._pi.setflags(write=False)
        self._adjacency = adjacency
        self._adjacency.setflags(write=False)
        self._w = 0.5 * (w + w.T)   # exactly symmetric edge weights
        self._w.setflags(write=False)
        ex, ey = np.nonzero(adjacency)
        self._ex, self._ey = ex, ey
        self._qe = q[ex, ey]
        self._automorphisms = tuple(automorphisms)
        self._derived = {}

    # -- basic accessors -------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self._states)

    @property
    def states(self) -> tuple[str, ...]:
        return self._states

    @property
    def q(self) -> np.ndarray:
        return self._q

    @property
    def pi(self) -> np.ndarray:
        return self._pi

    @property
    def adjacency(self) -> np.ndarray:
        return self._adjacency

    @property
    def w(self) -> np.ndarray:
        """Symmetric edge weights w(x,y) = Q(x,y) pi(x), zero diagonal."""
        return self._w

    @property
    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All ordered adjacent pairs (ex, ey) with the kernel values Q[ex, ey]."""
        return self._ex, self._ey, self._qe

    def index(self, state) -> int:
        """Dense index of a state identifier (identifiers are strings)."""
        if isinstance(state, (int, np.integer)) and not isinstance(state, bool):
            if 0 <= state < self.n_states:
                return int(state)
            raise InvalidParameters(f"state index {state} out of range")
        try:
            return self._index[state]
        except KeyError:
            raise InvalidParameters(f"unknown state {state!r}") from None

    @derived
    def stats(self) -> ChainStats:
        deg_w = self._q.sum(axis=1) - np.diag(self._q)
        with np.errstate(invalid="ignore", over="ignore"):
            deg_pi = (self._adjacency @ self._pi) / self._pi
        return ChainStats(
            q_min=float(self._qe.min()),
            pi_min=float(self._pi.min()),
            pi_max=float(self._pi.max()),
            deg_weighted=deg_w,
            deg_weighted_max=float(deg_w.max()),
            deg_pi=deg_pi,
            deg_pi_max=float(deg_pi.max()),
        )

    def __repr__(self):
        return f"MarkovChain(n={self.n_states})"


def _breadth_first(adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, parent) of a FIFO breadth-first search from state 0 over the
    edges in either direction: each state's out-neighbours ascending, then its
    in-neighbours ascending.  parent is -9999 at the root and at every state
    not reached, as in `scipy.sparse.csgraph.breadth_first_order`."""
    n = len(adjacency)
    ox, out = np.nonzero(adjacency)
    ix, inn = np.nonzero(adjacency.T)
    out_at = np.searchsorted(ox, np.arange(n + 1)).tolist()
    in_at = np.searchsorted(ix, np.arange(n + 1)).tolist()
    out, inn = out.tolist(), inn.tolist()
    parent, seen, order = [-9999] * n, [False] * n, [0]
    seen[0] = True
    for x in order:                  # the loop visits what it appends
        if len(order) == n:
            break
        for y in out[out_at[x]:out_at[x + 1]] + inn[in_at[x]:in_at[x + 1]]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                order.append(y)
    return np.array(order), np.array(parent)


def _stationary_vector(q: np.ndarray, adjacency: np.ndarray, states, order,
                       parent) -> np.ndarray:
    """pi(y) = pi(x) Q(x,y) / Q(y,x) along the breadth-first spanning tree (order,
    parent): exact to rounding for a reversible chain whatever its gap.  The caller's
    checks reject any other chain; a one-way edge, which admits no such pi, raises here."""
    if (oneway := adjacency & ~adjacency.T).any():
        x, y = np.argwhere(oneway)[0]
        raise NotReversible(f"detailed balance fails for ({states[x]},{states[y]}): "
                            f"Q(x,y)={float(q[x, y])!r} > 0 but Q(y,x)=0")
    pi = np.ones(len(q))
    for y in order[1:]:
        pi[y] = pi[parent[y]] * q[parent[y], y] / q[y, parent[y]]
    return pi / pi.sum()


def build_chain(q, pi=None, states=None) -> MarkovChain:
    """Validate and construct a chain from a row-stochastic kernel.

    When pi is omitted it is computed from detailed balance on a spanning tree.
    Raises NotStochastic / NotIrreducible / NotReversible naming the violated
    row or pair together with the residual, and InvalidParameters for fewer
    than two states: a chain without an edge has no Gamma calculus.  The
    chain carries no candidate automorphisms (`pair_orbits`).
    """
    return MarkovChain(q, pi=pi, states=states)


@derived
def distance_matrix(chain: MarkovChain) -> np.ndarray:
    """Combinatorial (shortest-path) distances of the adjacency graph, its
    edges taken in either direction: a breadth-first search from every state
    at once, one level per step.  Row y of a level is the union of the rows
    of y's neighbours in the last one; nbr[y, k] is the k-th neighbour of y,
    padded with y itself.  dist counts the levels at which y is unreached."""
    adjacency = chain.adjacency | chain.adjacency.T
    n = len(adjacency)
    ys, xs = np.nonzero(adjacency)
    slot = np.arange(len(ys)) - np.searchsorted(ys, ys)
    nbr = np.repeat(np.arange(n)[:, None], slot.max() + 1, axis=1)
    nbr[ys, slot] = xs
    reached = np.eye(n, dtype=bool)
    frontier = reached
    dist = (~reached).astype(np.int64)
    while True:
        step = np.zeros_like(reached)
        for col in nbr.T:
            step |= frontier[col]
        frontier = step > reached
        if not frontier.any():
            break
        reached |= frontier
        dist += ~reached
    dist.setflags(write=False)
    return dist


class PairOrbits(NamedTuple):
    group: tuple[np.ndarray, ...]   # the checked generators; () if any failed
    label: np.ndarray               # label[x, y]: the code i n + j of the orbit's
                                    # first pair i <= j of {x, y}


def _is_automorphism(chain: MarkovChain, sigma) -> bool:
    """sigma permutes range(n), Q[sigma, sigma] == Q and pi[sigma] == pi,
    bit for bit."""
    s = np.asarray(sigma)
    n = chain.n_states
    return (s.shape == (n,) and s.dtype.kind in "iu"
            and np.array_equal(np.sort(s), np.arange(n))
            and np.array_equal(chain.q[np.ix_(s, s)], chain.q)
            and np.array_equal(chain.pi[s], chain.pi))


@derived
def pair_orbits(chain: MarkovChain) -> PairOrbits:
    """Orbits of unordered pairs of states under the chain's automorphisms.

    Each candidate the chain was built with is checked bit for bit
    (`_is_automorphism`); if any fails the whole group is dropped, and
    every pair is its own orbit.  The labels start at min(x, y) n +
    max(x, y) and take the minimum over the images under each generator
    and its inverse until none changes, so label[x, y] = label[sigma x,
    sigma y] for every sigma in the generated group, and each orbit is
    labelled by the code of its first pair.  A pair i < j is its orbit's
    representative iff label[i, j] == i n + j."""
    n = chain.n_states
    group = chain._automorphisms
    if not all(_is_automorphism(chain, s) for s in group):
        group = ()
    group = tuple(np.array(s) for s in group)
    x, y = np.indices((n, n))
    label = np.minimum(x, y) * n + np.maximum(x, y)
    moves = [np.ix_(s, s) for s in group + tuple(np.argsort(s) for s in group)]
    changed = bool(moves)
    while changed:
        changed = False
        for move in moves:
            image = label[move]
            if (image < label).any():
                np.minimum(label, image, out=label)
                changed = True
    for a in group + (label,):
        a.setflags(write=False)
    return PairOrbits(group, label)


# -- generators ----------------------------------------------------------

def srw_from_graph(adj: np.ndarray, states: list[str] | None = None,
                   automorphisms=()) -> MarkovChain:
    """Random walk on an undirected, weighted graph: Q = A/deg, pi proportional
    to deg; `automorphisms` are candidate permutations of the graph, passed
    to the chain unchecked (`pair_orbits` checks them)."""
    adj = np.asarray(adj, dtype=float)
    deg = adj.sum(axis=1)
    if (deg == 0).any():
        x = int(np.argmax(deg == 0))
        raise InvalidParameters(
            f"state {states[x] if states else x} has zero total edge weight")
    q = adj / deg[:, None]
    pi = deg / deg.sum()
    return MarkovChain(q, pi=pi, states=states, automorphisms=automorphisms)


def _srw_on_edges(n: int, i, j, states: list[str] | None = None,
                  automorphisms=()) -> MarkovChain:
    """Simple random walk on the graph with n vertices and the undirected
    edges (i[e], j[e]), its adjacency built in one scatter."""
    adj = np.zeros((n, n))
    adj[np.concatenate([i, j]), np.concatenate([j, i])] = 1.0
    return srw_from_graph(adj, states=states, automorphisms=automorphisms)


def hypercube(n_dim: int) -> MarkovChain:
    """Simple random walk on the n_dim-dimensional hypercube (2^n_dim states),
    with the automorphisms that flip bit 0, swap bits 0 and 1 and rotate
    the bits, which generate every automorphism."""
    if n_dim < 1:
        raise InvalidParameters("hypercube dimension must be >= 1")
    size = 1 << n_dim
    labels = [format(v, f"0{n_dim}b") for v in range(size)]
    v = np.arange(size)
    swap = v & ~3 | (v & 1) << 1 | (v >> 1) & 1
    rotate = (v << 1 | v >> (n_dim - 1)) & (size - 1)
    return _srw_on_edges(size, np.repeat(v, n_dim),
                         (v[:, None] ^ (1 << np.arange(n_dim))).ravel(),
                         states=labels,
                         automorphisms=(v ^ 1,) + ((swap, rotate) if n_dim > 1 else ()))


def cycle(n: int) -> MarkovChain:
    """Simple random walk on the cycle Z/nZ: Q(x, x-1) = Q(x, x+1) = 1/2,
    with its rotation and reflection as automorphisms."""
    if n < 3:
        raise InvalidParameters("cycle needs n >= 3")
    x = np.arange(n)
    return _srw_on_edges(n, x, (x + 1) % n, automorphisms=((x + 1) % n, -x % n))


def complete(n: int) -> MarkovChain:
    """Simple random walk on the complete graph K_n, with an n-cycle and the
    transposition (0 1), which generate every permutation, as automorphisms."""
    if n < 2:
        raise InvalidParameters("complete graph needs n >= 2")
    adj = np.ones((n, n)) - np.eye(n)
    x = np.arange(n)
    return srw_from_graph(adj, automorphisms=((x + 1) % n, np.r_[1, 0, x[2:]]))


def path(n: int) -> MarkovChain:
    """Simple random walk on the path with n vertices, with its reflection as
    automorphism."""
    if n < 2:
        raise InvalidParameters("path needs n >= 2")
    x = np.arange(n - 1)
    return _srw_on_edges(n, x, x + 1, automorphisms=(n - 1 - np.arange(n),))


def _repairable(edges: set, leftover: dict) -> bool:
    """networkx 3's test that some leftover pair may still become an edge,
    kept verbatim: the swap also rebinds the outer node, which changes the
    pairs visited and so which tries are abandoned."""
    for s1 in leftover:
        for s2 in leftover:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def _pairing_edges(d: int, n: int, rng: random.Random):
    """One try of the pairing model for a d-regular graph on n nodes: pair
    off shuffled stubs, keep each pair that is neither a loop nor a repeat,
    and re-pair the stubs of the others until none are left.  Returns the
    edge set (i < j), or None when no leftover pair can ever be kept.  It
    draws from `rng` as networkx 3's `random_regular_graph` does, so a seed
    gives the same graph."""
    edges = set()
    stubs = list(range(n)) * d
    while stubs:
        leftover = defaultdict(int)          # insertion order is re-pairing order
        rng.shuffle(stubs)
        pairs = iter(stubs)
        for s1, s2 in zip(pairs, pairs):
            s1, s2 = min(s1, s2), max(s1, s2)
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] += 1
                leftover[s2] += 1
        if leftover and not _repairable(edges, leftover):
            return None
        stubs = [node for node, count in leftover.items() for _ in range(count)]
    return edges


def random_regular(d: int, n: int, seed: int = 0) -> MarkovChain:
    """Simple random walk on a random connected d-regular graph (nd even, n > d)."""
    if d < 1 or n <= d or (n * d) % 2 != 0:
        raise InvalidParameters(f"need nd even and n > d >= 1, got d={d}, n={n}")
    for attempt in range(64):
        rng = random.Random(seed + attempt)
        edges = None
        while edges is None:
            edges = _pairing_edges(d, n, rng)
        with contextlib.suppress(NotIrreducible):      # disconnected: retry
            return _srw_on_edges(n, *np.array(sorted(edges)).T)
    raise InvalidParameters(f"no connected {d}-regular graph found from seed {seed}")


def generate(spec: str, seed: int = 0) -> MarkovChain:
    """Build a standard chain from a spec string.

    Formats: ``hypercube:N``, ``cycle:n``, ``complete:n``, ``path:n``,
    ``random-regular:d:n`` (the seed argument applies to the random family).
    """
    parts = spec.split(":")
    kind = parts[0].replace("_", "-")
    try:
        args = [int(p) for p in parts[1:]]
    except ValueError:
        raise InvalidParameters(f"non-integer parameter in generator spec {spec!r}")
    makers = {"hypercube": hypercube, "cycle": cycle,
              "complete": complete, "path": path}
    if kind in makers:
        if len(args) != 1:
            raise InvalidParameters(f"{kind} takes one parameter, got {spec!r}")
        return makers[kind](args[0])
    if kind == "random-regular":
        if len(args) == 2:
            return random_regular(args[0], args[1], seed=seed)
        if len(args) == 3:
            return random_regular(args[0], args[1], seed=args[2])
        raise InvalidParameters(f"random-regular takes d:n[:seed], got {spec!r}")
    raise InvalidParameters(f"unknown generator kind {kind!r}")


# -- file formats ----------------------------------------------------------

def chain_to_json(chain: MarkovChain) -> dict:
    """JSON-serializable chain document: {"states": [...], "Q": [[...]], "pi": [...]}."""
    return {
        "states": list(chain.states),
        "Q": chain.q.tolist(),
        "pi": chain.pi.tolist(),
    }


def chain_from_json(doc) -> MarkovChain:
    """Build a chain from a JSON document (dict or JSON text)."""
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict) or "Q" not in doc:
        raise InvalidParameters('chain JSON must be an object with a "Q" matrix')
    for key in ("Q", "states", "pi"):
        if doc.get(key) is not None and not isinstance(doc[key], list):
            raise InvalidParameters(f'chain JSON "{key}" must be a list')
    states = doc.get("states")
    if states is not None:
        states = [str(s) for s in states]
    pi = doc.get("pi")
    return build_chain(_float_array("Q", doc["Q"]),
                       pi=None if pi is None else _float_array("pi", pi),
                       states=states)


def _float_array(key: str, values: list) -> np.ndarray:
    """The chain JSON list ``key`` as a float array; an entry that float()
    rejects raises InvalidParameters naming it."""
    try:
        return np.array(values, dtype=float)
    except (TypeError, ValueError):
        for name, value in _json_leaves(f'"{key}"', values):
            try:
                float(value)
            except (TypeError, ValueError):
                raise InvalidParameters(
                    f"chain JSON {name} = {value!r} is not a number") from None
        raise


def _json_leaves(name: str, value):
    """(name, entry) for every entry of a nested JSON list, in order."""
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(f"{name}[{i}]", item)
    else:
        yield name, value


def chain_from_edgelist(text: str) -> MarkovChain:
    """Parse tab-separated lines ``u <TAB> v <TAB> weight`` as symmetric weights.

    The chain is the weighted random walk Q(x,y) = w(x,y)/sum_z w(x,z) with
    pi proportional to the weighted degree.
    """
    weights: dict[tuple[str, str], float] = {}
    idx: dict[str, int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise InvalidParameters(f"edge list line {ln}: expected 'u<TAB>v<TAB>w'")
        u, v, wtxt = fields
        try:
            wval = float(wtxt)
        except ValueError:
            raise InvalidParameters(f"edge list line {ln}: bad weight {wtxt!r}")
        if wval < 0:
            raise InvalidParameters(f"edge list line {ln}: negative weight")
        if u == v:
            raise InvalidParameters(f"edge list line {ln}: self loops not allowed")
        for s in (u, v):
            idx.setdefault(s, len(idx))
        key = (u, v) if u <= v else (v, u)
        weights[key] = weights.get(key, 0.0) + wval
    if not idx:
        raise InvalidParameters("empty edge list")
    n = len(idx)
    w = np.zeros((n, n))
    for (u, v), wval in weights.items():
        w[idx[u], idx[v]] += wval
        w[idx[v], idx[u]] += wval
    return srw_from_graph(w, states=list(idx))
