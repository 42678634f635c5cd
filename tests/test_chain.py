"""Chain construction, validation, generators, distances, file formats."""

import json
import random
import re
import sys
import threading
from itertools import product

import numpy as np
import pytest

from curvkit import (InvalidParameters, MarkovChain, NotIrreducible,
                     NotReversible, NotStochastic, build_chain,
                     chain_from_edgelist, chain_from_json, chain_to_json,
                     cheeger, complete, cycle, distance_matrix, generate,
                     hypercube, lambda1, pair_orbits, path, random_regular,
                     spectral_decompose, srw_from_graph)

from conftest import small_chain_pool


def test_two_state_uniform_pi(two_state):
    assert two_state.pi == pytest.approx([0.5, 0.5], abs=1e-14)


def test_lazy_chain_valid():
    ch = build_chain([[0.5, 0.5], [0.5, 0.5]])
    assert ch.stats().deg_weighted_max == pytest.approx(0.5)
    # self loops never create adjacency
    assert not ch.adjacency[0, 0]


def test_bad_row_sum_rejected():
    with pytest.raises(NotStochastic, match="row"):
        build_chain([[0.4, 0.5], [0.5, 0.5]])


def test_negative_entry_rejected():
    with pytest.raises(NotStochastic):
        build_chain([[1.2, -0.2], [0.5, 0.5]])


def test_disconnected_rejected():
    q = np.eye(4)
    with pytest.raises(NotIrreducible, match="state 1 is not reachable from state 0"):
        build_chain(q)


def test_irreversible_rejected():
    # 3-cycle with a drift is stationary-uniform but not reversible
    q = np.array([[0.0, 0.9, 0.1],
                  [0.1, 0.0, 0.9],
                  [0.9, 0.1, 0.0]])
    with pytest.raises(NotReversible):
        build_chain(q, pi=[1 / 3] * 3)


def test_wrong_pi_rejected(two_state):
    with pytest.raises(NotReversible):
        build_chain([[0.0, 1.0], [1.0, 0.0]], pi=[0.25, 0.75])


@pytest.mark.parametrize("q, pi, entry", [
    ([[0.0, 1.0], [1.0, 0.0]], [np.nan, 0.5], "pi[0] = nan is not finite"),
    ([[np.nan, 1.0], [1.0, 0.0]], None, "Q[0,0] = nan is not finite"),
], ids=["nan-pi", "nan-q"])
def test_non_finite_entry_rejected(q, pi, entry):
    with pytest.raises(InvalidParameters) as exc:
        build_chain(q, pi=pi)
    assert entry in str(exc.value)


@pytest.mark.parametrize("q", [[[1.0]], np.zeros((0, 0))], ids=["one", "empty"])
def test_a_chain_needs_two_states(q):
    # the paper's objects need an edge; a chain of fewer than two states is
    # refused where it is built, before any command computes on it
    with pytest.raises(InvalidParameters,
                       match=f"^a chain needs at least two states, got {len(q)}$"):
        build_chain(q)


def test_validation_messages_print_plain_floats():
    with pytest.raises(NotStochastic) as row:
        build_chain([[0.4, 0.5], [0.5, 0.5]])
    with pytest.raises(NotReversible) as pair:
        build_chain([[0.0, 1.0], [1.0, 0.0]], pi=[0.25, 0.75])
    for exc, value in ((row, "row 0 sums to 0.9 "),
                       (pair, "Q(x,y)pi(x)=0.25 vs Q(y,x)pi(y)=0.75")):
        assert value in str(exc.value)
        assert "np.float64" not in str(exc.value)


def test_stationary_vector_computed():
    ch = path(3)
    # degrees 1,2,1 so pi = (1/4, 1/2, 1/4)
    assert ch.pi == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)
    rebuilt = build_chain(ch.q)      # pi omitted, recomputed
    assert rebuilt.pi == pytest.approx(ch.pi, abs=1e-10)


def test_stationary_vector_of_a_chain_with_a_small_spectral_gap():
    # a birth-death chain whose middle edge is 1e-6: pi from detailed
    # balance is exact to rounding, where a linear solve misses it by eps/gap
    w = 1e-6
    q = np.array([[0.0, 1.0, 0.0, 0.0],
                  [1.0 / (1 + w), 0.0, w / (1 + w), 0.0],
                  [0.0, w / (1 + w), 0.0, 1.0 / (1 + w)],
                  [0.0, 0.0, 1.0, 0.0]])
    pi = build_chain(q).pi
    assert np.abs(pi - np.array([1, 1 + w, 1 + w, 1]) / (4 + 2 * w)).max() <= 1e-12


def test_breadth_first_matches_scipy_on_random_digraphs():
    # the spanning tree of pi: same order and parents as csgraph's search
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    from curvkit.chain import _breadth_first

    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(1, 30))
        adj = rng.random((n, n)) < rng.uniform(0.02, 0.5)
        np.fill_diagonal(adj, False)
        order, parent = _breadth_first(adj)
        ref_order, ref_parent = breadth_first_order(csr_matrix(adj), 0, directed=False)
        assert order.tolist() == ref_order.tolist(), adj
        assert parent.tolist() == ref_parent.tolist(), adj


def test_one_way_edge_rejected_without_pi():
    with pytest.raises(NotReversible, match=r"\(0,1\)"):
        build_chain([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize("spec,size", [
    ("hypercube:1", 2), ("hypercube:3", 8), ("cycle:5", 5),
    ("complete:4", 4), ("path:6", 6),
])
def test_generate_sizes(spec, size):
    assert generate(spec).n_states == size


def test_hypercube_one_is_two_state():
    ch = hypercube(1)
    assert ch.q[0, 1] == 1.0 and ch.q[1, 0] == 1.0


def test_cycle_kernel_and_pi():
    ch = cycle(5)
    for x in range(5):
        assert ch.q[x, (x + 1) % 5] == pytest.approx(0.5)
        assert ch.q[x, (x - 1) % 5] == pytest.approx(0.5)
    assert ch.pi == pytest.approx([0.2] * 5)


def test_random_regular_parity_guard():
    # nd must be even; 3 * 5 = 15 is not
    with pytest.raises(InvalidParameters):
        random_regular(3, 5, seed=7)


def test_random_regular_structure():
    ch = random_regular(3, 8, seed=7)
    # the seed argument of generate is the optional last field of the spec
    assert generate("random-regular:3:8", seed=5).q.tobytes() \
        == generate("random-regular:3:8:5").q.tobytes() \
        != generate("random-regular:3:8").q.tobytes()
    st = ch.stats()
    assert st.q_min == pytest.approx(1 / 3)
    assert ch.pi == pytest.approx([1 / 8] * 8)
    assert (ch.adjacency.sum(axis=1) == 3).all()


def test_random_regular_matches_networkx():
    # the pairing model draws as networkx 3's random_regular_graph does, so
    # every seed gives the same graph, and the same connected retry
    nx = pytest.importorskip("networkx")
    from curvkit.chain import _pairing_edges

    for d in range(1, 7):
        for n in range(d + 1, 31):
            if n * d % 2:
                continue
            for seed in range(5):
                g = nx.random_regular_graph(d, n, seed=seed)
                rng = random.Random(seed)
                edges = None
                while edges is None:
                    edges = _pairing_edges(d, n, rng)
                assert edges == {tuple(sorted(e)) for e in g.edges()}, (d, n, seed)
    for d, n, seed in ((2, 12, 0), (2, 20, 3), (3, 16, 1), (4, 128, 1)):
        attempt = next(a for a in range(64)
                       if nx.is_connected(nx.random_regular_graph(d, n, seed=seed + a)))
        g = nx.random_regular_graph(d, n, seed=seed + attempt)
        adj = nx.to_numpy_array(g, nodelist=sorted(g.nodes()))
        assert np.array_equal(random_regular(d, n, seed=seed).q,
                              adj / adj.sum(axis=1)[:, None]), (d, n, seed)


@pytest.mark.parametrize("build, error, message", [
    (lambda: MarkovChain(np.ones((2, 3)) / 3), NotStochastic,
     "Q must be square, got shape (2, 3)"),
    (lambda: MarkovChain([[0, 1], [1, 0]], states=["a", "a"]), InvalidParameters,
     "states must be distinct and match Q's size"),
    (lambda: MarkovChain([[0, 1], [1, 0]], pi=[1.0]), InvalidParameters,
     "pi must have shape (2,)"),
    (lambda: MarkovChain([[0, 1], [1, 0]], pi=[0.0, 1.0]), InvalidParameters,
     "pi must be strictly positive and sum to 1"),
    (lambda: MarkovChain([[0, 1], [1, 0]], pi=[0.5, 0.6]), InvalidParameters,
     "pi must be strictly positive and sum to 1"),
    (lambda: cycle(4).index(4), InvalidParameters, "state index 4 out of range"),
    (lambda: cycle(4).index("x"), InvalidParameters, "unknown state 'x'"),
    (lambda: generate("hypercube:0"), InvalidParameters,
     "hypercube dimension must be >= 1"),
    (lambda: generate("cycle:2"), InvalidParameters, "cycle needs n >= 3"),
    (lambda: generate("complete:1"), InvalidParameters, "complete graph needs n >= 2"),
    (lambda: generate("path:1"), InvalidParameters, "path needs n >= 2"),
    (lambda: generate("hypercube:3:4"), InvalidParameters,
     "hypercube takes one parameter, got 'hypercube:3:4'"),
    (lambda: generate("random-regular:3"), InvalidParameters,
     "random-regular takes d:n[:seed], got 'random-regular:3'"),
    (lambda: chain_from_edgelist("a\tb\tx\n"), InvalidParameters,
     "edge list line 1: bad weight 'x'"),
    (lambda: chain_from_edgelist("a\tb\t-1\n"), InvalidParameters,
     "edge list line 1: negative weight"),
    (lambda: chain_from_edgelist("# no edge\n"), InvalidParameters, "empty edge list"),
], ids=["non-square", "repeated-states", "pi-shape", "pi-zero", "pi-sum",
        "index-range", "unknown-state", "hypercube-0", "cycle-2", "complete-1",
        "path-1", "hypercube-two-args", "random-regular-one-arg", "bad-weight",
        "negative-weight", "no-edge"])
def test_refusals_name_their_input(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_generate_bad_spec():
    with pytest.raises(InvalidParameters):
        generate("moebius:5")
    with pytest.raises(InvalidParameters):
        generate("cycle:abc")


@pytest.mark.parametrize("ch,expected_max", [
    (cycle(6), 3), (hypercube(3), 3), (complete(4), 1),
])
def test_distance_extremes(ch, expected_max):
    assert distance_matrix(ch).max() == expected_max


def test_hypercube_distance_is_hamming():
    ch = hypercube(3)
    d = distance_matrix(ch)
    for i, j in product(range(8), repeat=2):
        assert d[i, j] == bin(i ^ j).count("1")


def test_triangle_inequality_exhaustive():
    for ch in (cycle(7), hypercube(3), path(5)):
        d = distance_matrix(ch)
        n = ch.n_states
        for i, j, k in product(range(n), repeat=3):
            assert d[i, j] <= d[i, k] + d[k, j]


def test_distance_matrix_matches_scipy():
    # the numpy breadth-first search against csgraph's unweighted distances
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    for ch in small_chain_pool() + [cycle(128)]:
        ref = shortest_path(csr_matrix(ch.adjacency), method="D", unweighted=True,
                            directed=False)
        d = distance_matrix(ch)
        assert d.dtype == np.int64 and not d.flags.writeable
        assert np.array_equal(d, ref.astype(np.int64)), ch.n_states


def test_json_round_trip(hyp2):
    doc = chain_to_json(hyp2)
    text = json.dumps(doc)
    back = chain_from_json(text)
    assert back.states == hyp2.states
    assert back.q == pytest.approx(hyp2.q)
    assert back.pi == pytest.approx(hyp2.pi)


def test_edgelist_parse():
    text = "a\tb\t2.0\nb\tc\t1.0\n"
    ch = chain_from_edgelist(text)
    assert ch.states == ("a", "b", "c")
    assert ch.q[0, 1] == pytest.approx(1.0)          # a only touches b
    assert ch.q[1, 0] == pytest.approx(2 / 3)
    assert ch.pi == pytest.approx([2 / 6, 3 / 6, 1 / 6])
    # states keep first-seen order across both columns: c first appears second
    ch = chain_from_edgelist("b\tc\t1.0\na\tc\t1.0\nd\tb\t2.0\n")
    assert ch.states == ("b", "c", "a", "d")
    assert ch.q[0, 3] == pytest.approx(2 / 3)
    assert ch.q[1, 2] == pytest.approx(0.5)
    assert ch.pi == pytest.approx([3 / 8, 2 / 8, 1 / 8, 2 / 8])


def test_edgelist_rejects_malformed():
    with pytest.raises(InvalidParameters):
        chain_from_edgelist("a b 1.0\n")             # wrong separator
    with pytest.raises(InvalidParameters):
        chain_from_edgelist("a\ta\t1.0\n")           # self loop
    with pytest.raises(InvalidParameters, match="state c has zero total edge weight"):
        chain_from_edgelist("a\tb\t1.0\nc\tb\t0\n")


def test_generators_match_loop_built_adjacency():
    # the reference: each edge set one entry at a time
    def srw(adj):
        return adj / adj.sum(axis=1)[:, None]

    for n_dim in (1, 3, 5):
        adj = np.zeros((1 << n_dim, 1 << n_dim))
        for v in range(1 << n_dim):
            for j in range(n_dim):
                adj[v, v ^ (1 << j)] = 1.0
        assert np.array_equal(hypercube(n_dim).q, srw(adj))
    for n in (3, 4, 9):
        adj = np.zeros((n, n))
        for x in range(n):
            adj[x, (x + 1) % n] = adj[x, (x - 1) % n] = 1.0
        assert np.array_equal(cycle(n).q, srw(adj))
    for n in (2, 7):
        adj = np.zeros((n, n))
        for x in range(n - 1):
            adj[x, x + 1] = adj[x + 1, x] = 1.0
        assert np.array_equal(path(n).q, srw(adj))


def test_generated_chains_validate():
    # regenerating from the raw kernel must pass every invariant check
    for ch in (hypercube(4), cycle(8), complete(5), path(7),
               random_regular(4, 9, seed=3)):
        build_chain(ch.q, pi=ch.pi, states=list(ch.states))
        st = ch.stats()
        assert (st.deg_weighted <= 1 + 1e-12).all()
        assert (st.deg_pi >= st.q_min - 1e-12).all()


def test_derived_quantities_memoized_per_chain():
    ch = cycle(5)
    sys_ = spectral_decompose(ch)
    assert spectral_decompose(ch) is sys_
    assert ch.stats() is ch.stats()
    assert distance_matrix(ch) is distance_matrix(ch)
    assert cheeger(ch) is cheeger(ch)
    for arr in (sys_.eigenvalues, sys_.basis, distance_matrix(ch)):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        sys_.eigenvalues[1] = 0.0
    # an equal chain built separately gets its own values
    twin = cycle(5)
    assert spectral_decompose(twin) is not sys_
    assert cheeger(twin) is not cheeger(ch)
    assert lambda1(cycle(6)) != lambda1(ch)
    assert spectral_decompose(cycle(6)).eigenvalues.shape == (6,)


def test_derived_memo_threads_share_one_result():
    ch = random_regular(3, 64, seed=2)
    results = []
    lock = threading.Lock()

    def worker():
        sys_ = spectral_decompose(ch)
        with lock:
            results.append(sys_)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 8
    assert all(r is results[0] for r in results)


# -- automorphisms -------------------------------------------------------------

def _own_orbits(n):
    """The labels of a chain without automorphisms: every pair its own orbit."""
    x, y = np.indices((n, n))
    return np.minimum(x, y) * n + np.maximum(x, y)


@pytest.mark.parametrize("kind, sizes, orbits", [
    ("hypercube", range(1, 7), lambda k: k),                 # Hamming distance
    ("cycle", range(3, 17), lambda n: n // 2),               # cyclic distance
    ("complete", range(2, 11), lambda n: 1),
    ("path", range(2, 10), lambda n: (n * (n - 1) // 2 + n // 2) // 2),
])
def test_generators_supply_checked_automorphisms(kind, sizes, orbits):
    # every candidate passes the bit-for-bit check, one moves some state,
    # the labels are constant on each orbit, and the orbits of pairs i < j
    # are the ones each family's group makes
    for size in sizes:
        ch = generate(f"{kind}:{size}")
        n = ch.n_states
        group = pair_orbits(ch).group
        label = pair_orbits(ch).label
        assert len(group) == len(ch._automorphisms) > 0
        assert any((s != np.arange(n)).any() for s in group)
        for s in group:
            assert np.array_equal(label[np.ix_(s, s)], label)
        iu, ju = np.triu_indices(n, 1)
        assert len(np.unique(label[iu, ju])) == orbits(size)
        assert (label[iu, ju] == iu * n + ju).sum() == orbits(size)


def test_automorphisms_failing_the_bit_for_bit_check_are_dropped():
    # the cube's permutations on a cube with one edge weight one ulp off,
    # or with pi one ulp off at one state, and with an array that is not a
    # permutation among them: each group is dropped whole, on first use
    cube = hypercube(4)
    perms, states = cube._automorphisms, list(cube.states)
    adj = cube.adjacency.astype(float)
    adj[0, 1] = adj[1, 0] = np.nextafter(1.0, 2.0)
    pi = cube.pi.copy()
    pi[3] = np.nextafter(pi[3], 1.0)
    candidates = [
        srw_from_graph(adj, states=states, automorphisms=perms),
        MarkovChain(cube.q, pi=pi, states=states, automorphisms=perms),
        MarkovChain(cube.q, pi=cube.pi, automorphisms=perms + (np.zeros(16, int),)),
        MarkovChain(cube.q, pi=cube.pi, automorphisms=perms + (np.arange(15),)),
        MarkovChain(cube.q, pi=cube.pi, automorphisms=perms + (np.arange(16.0),)),
    ]
    for ch in candidates:
        assert pair_orbits(ch).group == ()
        assert np.array_equal(pair_orbits(ch).label, _own_orbits(16))
    exact = MarkovChain(cube.q, pi=cube.pi, automorphisms=perms)
    assert len(pair_orbits(exact).group) == 3


@pytest.mark.parametrize("make", [
    lambda: chain_from_json(chain_to_json(hypercube(4))),
    lambda: build_chain(cycle(6).q, pi=cycle(6).pi),
    lambda: random_regular(3, 8, seed=1),
    lambda: chain_from_edgelist("a\tb\t1\nb\tc\t1\nc\ta\t1\n"),
], ids=["json", "build_chain", "random-regular", "edge-list"])
def test_chains_read_or_built_carry_no_automorphisms(make):
    ch = make()
    assert pair_orbits(ch).group == ()
    assert np.array_equal(pair_orbits(ch).label, _own_orbits(ch.n_states))
