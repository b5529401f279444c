"""Independent brute-force reference implementations.

Everything here is written for obviousness, not speed: plain sets,
itertools and exhaustive loops.  The package's optimized routines are
cross-checked against these on small instances.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, product


def _components_from_adjacency(vertices, adj):
    seen = set()
    comps = []
    for v in sorted(vertices):
        if v in seen:
            continue
        stack = [v]
        comp = set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u] - comp)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def hypergraph_components(n, edges):
    adj = {v: set() for v in range(n)}
    for e in edges:
        for u in e:
            adj[u] |= set(e) - {u}
    return _components_from_adjacency(range(n), adj)


def hypergraph_components_after(n, edges, s):
    """Components after strongly deleting the vertex set s."""
    s = set(s)
    alive = [v for v in range(n) if v not in s]
    live = [e for e in edges if not (set(e) & s)]
    adj = {v: set() for v in alive}
    for e in live:
        for u in e:
            adj[u] |= set(e) - {u}
    return _components_from_adjacency(alive, adj)


def hypergraph_toughness(n, edges):
    """(value, witness) with value None meaning infinite; minimum of
    |S|/c over cutsets with c >= 2, smallest then lexicographically
    least witness."""
    best = None
    for r in range(n + 1):
        for s in combinations(range(n), r):
            c = len(hypergraph_components_after(n, edges, s))
            if c < 2:
                continue
            key = (Fraction(len(s), c), len(s), s)
            if best is None or key < best:
                best = key
    if best is None:
        return None, None
    return best[0], best[2]


def graph_toughness(n, pair_edges):
    """Toughness of an ordinary graph: delete S, count components of
    the induced subgraph.  Written directly on pairs as a second
    opinion independent of the hypergraph machinery."""
    best = None
    for r in range(n + 1):
        for s in combinations(range(n), r):
            drop = set(s)
            alive = [v for v in range(n) if v not in drop]
            adj = {v: set() for v in alive}
            for u, v in pair_edges:
                if u not in drop and v not in drop:
                    adj[u].add(v)
                    adj[v].add(u)
            c = len(_components_from_adjacency(alive, adj))
            if c < 2:
                continue
            key = (Fraction(len(s), c), len(s), s)
            if best is None or key < best:
                best = key
    if best is None:
        return None, None
    return best[0], best[2]


def y_strong_components(nx, ny, rows, s):
    """Components after deleting s (a set of Y-locals) together with
    every X-vertex adjacent to it.  Vertices are global ids."""
    s = set(s)
    dead_x = {x for x in range(nx) if set(rows[x]) & s}
    alive = [x for x in range(nx) if x not in dead_x]
    alive += [nx + y for y in range(ny) if y not in s]
    adj = {v: set() for v in alive}
    for x in range(nx):
        if x in dead_x:
            continue
        for y in rows[x]:
            if y not in s:
                adj[x].add(nx + y)
                adj[nx + y].add(x)
    return _components_from_adjacency(alive, adj)


def y_toughness_oracle(nx, ny, rows):
    best = None
    for r in range(ny + 1):
        for s in combinations(range(ny), r):
            c = len(y_strong_components(nx, ny, rows, s))
            if c < 2:
                continue
            key = (Fraction(len(s), c), len(s), s)
            if best is None or key < best:
                best = key
    if best is None:
        return None, None
    return best[0], best[2]


def max_matching_size(n, edges):
    """Recursion on the lowest unmatched vertex: skip it or match it to
    any unmatched neighbor."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def rec(free):
        for v in sorted(free):
            break
        else:
            return 0
        free = free - {v}
        best = rec(free)  # leave v unmatched
        for u in sorted(adj[v] & free):
            best = max(best, 1 + rec(free - {u}))
        return best

    return rec(frozenset(range(n)))


def has_2k_factor(nx, ny, rows, k):
    """Backtracking over X-vertices: each picks nothing or a pair of
    its neighbors; Y-degrees must finish at exactly k."""
    ydeg = [0] * ny
    # upper bound on future contributions to each y: one per later x
    suffix = [[0] * ny for _ in range(nx + 1)]
    for i in range(nx - 1, -1, -1):
        for y in range(ny):
            suffix[i][y] = suffix[i + 1][y] + (1 if y in rows[i] else 0)

    def feasible(i):
        return all(ydeg[y] <= k and ydeg[y] + suffix[i][y] >= k
                   for y in range(ny))

    def rec(i):
        if not feasible(i):
            return False
        if i == nx:
            return all(d == k for d in ydeg)
        if rec(i + 1):  # x_i takes degree 0
            return True
        for y1, y2 in combinations(rows[i], 2):
            ydeg[y1] += 1
            ydeg[y2] += 1
            if rec(i + 1):
                ydeg[y1] -= 1
                ydeg[y2] -= 1
                return True
            ydeg[y1] -= 1
            ydeg[y2] -= 1
        return False

    return rec(0)


def delta_naive(nx, ny, rows, k, a, b):
    """Deficiency of the disjoint pair (a, b) of global ids, computed
    with sets and explicit sums."""
    a, b = set(a), set(b)
    assert not a & b
    f = {v: 2 if v < nx else k for v in range(nx + ny)}
    g = {v: 0 if v < nx else k for v in range(nx + ny)}
    adj = {v: set() for v in range(nx + ny)}
    for x in range(nx):
        for y in rows[x]:
            adj[x].add(nx + y)
            adj[nx + y].add(x)
    rest = set(range(nx + ny)) - a - b
    comps = _components_from_adjacency(rest, {v: adj[v] & rest for v in rest})
    h = 0
    odd_flags = []
    for comp in comps:
        eb = sum(len(adj[v] & b) for v in comp)
        odd = (sum(f[v] for v in comp) + eb) % 2 == 1
        odd_flags.append((comp, odd))
        h += odd
    val = (sum(f[v] for v in a) - sum(g[v] for v in b)
           + sum(len(adj[v] - a) for v in b) - h)
    return val, odd_flags, h


def scan_all_pairs(nx, ny, rows, k):
    """Every disjoint (A, B) over the full vertex set (B may meet X).
    Returns (min delta, biased (a, b), any odd delta seen)."""
    n = nx + ny
    best_key = None
    best_pair = None
    saw_odd = False
    for assign in product((0, 1, 2), repeat=n):
        a = tuple(v for v in range(n) if assign[v] == 1)
        b = tuple(v for v in range(n) if assign[v] == 2)
        val, _, _ = delta_naive(nx, ny, rows, k, a, b)
        if val % 2 != 0:
            saw_odd = True
        key = (val, len(b), -len(a), b, a)
        if best_key is None or key < best_key:
            best_key = key
            best_pair = (a, b)
    return best_key[0], best_pair, saw_odd


def first_barrier_ternary(nx, ny, rows, k):
    """First (A, B) with negative deficiency in base-3 counting order:
    vertex 0 is the fastest digit, digit 1 means A, 2 means B."""
    n = nx + ny
    for code in range(3 ** n):
        digits = []
        c = code
        for _ in range(n):
            digits.append(c % 3)
            c //= 3
        a = tuple(v for v in range(n) if digits[v] == 1)
        b = tuple(v for v in range(n) if digits[v] == 2)
        val, _, _ = delta_naive(nx, ny, rows, k, a, b)
        if val < 0:
            return a, b, val
    return None


def gadget_deficiency(g, k):
    """|V| - 2 nu of the split-incidence gadget of the bipartite graph g
    at degree k: per incidence (x, y) an end e_x and an end e_y joined
    by an edge; per X-vertex a joined pair, both members adjacent to
    every e_x of x; per Y-vertex k copies, each adjacent to every e_y of
    y.  Built here even where a Y-vertex has degree < k, and matched
    with the package's blossom matcher."""
    from bergefactor.matching import GeneralGraph, max_matching

    n = 0
    edges = []
    ends_of = {v: [] for v in range(g.x_count + g.y_count)}
    for x, ys in enumerate(g.neighbors):
        for y in ys:
            ex, ey = n, n + 1
            n += 2
            edges.append((ex, ey))
            ends_of[x].append(ex)
            ends_of[g.x_count + y].append(ey)
    for v, ends in ends_of.items():
        hubs = list(range(n, n + (2 if v < g.x_count else k)))
        n += len(hubs)
        if v < g.x_count:
            edges.append(tuple(hubs))
        edges += [(e, h) for e in ends for h in hubs]
    return n - 2 * len(max_matching(GeneralGraph(n, edges)))


def _augment_from_reference(root, adj, match, n):
    # BFS over outer vertices; p[] holds the traversal parent of outer
    # vertices, base[] the blossom base each vertex currently maps to.
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    used[root] = True
    q = deque([root])

    def lca(a, b):
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = p[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = p[match[b]]

    def mark_path(v, b, child, flower):
        while base[v] != b:
            flower[base[v]] = True
            flower[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    while q:
        v = q.popleft()
        for to in adj[v]:
            if base[v] == base[to] or match[v] == to:
                continue
            if to == root or (match[to] != -1 and p[match[to]] != -1):
                # Odd cycle: contract it onto the common base.
                cur = lca(v, to)
                flower = [False] * n
                mark_path(v, cur, to, flower)
                mark_path(to, cur, v, flower)
                for i in range(n):
                    if flower[base[i]]:
                        base[i] = cur
                        if not used[i]:
                            used[i] = True
                            q.append(i)
            elif p[to] == -1:
                p[to] = v
                if match[to] == -1:
                    # Exposed vertex reached: flip the augmenting path.
                    while to != -1:
                        pv = p[to]
                        ppv = match[pv]
                        match[to] = pv
                        match[pv] = to
                        to = ppv
                    return True
                used[match[to]] = True
                q.append(match[to])
    return False


def max_matching_reference(g):
    """Edmonds matching in its plain form, for `GeneralGraph` g: every
    contraction sweeps all n vertices and each phase allocates its arrays
    afresh.  Returns the sorted matched edges, which
    `max_matching(g).edges` must equal on every input."""
    n = g.n
    adj = g.adjacency
    match = [-1] * n
    for u, v in g.edges:
        if match[u] == -1 and match[v] == -1:
            match[u] = v
            match[v] = u
    for v in range(n):
        if match[v] == -1:
            _augment_from_reference(v, adj, match, n)
    pairs = [(v, match[v]) for v in range(n) if v < match[v]]
    return tuple(sorted(pairs))
