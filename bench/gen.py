"""Seeded input generators for the benchmark.

Every generator returns an edge list of ``(u, v, w)`` triples over vertices
``0..n-1``.  ``edge_list_text`` then permutes the vertex labels and the line
order with the benchmark seed.  The program assigns dense indices in order of
first appearance, so the line order decides its tie order; a canonical
order (such as breadth-first for the tree) is a flattering special case.
Nothing here imports the program, so the inputs do not change when it does.
"""

from __future__ import annotations

import random


def binary_tree(height: int) -> list[tuple[int, int, int]]:
    """Complete binary tree with 2**(height+1) - 1 vertices, unit weights."""
    n = (1 << (height + 1)) - 1
    return [((v - 1) >> 1, v, 1) for v in range(1, n)]


def windmill(blades: int) -> list[tuple[int, int, int]]:
    """Hub 0 joined to both ends of ``blades`` disjoint edges (a friendship graph).

    ``2*blades + 1`` vertices; the hub has degree ``2*blades``, every other
    vertex degree 2.
    """
    edges = []
    for i in range(blades):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a, 1), (0, b, 1), (a, b, 1)]
    return edges


def _power_law(rng: random.Random, lo: int, hi: int, exponent: float) -> int:
    """Integer drawn from a continuous power law ``x**-exponent`` on [lo, hi]."""
    e = 1.0 - exponent
    a, b = lo ** e, (hi + 1) ** e
    return min(hi, int((a + rng.random() * (b - a)) ** (1.0 / e)))


def _components(n: int, edges) -> list[int]:
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for u, v in edges:
        root[find(u)] = find(v)
    return [find(v) for v in range(n)]


def planted(n: int, rng: random.Random, *, deg: tuple[int, int], size: tuple[int, int],
            mixing: float = 0.3, max_weight: int = 4,
            connected: bool = False) -> list[tuple[int, int, int]]:
    """Planted-partition graph with power-law degrees and community sizes.

    In the spirit of the LFR benchmark (Lancichinetti, Fortunato & Radicchi
    2008): degrees follow exponent 2.5 on ``deg``, community sizes exponent
    1.5 on ``size``, and a share ``mixing`` of each vertex's stubs is wired
    outside its community.  Stubs are paired at random; repeated and
    self-pairs are dropped.  Weights are uniform on 1..max_weight.  Every
    vertex keeps at least one edge, and with ``connected`` the components are
    chained into one.

    The size and degree sequences depend on the parameters only; ``rng``
    decides which vertices get them, the wiring and the weights.  Graphs
    from different seeds thus differ in structure but not in scale, which
    keeps the benchmark's figures comparable across seeds.
    """
    shape = random.Random(repr((n, deg, size, mixing)))
    sizes: list[int] = []
    while sum(sizes) < n:
        sizes.append(_power_law(shape, size[0], size[1], 1.5))
    sizes[-1] -= sum(sizes) - n
    if sizes[-1] < size[0] and len(sizes) > 1:
        last = sizes.pop()
        sizes[-1] += last
    order = list(range(n))
    rng.shuffle(order)
    communities, start = [], 0
    for s in sizes:
        communities.append(order[start:start + s])
        start += s

    weight: dict[tuple[int, int], int] = {}

    def wire(stubs: list[int]) -> None:
        rng.shuffle(stubs)
        for i in range(0, len(stubs) - 1, 2):
            u, v = stubs[i], stubs[i + 1]
            key = (u, v) if u < v else (v, u)
            if u != v and key not in weight:
                weight[key] = rng.randint(1, max_weight)

    degrees = [_power_law(shape, deg[0], deg[1], 2.5) for _ in range(n)]
    outside: list[int] = []
    for members in communities:
        inside: list[int] = []
        for v in members:
            d = degrees[v]
            d_in = min(round((1.0 - mixing) * d), len(members) - 1)
            inside += [v] * d_in
            outside += [v] * (d - d_in)
        wire(inside)
    wire(outside)

    touched = {v for pair in weight for v in pair}
    for v in range(n):
        if v not in touched:
            u = rng.choice([x for x in range(n) if x != v])
            weight[(min(u, v), max(u, v))] = rng.randint(1, max_weight)
            touched.update((u, v))
    if connected:
        comp = _components(n, weight)
        roots = sorted(set(comp))
        for a, b in zip(roots, roots[1:]):
            u = rng.choice([v for v in range(n) if comp[v] == a])
            v = rng.choice([v for v in range(n) if comp[v] == b])
            weight[(u, v) if u < v else (v, u)] = rng.randint(1, max_weight)
    return [(u, v, w) for (u, v), w in sorted(weight.items())]


def edge_list_text(edges, rng: random.Random) -> str:
    """Edge-list text with the vertex labels permuted and the lines shuffled."""
    n = 1 + max(max(u, v) for u, v, _ in edges)
    label = list(range(n))
    rng.shuffle(label)
    lines = [f"{label[u]} {label[v]}" if w == 1 else f"{label[u]} {label[v]} {w}"
             for u, v, w in edges]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


# One edge-list maker per workload, called with the seeded generator and a
# power-of-two divisor of the vertex count: 1 gives the benchmark size.
FAMILIES = {
    "tree": lambda rng, div: binary_tree(15 - div.bit_length()),
    "hub": lambda rng, div: windmill(1000 // div),
    "planted": lambda rng, div: planted(6000 // div, rng, deg=(4, 100), size=(20, 600)),
    "verify": lambda rng, div: planted(400 // div, rng, deg=(15, 90), size=(20, 100),
                                       connected=True),
}
