"""The resolution limit on rings of cliques, reproduced exactly.

A ring of ``r`` cliques ``K_m`` with adjacent cliques joined by one edge
(Fortunato & Barthelemy 2007) gives each clique the degree
``d_c = m(m-1) + 2`` and the total ``z = r * d_c``.  Two adjacent cliques
carry the ratio ``z / d_c**2 = r / d_c``, so at t = 1 merging them gains
exactly when ``r > d_c``.
"""

from fractions import Fraction

import pytest

from modsweep import Graph, Partition, bounds_report, detect_communities


def ring_of_cliques(r: int, m: int) -> Graph:
    """``r`` copies of ``K_m``; clique ``i`` holds vertices ``i*m .. i*m + m - 1``
    and its last vertex is joined to the first vertex of clique ``i + 1``
    (mod r)."""
    edges = [(i * m + a, i * m + b, 1) for i in range(r) for a in range(m) for b in range(a + 1, m)]
    edges += [(i * m + m - 1, (i + 1) % r * m, 1) for i in range(r)]
    return Graph.from_edge_list(edges)


def _cases():
    for m in range(3, 9):
        d_c = m * (m - 1) + 2
        for r in (3, d_c - 1, d_c, d_c + 1):
            yield m, r


@pytest.mark.parametrize("m, r", list(_cases()))
def test_ring_of_cliques(m, r):
    d_c = m * (m - 1) + 2
    g = ring_of_cliques(r, m)
    assert g.z == r * d_c
    cliques = Partition([v // m for v in range(g.n)])
    part, trace = detect_communities(g, t_min=1)
    # the sweep passes through the clique partition at the cliques' own ratio
    assert any(rec.t_exact == Fraction(r, d_c) and rec.k == r for rec in trace)
    # below the limit the cliques survive at t = 1; from it on they merge
    assert (part == cliques) == (r < d_c)
    if r == d_c:
        # the cliques are merge-stable at 1, but zero-gain pairs merge at
        # exactly t_min, into pairs of cliques at resolution 1/4
        assert trace[-1].t_exact == Fraction(1, 4)
        assert trace[-1].k == len(part) == r // 2
    rep = bounds_report(g, part, 1)
    assert rep.all_pass and rep.stable
    assert rep.min_cut_value == 2
    assert rep.max_blocks == Fraction(g.z, 2)
