"""Binary hierarchies: recursive skeletons of paths between two vertices.

A hierarchy of depth n connecting x and y assigns a lattice site z_sigma
to every binary string sigma of length 1..n such that

  1. z_0 = x and z_1 = y;
  2. z_{s00} = z_{s0} and z_{s11} = z_{s1} (endpoint chains are pinned);
  3. for every s of length <= n-2 with z_{s01} != z_{s10}, the edge
     {z_{s01}, z_{s10}} is open;
  4. no such edge appears twice;
  5. two distinct same-level sites may coincide only if they are the two
     children of one parent (the coinciding pair is called degenerate).

Condition 5 forces every vertex of the required-edge subgraph to have
degree at most 2, so the required edges decompose into vertex-disjoint
simple paths.  The gap-path condition demands that the bottom gaps
|z_{s0} - z_{s1}| cannot all be bridged by fewer than 2^n edges in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .graph import BoxRealization, VertexOutOfBox


@dataclass(frozen=True)
class Violation:
    """First failed hierarchy condition (1-5) with a human-readable witness."""

    condition: int
    witness: str

    def __str__(self) -> str:
        return f"condition {self.condition} violated: {self.witness}"


def _as_site(v) -> tuple:
    return tuple(int(c) for c in np.atleast_1d(np.asarray(v, dtype=np.int64)))


@dataclass(frozen=True)
class Hierarchy:
    """Depth-n site assignment: binary strings of length 1..n to lattice sites."""

    depth: int
    sites: dict

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        clean = {}
        for key, value in self.sites.items():
            if not key or any(c not in "01" for c in key):
                raise ValueError(f"bad site key {key!r}")
            clean[key] = _as_site(value)
        object.__setattr__(self, "sites", clean)

    def level_keys(self, level: int):
        return ["".join(bits) for bits in product("01", repeat=level)]

    def required_edge_keys(self):
        """(sigma, key01, key10) triples for k = 0..n-2, all sigma of length k."""
        out = []
        for k in range(0, self.depth - 1):
            for bits in product("01", repeat=k):
                sigma = "".join(bits)
                out.append((sigma, sigma + "01", sigma + "10"))
        return out

    def required_edges(self):
        """The open edges demanded by condition 3 (distinct endpoints only)."""
        edges = []
        for _, a, b in self.required_edge_keys():
            za, zb = self.sites[a], self.sites[b]
            if za != zb:
                edges.append((za, zb) if za < zb else (zb, za))
        return edges


def validate_hierarchy(h: Hierarchy, r: BoxRealization) -> Violation | None:
    """Check conditions 1-5 against a realization; None means valid.

    Conditions are checked in the order 1, 2, 4, 5, 3 and the first
    violation is returned with a witness, so mutation tests see a
    deterministic report.  (4 must precede 5: a duplicated edge always
    entails a same-level coincidence somewhere down the condition-2
    chains, so under the opposite order no input would ever be reported
    as a condition-4 failure.)  A site outside the realization's box
    raises VertexOutOfBox naming its key.
    """
    n = h.depth
    # Precondition: all sites inside the box.
    for key, site in sorted(h.sites.items()):
        try:
            r.spec.flat_of(np.asarray(site, dtype=np.int64))
        except VertexOutOfBox as exc:
            raise VertexOutOfBox(f"site z_{key} = {site}: {exc}") from exc

    # Condition 1: endpoint keys present (with the full key set) and distinct.
    for level in range(1, n + 1):
        for key in h.level_keys(level):
            if key not in h.sites:
                return Violation(1, f"missing site z_{key}")
    if h.sites["0"] == h.sites["1"]:
        return Violation(1, "z_0 and z_1 coincide")

    # Condition 2: z_{s00} = z_{s0}, z_{s11} = z_{s1}.
    for k in range(0, n - 1):
        for bits in product("01", repeat=k):
            s = "".join(bits)
            if h.sites[s + "00"] != h.sites[s + "0"]:
                return Violation(2, f"z_{s + '00'} != z_{s + '0'}")
            if h.sites[s + "11"] != h.sites[s + "1"]:
                return Violation(2, f"z_{s + '11'} != z_{s + '1'}")

    # Condition 4: each required edge appears only once.
    seen_edges = set()
    for _, a, b in h.required_edge_keys():
        za, zb = h.sites[a], h.sites[b]
        if za == zb:
            continue
        edge = (za, zb) if za < zb else (zb, za)
        if edge in seen_edges:
            return Violation(4, f"edge {{z_{a}, z_{b}}} = {edge} repeated")
        seen_edges.add(edge)

    # Condition 5: same-level coincidences only between children of one parent.
    for level in range(1, n + 1):
        seen = {}
        for key in h.level_keys(level):
            site = h.sites[key]
            if site in seen:
                other = seen[site]
                if other[:-1] != key[:-1]:
                    return Violation(5, f"z_{other} = z_{key} = {site} are not siblings")
            else:
                seen[site] = key

    # Condition 3: required edges with distinct endpoints are open.  One
    # lookup decides them all; the first closed one in key order is reported.
    req = [(a, b) for _, a, b in h.required_edge_keys() if h.sites[a] != h.sites[b]]
    ends = np.array([[h.sites[a], h.sites[b]] for a, b in req], dtype=np.int64)
    flat = np.sort(r.spec.flat_of(ends.reshape(-1, 2, r.spec.d)), axis=1)
    closed = np.flatnonzero(~r.has_edges(flat))
    if closed.size:
        a, b = req[closed[0]]
        return Violation(3, f"edge {{z_{a}, z_{b}}} = ({h.sites[a]}, {h.sites[b]}) is closed")
    return None


def decompose_paths(h: Hierarchy):
    """Split the required edges into maximal vertex-disjoint simple paths.

    Needs conditions 1, 2, 4, 5 (openness is irrelevant here).  Returns a
    list of paths, each a list of sites; every required edge appears in
    exactly one path.  Paths are oriented from their lexicographically
    smaller endpoint and sorted by starting site.
    """
    edges = h.required_edges()
    if len(set(edges)) != len(edges):
        raise ValueError("required edges are not distinct (condition 4)")
    adj: dict = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    for v, nbrs in adj.items():
        if len(nbrs) > 2:
            raise ValueError(f"site {v} has degree {len(nbrs)} in the edge graph")

    paths = []
    visited = set()
    endpoints = sorted(v for v, nbrs in adj.items() if len(nbrs) == 1)
    for start in endpoints:
        if start in visited:
            continue
        walk = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            walk.append(cur)
            visited.add(cur)
        paths.append(walk)
    leftover = set(adj) - visited
    if leftover:
        raise ValueError("cycle in the required-edge graph")
    paths.sort(key=lambda p: p[0])
    return paths


def check_gap_paths_condition(h: Hierarchy, gap_paths: dict) -> bool:
    """True iff bottom-gap paths are disjoint, avoid the hierarchy, and are long.

    `gap_paths` maps each sigma of length n-1 to a vertex path from
    z_{s0} to z_{s1} (a single-vertex path for a degenerate gap).  The
    verdict is True iff the paths are mutually vertex-disjoint, use no
    hierarchy site except their own endpoints, and their total edge count
    is at least 2^n.  A missing path or wrong endpoints raise ValueError.
    """
    n = h.depth
    bottom = ["".join(bits) for bits in product("01", repeat=n - 1)]
    site_set = set(h.sites.values())
    total_len = 0
    used: dict = {}
    for s in bottom:
        if s not in gap_paths:
            raise ValueError(f"missing gap path for sigma = {s}")
        path = [_as_site(v) for v in gap_paths[s]]
        za, zb = h.sites[s + "0"], h.sites[s + "1"]
        if not path or path[0] != za or path[-1] != zb:
            raise ValueError(
                f"gap path for sigma = {s} must run from z_{s + '0'} = {za} "
                f"to z_{s + '1'} = {zb}")
        total_len += len(path) - 1
        interior = path[1:-1]
        if any(v in site_set for v in interior):
            return False
        for v in path:
            if v in used and used[v] != s:
                return False
            used[v] = s
    return total_len >= 2 ** n

