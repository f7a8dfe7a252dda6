"""Finite-box realizations of scale-free / long-range percolation.

A realization samples, for one box {0,...,L-1}^d (optionally shifted by
an origin offset), the keyed vertex weights and the open/closed status
of every vertex pair: the edge {x, y} is open iff its keyed uniform is
below p_xy = 1 - exp(-lambda W_x W_y / |x-y|^alpha), with W == 1 for the
LRP kind and all nearest-neighbour edges forced open for the SFP_NN
kind.  Because the uniforms are keyed by the unordered pair, SFP and LRP
realizations built from the same seed are exactly coupled: every open
LRP edge is open in SFP.

`generate_box` is the one entry point.  Without a cutoff it enumerates
all pairs (O(L^2d), guarded by a pair budget that is checked before any
work).  With `cutoff=R` it considers only pairs within Euclidean
distance R; decisions inside R are bit-identical to the exact box, and
the realization records the union-bound bias
sum_{|x-y|>R} min(1, lambda W_x W_y |x-y|^-alpha) for the pairs it never
looked at (computed exactly via FFT lag sums plus a saturation
correction for the rare pairs whose bound clips at 1).  `coupled_pair`
is two `generate_box` calls, one per model kind, on the same seed.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import fft as sfft
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .params import ModelKind, ModelParams, RadiusTooSmall
from .randomness import TAG_EDGE, keyed_uniforms, vertex_weights

DEFAULT_PAIR_BUDGET = 2 ** 32

FORMAT_HEADER = "#sfp-box v1"
_META_KEYS = {"d", "alpha", "lambda", "tau", "model", "L", "seed", "origin", "trunc", "truncbias"}


class BoxTooLarge(ValueError):
    pass


class VertexOutOfBox(ValueError):
    pass


class MarginTooLarge(ValueError):
    pass


class FormatVersionMismatch(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, line_number: int, message: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


@dataclass(frozen=True)
class BoxSpec:
    """A finite box {0,...,L-1}^d shifted by an integer origin offset."""

    d: int
    side: int
    origin: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.side < 2:
            raise ValueError(f"side must be >= 2, got {self.side}")
        origin = self.origin if self.origin is not None else (0,) * self.d
        origin = tuple(int(c) for c in origin)
        if len(origin) != self.d:
            raise ValueError("origin length must equal d")
        object.__setattr__(self, "origin", origin)

    @property
    def vertex_count(self) -> int:
        return self.side ** self.d

    def coords_of(self, flat) -> np.ndarray:
        """Absolute lattice coordinates for flat indices (row-major), shape (..., d)."""
        flat = np.asarray(flat, dtype=np.int64)
        out = np.empty(flat.shape + (self.d,), dtype=np.int64)
        rem = flat
        for j in range(self.d - 1, -1, -1):
            out[..., j] = rem % self.side + self.origin[j]
            rem = rem // self.side
        return out

    def flat_of(self, coords) -> np.ndarray:
        """Flat indices for absolute coordinates; raises VertexOutOfBox."""
        coords = np.asarray(coords, dtype=np.int64)
        rel = coords - np.asarray(self.origin, dtype=np.int64)
        if np.any(rel < 0) or np.any(rel >= self.side):
            raise VertexOutOfBox(f"coordinates {coords.tolist()} outside box")
        flat = np.zeros(coords.shape[:-1], dtype=np.int64)
        for j in range(self.d):
            flat = flat * self.side + rel[..., j]
        return flat

    def all_coords(self) -> np.ndarray:
        return self.coords_of(np.arange(self.vertex_count, dtype=np.int64))

    @property
    def diameter(self) -> float:
        return math.sqrt(self.d) * (self.side - 1)


@dataclass(eq=False)
class BoxRealization:
    """One sampled percolation configuration on a finite box.

    `edges` is an (E, 2) int64 array of flat vertex indices in canonical
    order (i < j within each row, rows lexicographically sorted).
    `weights` is None for the LRP kind.  Arrays are treated as immutable
    after construction.
    """

    spec: BoxSpec
    params: ModelParams
    seed: int
    weights: np.ndarray | None
    edges: np.ndarray
    trunc: float | None = None
    trunc_bias: float | None = None
    _adjacency: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def n_vertices(self) -> int:
        return self.spec.vertex_count

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> tuple:
        """(indptr, indices) CSR arrays, neighbour lists sorted per vertex."""
        if self._adjacency is None:
            n = self.n_vertices
            if self.n_edges == 0:
                indptr = np.zeros(n + 1, dtype=np.int64)
                indices = np.empty(0, dtype=np.int64)
            else:
                src = np.concatenate([self.edges[:, 0], self.edges[:, 1]])
                dst = np.concatenate([self.edges[:, 1], self.edges[:, 0]])
                order = np.lexsort((dst, src))
                indices = dst[order]
                counts = np.bincount(src, minlength=n)
                indptr = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(counts, out=indptr[1:])
            self._adjacency = (indptr, indices)
        return self._adjacency

    def degrees(self) -> np.ndarray:
        indptr, _ = self.adjacency()
        return np.diff(indptr)

    def has_edge(self, i: int, j: int) -> bool:
        indptr, indices = self.adjacency()
        nbrs = indices[indptr[i]:indptr[i + 1]]
        pos = np.searchsorted(nbrs, j)
        return pos < len(nbrs) and nbrs[pos] == j


# ---------------------------------------------------------------------------
# Offset enumeration
# ---------------------------------------------------------------------------

def _canonical_offsets(d: int, side: int, cutoff: float | None):
    """Yield the offsets delta != 0 with |delta| <= cutoff, first nonzero > 0.

    For row-major flat indices, canonical offsets give flat(x) <
    flat(x + delta), so emitted pairs are already in canonical order.
    Offsets come lazily in lexicographic order, and each coordinate range
    is bounded by the radius the prefix leaves, so the walk visits no
    offset outside the ball.
    """
    lim = side - 1
    r2max = None  # integer bound on |delta|^2; None when the ball covers the box
    if cutoff is not None and float(cutoff) ** 2 < d * lim * lim:
        r2max = math.floor(float(cutoff) ** 2)

    # First nonzero coordinate must be positive: walk axes, keeping the
    # prefix all-zero until a positive coordinate is placed.
    def rec(prefix, sumsq, still_zero):
        if len(prefix) == d:
            if not still_zero:
                yield tuple(prefix)
            return
        c = lim if r2max is None else min(lim, math.isqrt(r2max - sumsq))
        for dj in range(0 if still_zero else -c, c + 1):
            yield from rec(prefix + [dj], sumsq + dj * dj, still_zero and dj == 0)

    return rec([], 0, True)


def _offset_pair_count(side: int, delta) -> int:
    n = 1
    for dj in delta:
        n *= side - abs(dj)
    return n


def _base_arrays(spec: BoxSpec, delta):
    """Flat indices and absolute coordinate columns of pair bases for an offset."""
    L, d = spec.side, spec.d
    if d == 1:
        r = delta[0]
        base = np.arange(0, L - r, dtype=np.int64)
        xcols = (base + spec.origin[0],)
        return base, xcols
    axes = []
    for j, dj in enumerate(delta):
        lo = max(0, -dj)
        hi = L - max(0, dj)
        axes.append(np.arange(lo, hi, dtype=np.int64))
    grids = np.meshgrid(*axes, indexing="ij")
    flat = np.zeros(grids[0].size, dtype=np.int64)
    xcols = []
    for j in range(d):
        g = grids[j].ravel()
        flat = flat * L + g
        xcols.append(g + spec.origin[j])
    return flat, tuple(xcols)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _generate(params: ModelParams, seed: int, spec: BoxSpec,
              cutoff: float | None, pair_budget: int,
              weights_override: np.ndarray | None = None) -> BoxRealization:
    if spec.d != params.d:
        raise ValueError(f"spec dimension {spec.d} != params dimension {params.d}")
    if cutoff is not None:
        if not cutoff >= 1:
            raise RadiusTooSmall(f"cutoff must be >= 1, got {cutoff}")
        cutoff = float(cutoff)
    # The pair budget is enforced before the work it guards: in closed form
    # without a cutoff, otherwise as the offsets are produced.
    n = spec.vertex_count
    too_large = BoxTooLarge(f"more than {pair_budget} pairs to decide; reduce the box, "
                            f"lower the cutoff, or raise the pair budget")
    if cutoff is None and n * (n - 1) // 2 > pair_budget:
        raise too_large
    offsets, total_pairs = [], 0
    for delta in _canonical_offsets(spec.d, spec.side, cutoff):
        total_pairs += _offset_pair_count(spec.side, delta)
        if total_pairs > pair_budget:
            raise too_large
        offsets.append(delta)

    lam, alpha, kind = params.lambda_, params.alpha, params.kind
    lrp = kind is ModelKind.LRP
    if weights_override is not None:
        weights = np.asarray(weights_override, dtype=np.float64)
        if weights.shape != (spec.vertex_count,):
            raise ValueError("weights override has wrong shape")
    elif lrp:
        weights = None
    else:
        weights = vertex_weights(seed, spec.all_coords(), params.tau)
        weights.setflags(write=False)

    strides = [spec.side ** (spec.d - 1 - j) for j in range(spec.d)]
    eis, ejs = [], []
    for delta in offsets:
        base, xcols = _base_arrays(spec, delta)
        if base.size == 0:
            continue
        r2 = sum(dj * dj for dj in delta)
        jump = sum(dj * s for dj, s in zip(delta, strides))
        if kind is ModelKind.SFP_NN and r2 == 1:
            sel = base
        else:
            ycols = tuple(c + dj for c, dj in zip(xcols, delta))
            u = keyed_uniforms(seed, TAG_EDGE, *xcols, *ycols)
            scale = lam * float(r2) ** (-alpha / 2.0)
            if lrp and weights is None:
                # Same ufunc as the weighted branch so that forced-unit-weight
                # realizations coincide with LRP bit for bit.
                p = float(-np.expm1(-np.float64(scale)))
                sel = base[u < p]
            else:
                t = scale * weights[base] * weights[base + jump]
                cand = np.nonzero(u < np.minimum(t, 1.0))[0]
                if cand.size:
                    keep = u[cand] < -np.expm1(-t[cand])
                    sel = base[cand[keep]]
                else:
                    sel = base[:0]
        if sel.size:
            eis.append(sel)
            ejs.append(sel + jump)

    if eis:
        ei = np.concatenate(eis)
        ej = np.concatenate(ejs)
        order = np.lexsort((ej, ei))
        edges = np.stack([ei[order], ej[order]], axis=1)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    edges.setflags(write=False)

    bias = None
    if cutoff is not None:
        bias = 0.0
        if cutoff < spec.diameter:
            w_for_bias = weights if weights is not None \
                else np.ones(spec.vertex_count, dtype=np.float64)
            bias = _truncation_bias(spec, params, w_for_bias, cutoff)

    return BoxRealization(spec=spec, params=params, seed=seed, weights=weights,
                          edges=edges, trunc=cutoff, trunc_bias=bias)


def generate_box(params: ModelParams, seed: int, spec: BoxSpec,
                 cutoff: float | None = None, pair_budget: int = DEFAULT_PAIR_BUDGET,
                 _weights_override: np.ndarray | None = None) -> BoxRealization:
    """Sample the realization on every vertex pair within Euclidean distance `cutoff`.

    Deterministic in (params, seed, spec).  With cutoff None every pair
    is decided; otherwise pairs beyond the cutoff are never opened, the
    decisions inside it agree bit for bit with the full box, and the
    realization records the union-bound truncation bias.  Raises
    RadiusTooSmall for a cutoff below 1, and BoxTooLarge when the pairs
    to decide exceed the pair budget.
    """
    return _generate(params, seed, spec, cutoff, pair_budget, _weights_override)


def generate_box_truncated(params: ModelParams, seed: int, spec: BoxSpec,
                           cutoff: float, pair_budget: int = DEFAULT_PAIR_BUDGET,
                           _weights_override: np.ndarray | None = None) -> BoxRealization:
    """`generate_box` with a required cutoff; kept for the benchmark checks."""
    return generate_box(params, seed, spec, cutoff, pair_budget, _weights_override)


def coupled_pair(params: ModelParams, seed: int, spec: BoxSpec,
                 cutoff: float | None = None):
    """The (SFP, LRP) pair built from the same keyed uniforms.

    Edge-by-edge domination holds by construction: W >= 1 makes every
    LRP-open uniform also SFP-open.
    """
    return tuple(generate_box(replace(params, kind=kind), seed, spec, cutoff)
                 for kind in (ModelKind.SFP, ModelKind.LRP))


# ---------------------------------------------------------------------------
# Truncation bias
# ---------------------------------------------------------------------------

def _lag_weight_sums(weights_grid: np.ndarray):
    """Autocorrelation C[delta] = sum_x W_x W_{x+delta} for all lattice lags."""
    shape = weights_grid.shape
    padded = [sfft.next_fast_len(2 * s - 1) for s in shape]
    F = sfft.rfftn(weights_grid, s=padded)
    corr = sfft.irfftn(F * np.conj(F), s=padded)
    return corr, padded


def _truncation_bias(spec: BoxSpec, params: ModelParams,
                     weights: np.ndarray, cutoff: float) -> float:
    """Exact sum of min(1, lambda W_x W_y r^-alpha) over pairs with r > cutoff.

    The unsaturated part is lambda * sum_{lags r>R} r^-alpha C[lag] via FFT;
    pairs whose bound saturates at 1 (both weights large) are corrected
    individually.  FFT round-off is ~1e-12 relative, negligible for a
    bias diagnostic.
    """
    L, d = spec.side, spec.d
    lam, alpha = params.lambda_, params.alpha
    grid = weights.reshape((L,) * d)
    corr, padded = _lag_weight_sums(grid)

    if d == 1:
        lags = np.arange(1, L, dtype=np.int64)
        c = corr[1:L]
        r = lags.astype(np.float64)
        mask = r > cutoff
        raw = lam * np.sum(r[mask] ** -alpha * c[mask])
    else:
        # Collect C over canonical lags offset by offset (boxes with d >= 2
        # are small under the pair budget, so this loop is cheap).
        raw = 0.0
        for delta in _canonical_offsets(d, L, None):
            r2 = sum(x * x for x in delta)
            if r2 <= cutoff * cutoff:
                continue
            idx = tuple(dj % padded[j] for j, dj in enumerate(delta))
            raw += float(r2) ** (-alpha / 2.0) * corr[idx]
        raw *= lam

    # Saturation correction: any pair with lambda W_x W_y r^-alpha > 1 and
    # r > cutoff needs min(1, t) = 1 instead of t.  Such a pair has
    # max(W_x, W_y) > sqrt(cutoff^alpha / lambda).
    sat_product = cutoff ** alpha / lam
    wmax = float(weights.max())
    correction = 0.0
    if wmax * wmax > sat_product:
        hi = np.nonzero(weights > math.sqrt(sat_product))[0]
        coords = spec.all_coords().astype(np.float64)
        for x in hi:
            dvec = coords - coords[x]
            r = np.sqrt(np.sum(dvec * dvec, axis=1))
            far = r > cutoff
            t = lam * weights[x] * weights[far] * r[far] ** -alpha
            sat = t > 1.0
            correction += float(np.sum(1.0 - t[sat]))
        # Pairs with both endpoints in the high set were visited twice.
        for a_idx in range(len(hi)):
            for b_idx in range(a_idx + 1, len(hi)):
                a, b = hi[a_idx], hi[b_idx]
                rv = coords[a] - coords[b]
                r = math.sqrt(float(np.dot(rv, rv)))
                if r > cutoff:
                    t = lam * weights[a] * weights[b] * r ** -alpha
                    if t > 1.0:
                        correction -= 1.0 - t
    return float(raw + correction)


# ---------------------------------------------------------------------------
# Structural queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Clusters:
    """Partition into open clusters; labels are root flat indices.

    The label of a vertex is the smallest flat index in its cluster
    (flat order is lexicographic coordinate order).  `largest` is the
    label of the largest cluster, smallest root winning ties.
    """

    labels: np.ndarray
    largest: int
    sizes: dict

    def largest_mask(self) -> np.ndarray:
        return self.labels == self.largest


def clusters(r: BoxRealization) -> Clusters:
    n = r.n_vertices
    if r.n_edges == 0:
        labels = np.arange(n, dtype=np.int64)
        return Clusters(labels=labels, largest=0, sizes={i: 1 for i in range(n)})
    data = np.ones(2 * r.n_edges, dtype=np.int8)
    rows = np.concatenate([r.edges[:, 0], r.edges[:, 1]])
    cols = np.concatenate([r.edges[:, 1], r.edges[:, 0]])
    m = csr_matrix((data, (rows, cols)), shape=(n, n))
    ncomp, comp = connected_components(m, directed=False)
    roots = np.full(ncomp, n, dtype=np.int64)
    np.minimum.at(roots, comp, np.arange(n, dtype=np.int64))
    counts = np.bincount(comp, minlength=ncomp)
    labels = roots[comp]
    biggest = counts.max()
    largest = int(roots[counts == biggest].min())
    sizes = {int(root): int(cnt) for root, cnt in zip(roots, counts)}
    return Clusters(labels=labels, largest=largest, sizes=sizes)


def _gather_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate arange(s, s+c) for each (s, c); vectorized."""
    nonzero = counts > 0
    starts, counts = starts[nonzero], counts[nonzero]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(counts)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(out)


def distances_from(r: BoxRealization, source: int) -> np.ndarray:
    """BFS hop counts from a flat source to every vertex (-1 unreachable)."""
    indptr, indices = r.adjacency()
    n = r.n_vertices
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        nbrs = indices[_gather_ranges(starts, counts)]
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        frontier = np.unique(nbrs)
        level += 1
        dist[frontier] = level
    return dist


def degree_sequence(r: BoxRealization, margin: int = 0) -> np.ndarray:
    """Degrees of vertices at L-infinity distance >= margin from the boundary."""
    L = r.spec.side
    if not 0 <= margin < L / 2:
        raise MarginTooLarge(f"margin must satisfy 0 <= m < L/2, got {margin}")
    deg = r.degrees()
    if margin == 0:
        return deg
    rel = r.spec.all_coords() - np.asarray(r.spec.origin, dtype=np.int64)
    interior = np.all((rel >= margin) & (rel <= L - 1 - margin), axis=1)
    return deg[interior]


# ---------------------------------------------------------------------------
# Serialization (realization file v1)
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def _record_text(fmt: str, columns, chunk: int = 1 << 16):
    """One `fmt` line per row of the columns, %-formatted a chunk of rows at a time."""
    for s in range(0, len(columns[0]), chunk):
        rows = zip(*(c[s:s + chunk].tolist() for c in columns))
        values = tuple(itertools.chain.from_iterable(rows))
        yield (fmt * (len(values) // len(columns))) % values


def save_realization(r: BoxRealization, path) -> None:
    """Write the text format v1; weights in shortest round-trip decimals."""
    meta = (f"d={r.spec.d} alpha={_fmt(r.params.alpha)} lambda={_fmt(r.params.lambda_)} "
            f"tau={_fmt(r.params.tau)} model={r.params.kind.value} L={r.spec.side} "
            f"seed={r.seed}")
    if any(c != 0 for c in r.spec.origin):
        meta += " origin=" + ",".join(str(c) for c in r.spec.origin)
    if r.trunc is not None:
        meta += f" trunc={_fmt(r.trunc)}"
        if r.trunc_bias is not None:
            meta += f" truncbias={_fmt(r.trunc_bias)}"
    parts = [f"{FORMAT_HEADER}\n{meta}\n"]
    d = r.spec.d
    if r.weights is not None:
        # %r of a Python float is repr(float), the same text as _fmt.
        parts += _record_text("w" + " %d" * d + " %r\n", [*r.spec.all_coords().T, r.weights])
    ends = r.spec.coords_of(r.edges)  # (E, 2, d)
    parts += _record_text("e" + " %d" * (2 * d) + "\n", list(ends.reshape(-1, 2 * d).T))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(parts))


def _outside_box(spec: BoxSpec, coords: np.ndarray, line_nos, per_record: int):
    """ParseError for the first record with a vertex outside the box, or None.

    `coords` holds `per_record` vertices (rows) per record, records in
    file order; `line_nos[k]` is the line of record k.
    """
    rel = coords - np.asarray(spec.origin, dtype=np.int64)
    out = np.flatnonzero(np.any((rel < 0) | (rel >= spec.side), axis=1))
    if out.size == 0:
        return None
    k = int(out[0])
    return ParseError(line_nos[k // per_record], f"coordinates {coords[k].tolist()} outside box")


def _missing_nn_edge(spec: BoxSpec, edges: np.ndarray):
    """The first lattice-neighbour pair (lo, hi) absent from the sorted edges, or None."""
    n, side = spec.vertex_count, spec.side
    flat = np.arange(n, dtype=np.int64)
    lo, hi = [], []
    for j in range(spec.d):
        stride = side ** (spec.d - 1 - j)
        x = flat[flat // stride % side < side - 1]
        lo.append(x)
        hi.append(x + stride)
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    want = lo * n + hi
    # Keys are ascending because the edges are lexsorted; the sentinel n*n
    # exceeds every wanted key, so each search lands on a valid slot.
    keys = np.append(edges[:, 0] * n + edges[:, 1], n * n)
    gone = np.flatnonzero(keys[np.searchsorted(keys, want)] != want)
    return None if gone.size == 0 else (int(lo[gone[0]]), int(hi[gone[0]]))


def _record_fault(parts: list, d: int, weighted: bool) -> str:
    """Why a record line with these fields is not a well-formed record."""
    tag = parts[0]
    if tag == "w" and not weighted:
        return "weight line in a weightless model"
    if tag in ("w", "e"):
        want = d + 2 if tag == "w" else 2 * d + 1
        return f"expected {want} fields, got {len(parts)}"
    return f"unknown record type {tag!r}"


def load_realization(path) -> BoxRealization:
    """Parse the text format v1 back into a BoxRealization (bit-exact).

    Records may come in any order and their fields may be separated by
    any whitespace; blank lines are skipped.  Rejects, with the offending
    line number: unknown metadata keys, malformed records, coordinates
    outside the box, weights that are not finite or below 1, a second
    weight for a vertex, self-loops, edges whose lower endpoint (in flat
    order) is not written first, and duplicate edges.  Missing weights,
    and for sfpnn a missing nearest-neighbour edge, are reported at the
    line after the last.

    One Python pass appends the fields of each record, and its line
    number, to typed buffers; every check then runs in numpy.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != FORMAT_HEADER:
        got = lines[0] if lines else "<empty file>"
        raise FormatVersionMismatch(f"expected {FORMAT_HEADER!r}, got {got!r}")
    if len(lines) < 2:
        raise ParseError(2, "missing metadata line")

    meta = {}
    for tok in lines[1].split():
        if "=" not in tok:
            raise ParseError(2, f"bad metadata token {tok!r}")
        k, v = tok.split("=", 1)
        if k not in _META_KEYS:
            raise ParseError(2, f"unknown metadata key {k!r}")
        meta[k] = v
    try:
        d = int(meta["d"])
        side = int(meta["L"])
        kind = ModelKind.parse(meta["model"])
        params = ModelParams(d=d, alpha=float(meta["alpha"]),
                             lambda_=float(meta["lambda"]),
                             tau=float(meta["tau"]), kind=kind)
        seed = int(meta["seed"])
        origin = tuple(int(c) for c in meta["origin"].split(",")) if "origin" in meta else None
        spec = BoxSpec(d=d, side=side, origin=origin)
        if spec.vertex_count >= 2 ** 63 or not all(-2 ** 63 <= c <= 2 ** 63 - side
                                                    for c in spec.origin):
            raise ValueError("box does not fit 64-bit vertex coordinates and indices")
        trunc = float(meta["trunc"]) if "trunc" in meta else None
        trunc_bias = float(meta["truncbias"]) if "truncbias" in meta else None
    except KeyError as exc:
        raise ParseError(2, f"missing metadata key {exc.args[0]}") from exc
    except ValueError as exc:
        raise ParseError(2, str(exc)) from exc

    weighted = kind is not ModelKind.LRP
    w_fields, e_fields = d + 2, 2 * d + 1
    w_coords, w_values, w_lines = array("q"), array("d"), array("q")
    e_coords, e_lines = array("q"), array("q")
    failure = None
    for ln, line in enumerate(itertools.islice(lines, 2, None), start=3):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        try:
            if tag == "e" and len(parts) == e_fields:
                e_coords.extend(map(int, parts[1:]))
                e_lines.append(ln)
            elif tag == "w" and weighted and len(parts) == w_fields:
                w_coords.extend(map(int, parts[1:-1]))
                w_values.append(float(parts[-1]))
                w_lines.append(ln)
            else:
                failure = ParseError(ln, _record_fault(parts, d, weighted))
                break
        except (ValueError, OverflowError) as exc:
            failure = ParseError(ln, str(exc))
            break

    # A record that failed part-way may have left fields in a buffer:
    # keep whole records only.
    wc = np.frombuffer(w_coords, dtype=np.int64)[:len(w_lines) * d].reshape(-1, d)
    ec = np.frombuffer(e_coords, dtype=np.int64)[:len(e_lines) * 2 * d].reshape(-1, d)
    # Every buffered record precedes a failed line, so the first fault in
    # file order is the least line among these.
    faults = [f for f in (failure, _outside_box(spec, wc, w_lines, 1),
                          _outside_box(spec, ec, e_lines, 2)) if f is not None]
    if faults:
        raise min(faults, key=lambda f: f.line_number)

    weights = None
    if weighted:
        values = np.frombuffer(w_values, dtype=np.float64)
        bad = np.flatnonzero(~((values >= 1.0) & (values < math.inf)))
        if bad.size:
            ln = w_lines[int(bad[0])]
            raise ParseError(ln, f"weight {lines[ln - 1].split()[-1]} is not finite and >= 1")
        flat = spec.flat_of(wc)
        order = np.argsort(flat, kind="stable")
        repeat = np.flatnonzero(flat[order[1:]] == flat[order[:-1]])
        if repeat.size:
            k = int(order[repeat + 1].min())
            raise ParseError(w_lines[k], f"duplicate weight for vertex {wc[k].tolist()}")
        missing = spec.vertex_count - len(flat)
        if missing:
            raise ParseError(len(lines) + 1, f"{missing} vertex weights missing (truncated file?)")
        weights = values[order]
        weights.setflags(write=False)

    pairs = spec.flat_of(ec).reshape(-1, 2)
    bad = np.flatnonzero(pairs[:, 0] >= pairs[:, 1])
    if bad.size:
        k = int(bad[0])
        raise ParseError(e_lines[k], "self-loop" if pairs[k, 0] == pairs[k, 1]
                         else "edge endpoints reversed (lower endpoint must come first)")
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    edges = pairs[order]
    dup = np.flatnonzero(np.all(edges[1:] == edges[:-1], axis=1))
    if dup.size:
        k = int(np.maximum(order[dup], order[dup + 1]).min())
        raise ParseError(e_lines[k], "duplicate edge")
    if kind is ModelKind.SFP_NN:
        gap = _missing_nn_edge(spec, edges)
        if gap is not None:
            a, b = spec.coords_of(np.array(gap)).tolist()
            raise ParseError(len(lines) + 1, f"missing nearest-neighbour edge {a} {b}")
    edges.setflags(write=False)
    return BoxRealization(spec=spec, params=params, seed=seed, weights=weights,
                          edges=edges, trunc=trunc, trunc_bias=trunc_bias)
