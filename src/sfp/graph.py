"""Finite-box realizations of scale-free / long-range percolation.

A realization samples, for one box {0,...,L-1}^d (optionally shifted by
an origin offset), the keyed vertex weights and the open/closed status
of every vertex pair: the edge {x, y} is open iff its keyed uniform is
below p_xy = 1 - exp(-lambda W_x W_y / |x-y|^alpha).  The three model
kinds share that one rule: LRP is SFP with unit weights, and SFP_NN is
SFP with an infinite intensity on nearest-neighbour pairs, so they are
open whatever their uniform.  Because the uniforms are keyed by the
unordered pair, SFP and LRP realizations built from the same seed are
exactly coupled: every open LRP edge is open in SFP.

`generate_box` is the one entry point.  Without a cutoff it enumerates
all pairs (O(L^2d), guarded by a pair budget that is checked before any
work).  With `cutoff=R` it considers only pairs within Euclidean
distance R; decisions inside R are bit-identical to the exact box, and
the realization records the union-bound bias
sum_{|x-y|>R} min(1, lambda W_x W_y |x-y|^-alpha) for the pairs it never
looked at (computed exactly via FFT lag sums plus a saturation
correction for the rare pairs whose bound clips at 1).  `coupled_pair`
generates the SFP box of a seed and decides the LRP box of the same
seed among its edges only, by the same rule.

Clusters come from the edge array, and hop counts from a bit-parallel
multi-source BFS over cached CSR arrays: the module uses numpy alone.

`save_realization` and `load_realization` write and read the text
format v1 _CHUNK_LINES record lines at a time in numpy.  A load finds
where each chunk ends in one pass, then reads each in one read and
parses it straight into the final arrays, so it holds them and a few
chunks, whatever the line ends, separators or record order.  Only a
chunk that numpy cannot parse as Python would takes a per-line loop.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import re
import signal
from array import array
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .params import DEFAULT_PAIR_BUDGET, MAX_WORKERS, ModelKind, ModelParams, ParameterError
from .randomness import (TAG_EDGE, absorb, keyed_words, unit_from_word,
                         unit_lower_bound, vertex_weights)

FORMAT_HEADER = "#sfp-box v1"
_META_KEYS = {"d", "alpha", "lambda", "tau", "model", "L", "seed", "origin", "trunc", "truncbias"}


class VertexOutOfBox(ValueError):
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
        # The one bound on a box: its coordinates and pair keys (`_pair_keys`) fit int64.
        # Every d >= 32 has n^2 >= 2^64, and n = side^d is not computed there.
        if (n := self.vertex_count if self.d < 32 else math.inf) ** 2 >= 2 ** 63:
            shown = n if n < 2 ** 64 else f"{self.side}^{self.d}"  # str(n) may be too long
            raise ParameterError(f"a box of {shown} vertices is too large: pairs of its flat "
                                 f"indices are sorted by int64 keys, which need n^2 < 2^63")
        if not all(-2 ** 63 <= c <= 2 ** 63 - self.side for c in origin):
            raise ParameterError(f"origin {list(origin)} puts coordinates outside int64")

    @property
    def vertex_count(self) -> int:
        return self.side ** self.d

    @property
    def strides(self) -> tuple:
        """The flat-index step of +1 along each axis (row-major), as Python ints."""
        return tuple(self.side ** (self.d - 1 - j) for j in range(self.d))

    def coords_of(self, flat) -> np.ndarray:
        """Absolute lattice coordinates for flat indices (row-major), shape (..., d)."""
        flat = np.asarray(flat, dtype=np.int64)
        out = np.empty(flat.shape + (self.d,), dtype=np.int64)
        for j, (stride, o) in enumerate(zip(self.strides, self.origin)):
            out[..., j] = flat // stride % self.side + o
        return out

    def flat_of(self, coords) -> np.ndarray:
        """Flat indices for absolute coordinates; raises VertexOutOfBox, also past int64."""
        try:
            coords = np.asarray(coords, dtype=np.int64)
        except OverflowError:
            raise VertexOutOfBox(f"coordinates {np.asarray(coords).tolist()} outside box") from None
        rel = coords - np.asarray(self.origin, dtype=np.int64)
        if np.any(rel < 0) or np.any(rel >= self.side):
            raise VertexOutOfBox(f"coordinates {coords.tolist()} outside box")
        return np.ravel_multi_index(np.moveaxis(rel, -1, 0), (self.side,) * self.d)

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
        """The symmetric CSR arrays (indptr, indices), int64, built on first use and cached.

        The neighbours of v are indices[indptr[v]:indptr[v + 1]], in
        increasing order: the arcs (v, u) of both directions of every edge
        are sorted by their keys v * n + u (`_pair_keys`), which order them
        by v and then u, and indices = key % n.  Only `distances_from` reads
        the arrays; treat them as immutable.
        """
        if self._adjacency is None:
            n = self.n_vertices
            lo, hi = self.edges[:, 0], self.edges[:, 1]
            key = np.sort(np.concatenate([_pair_keys(hi, lo, n), _pair_keys(lo, hi, n)]))
            indptr = np.concatenate([[0], np.cumsum(self.degrees())])
            indices = key % n
            for a in (indptr, indices):
                a.setflags(write=False)
            self._adjacency = indptr, indices
        return self._adjacency

    def degrees(self) -> np.ndarray:
        """Degree of every vertex (int64), counted from the edges; builds no matrix."""
        return np.bincount(self.edges.ravel(), minlength=self.n_vertices)

    def has_edges(self, pairs) -> np.ndarray:
        """Whether each row (i, j), i < j, of `pairs` is an open edge: one bool per row.

        The rows' keys (`_pair_keys`) are searched among the edges' keys,
        which increase.  A key names one pair only within [0, n)^2, so a row
        outside it, whose key may wrap or name another pair, is False; so is
        a reversed row, whose key no edge has.
        """
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        n = self.n_vertices
        keys, want = _pair_keys(*self.edges.T, n), _pair_keys(*pairs.T, n)
        pos = np.searchsorted(keys, want)
        hit = pos < self.n_edges
        hit[hit] = keys[pos[hit]] == want[hit]
        return hit & np.all(pairs.view(np.uint64) < n, axis=1)  # a negative index is past n


# ---------------------------------------------------------------------------
# Offset enumeration
# ---------------------------------------------------------------------------

def _offset_runs(d: int, side: int, cutoff: float | None):
    """Yield the offsets delta != 0 with |delta| <= cutoff, first nonzero > 0, as runs.

    A run (lead, r_lo, r_hi) stands for the offsets (*lead, r) with
    r_lo <= r < r_hi: one per prefix `lead` of the first d - 1
    coordinates.  For row-major flat indices, these canonical offsets
    give flat(x) < flat(x + delta).  Runs come lazily in lexicographic
    order, and each coordinate range is bounded by the radius the prefix
    leaves, so the walk visits no offset outside the ball.
    """
    lim = side - 1
    r2max = None  # integer bound on |delta|^2; None when the ball covers the box
    if cutoff is not None and float(cutoff) ** 2 < d * lim * lim:
        r2max = math.floor(float(cutoff) ** 2)

    # The first nonzero coordinate must be positive: while the prefix is
    # all zero, the next coordinate starts at 0, and the last one at 1.
    def rec(lead, sumsq, still_zero):
        c = lim if r2max is None else min(lim, math.isqrt(r2max - sumsq))
        if len(lead) == d - 1:
            yield tuple(lead), 1 if still_zero else -c, c + 1
            return
        for dj in range(0 if still_zero else -c, c + 1):
            yield from rec(lead + [dj], sumsq + dj * dj, still_zero and dj == 0)

    return rec([], 0, True)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _generate(params: ModelParams, seed: int, spec: BoxSpec,
              cutoff: float | None, pair_budget: int,
              weights_override: np.ndarray | None = None, workers: int = 1,
              candidates: np.ndarray | None = None) -> BoxRealization:
    if spec.d != params.d:
        raise ValueError(f"spec dimension {spec.d} != params dimension {params.d}")
    if not 1 <= workers <= MAX_WORKERS:
        raise ParameterError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    if cutoff is not None:
        if not cutoff >= 1:
            raise ParameterError(f"cutoff must be >= 1, got {cutoff}")
        cutoff = float(cutoff)
    # The pair budget is enforced before the work it guards: in closed form
    # without a cutoff, otherwise as the runs of offsets are produced.
    L, n = spec.side, spec.vertex_count
    too_large = ParameterError(f"more than {pair_budget} pairs to decide; reduce the box, "
                               f"lower the cutoff, or raise the pair budget")
    if cutoff is None and n * (n - 1) // 2 > pair_budget:
        raise too_large
    runs, total_pairs = [], 0
    for lead, r_lo, r_hi in _offset_runs(spec.d, L, cutoff):
        rows = range(r_lo, r_hi)
        total_pairs += (math.prod(L - abs(dj) for dj in lead)
                        * (len(rows) * L - sum(map(abs, rows))))
        if total_pairs > pair_budget:
            raise too_large
        runs.append((lead, r_lo, r_hi))

    if weights_override is not None:
        weights = np.asarray(weights_override, dtype=np.float64)
        if weights.shape != (spec.vertex_count,):
            raise ValueError("weights override has wrong shape")
    elif params.kind is ModelKind.LRP:
        weights = None
    else:
        weights = vertex_weights(seed, spec.all_coords(), params.tau)
        weights.setflags(write=False)
    # LRP is decided, and its bias summed, with unit weights; the
    # realization still records no weights for it.
    unit = np.ones(n, dtype=np.float64) if weights is None else weights
    if candidates is None:
        edges = _open_pairs(params, seed, spec, runs, unit, workers)
    else:
        edges = _open_candidates(params, seed, spec, candidates)

    bias = None
    if cutoff is not None:
        bias = 0.0
        if cutoff < spec.diameter:
            bias = _truncation_bias(spec, params, unit, cutoff)

    return BoxRealization(spec=spec, params=params, seed=seed, weights=weights,
                          edges=edges, trunc=cutoff, trunc_bias=bias)


# Pairs hashed per block.  Of 2^14 .. 2^18, 2^16 was fastest on a 2-core
# Xeon with 2 MiB of L2 per core: the block's four buffers (1.6 MB) stay
# in L2 through the dozen passes made over them.
_BLOCK_PAIRS = 1 << 16


def _pair_blocks(side: int, runs):
    """Cut the runs of offsets (`_offset_runs`) into blocks of about _BLOCK_PAIRS pairs.

    A block is (lead, rows, cols): offsets (*lead, r) for r in `rows`, a
    piece of one run, and lower endpoints whose last coordinate is in
    `cols` (the union of the rows' ranges, possibly one piece of it).
    Rows shorter than the block are stacked, at the cost of hashing the
    ragged corner where x + delta leaves the box; a stack holds at most
    a quarter as many rows as a row has pairs, so the corner is at most
    an eighth of the block.
    """
    for lead, r_lo, r_hi in runs:
        lead_n = math.prod(side - abs(dj) for dj in lead)
        r0 = r_lo
        while r0 < r_hi:
            ncols = side - abs(r0)
            k = max(1, min(_BLOCK_PAIRS // (lead_n * ncols), ncols // 4, r_hi - r0))
            c_lo, c_hi = max(0, -(r0 + k - 1)), side - max(0, r0)
            width = max(1, _BLOCK_PAIRS // (lead_n * k))
            for c0 in range(c_lo, c_hi, width):
                yield lead, range(r0, r0 + k), range(c0, min(c0 + width, c_hi))
            r0 += k


def _open_pairs(params: ModelParams, seed: int, spec: BoxSpec, runs,
                weights: np.ndarray, workers: int) -> np.ndarray:
    """The open pairs {x, x + delta}, delta in the `runs`, as a canonical (E, 2) array.

    Every pair of every model kind is decided by one rule: with
    t = lambda W_x W_y r^-alpha, it is open iff its uniform u satisfies
    u < -expm1(-t) = p_xy (`_opened`).  LRP passes unit weights.  For
    SFP_NN a nearest-neighbour row gets the scale inf, so t = inf and
    u < 1 holds for every uniform: those pairs are forced open.  The
    decisions are those of `uniform_for_edge` and `weight_for_vertex`,
    bit for bit, at a fraction of the cost:

    - The edge hash absorbs the lower endpoint's coordinates first, so
      that state is computed once per vertex (`prefix`).  The partner's
      coordinates follow, the lead ones (all but the last) first: for
      d >= 2 their state does not depend on the last offset, so a piece
      absorbs them once per lead, over the lead's whole sub-box of lower
      endpoints, into a cache of at most n words.  Per block of pairs
      only the partners' last coordinates are absorbed, in place, into
      buffers reused across blocks.  A block is a sub-box of lower
      endpoints times a run of offsets (`_pair_blocks`), so every
      operand is a strided view or a broadcast coordinate axis; nothing
      is gathered.
    - A pair can open only if u < t.  The cheap lower bound
      `unit_lower_bound` <= u discards almost every closed pair.  The
      partner weights read 0 outside the box, so t = 0 (or nan on a
      forced row) there and the ragged corner never survives.
    - A block keeps only its survivors' words, t and endpoint indices.
      The exact u and the comparison run on them in batches, once
      the held survivors reach _BLOCK_PAIRS and at the end of the
      piece, so the many small numpy calls per block become a few per
      batch, and a batch holds about one block's worth of survivors.
    - The block list is cut into one contiguous piece per worker, of
      about equal pair counts, each with its own buffers, and the pieces
      are decided in forked processes (`_map_forked`): a thread would
      hand the GIL back and forth at every small numpy call.  No block
      depends on the cut, and the closing sort orders the edges, so the
      array is the same bit for bit at any worker count.  A piece that
      starts in the middle of a lead absorbs that lead's state itself.
    - Each piece returns the int64 keys i * n + j of its edges
      (`_pair_keys`); one unstable sort of all keys, exact since no two
      edges share a key, and divmod by n give the canonical array.
    """
    L, d, n = spec.side, spec.d, spec.vertex_count
    forced = params.kind is ModelKind.SFP_NN
    shape = (L,) * d
    prefix = keyed_words(seed, TAG_EDGE, *spec.all_coords().T).reshape(shape)
    # Coordinate k of axis j is origin[j] + k, as a hash word.  Partners
    # read the last axis through windows of width L: window L + c + r
    # starts at the partner of lower endpoint c at last offset r.  Ragged
    # blocks reach up to L - 1 before and 2L after the box, where partners
    # weigh 0.
    axes = [(np.arange(L, dtype=np.int64) + o).view(np.uint64) for o in spec.origin[:-1]]
    last = (np.arange(-L, 3 * L, dtype=np.int64) + spec.origin[-1]).view(np.uint64)
    y_words = sliding_window_view(last, L)
    wgrid = weights.reshape(shape)
    padded = np.pad(wgrid, [(0, 0)] * (d - 1) + [(L, 2 * L)], constant_values=0.0)
    y_weights = sliding_window_view(padded, L, axis=-1)
    strides = spec.strides

    def lead_size(lead):
        return math.prod(L - abs(dj) for dj in lead)

    def pairs(block):
        lead, rows, cols = block
        return lead_size(lead) * len(rows) * len(cols)

    blocks = list(_pair_blocks(L, runs))

    def decide(piece):
        keys = []
        most = max(map(pairs, piece))
        h, tmp = np.empty(most, np.uint64), np.empty(most, np.uint64)
        t_buf, cand = np.empty(most, np.float64), np.empty(most, np.bool_)
        held, n_held = [], 0  # survivors (words, t, lower, upper) per block
        if d > 1:
            sub = max(lead_size(lead) for lead, _, _ in piece) * L
            lead_buf, lead_tmp = np.empty(sub, np.uint64), np.empty(sub, np.uint64)
        state_lead = state = None

        def settle():
            w, t, lo, hi = map(np.concatenate, zip(*held))
            opened = _opened(unit_from_word(w), t)
            keys.append(_pair_keys(lo[opened], hi[opened], n))
            held.clear()

        for lead, rows, cols in piece:
            lead_lo = tuple(slice(max(0, -dj), L - max(0, dj)) for dj in lead)
            lead_hi = tuple(slice(max(0, dj), L - max(0, -dj)) for dj in lead)
            if lead != state_lead:
                # The hash after x and the lead coordinates of x + delta, for
                # the lead's whole lower sub-box: absorbed once per lead.
                state_lead, state = lead, prefix[lead_lo]
                for j in range(d - 1):
                    col = axes[j][lead_hi[j]].reshape([-1 if k == j else 1 for k in range(d)])
                    state = absorb(state, col, *(b[:state.size].reshape(state.shape)
                                                 for b in (lead_buf, lead_tmp)))
            block = tuple(s.stop - s.start for s in lead_lo) + (len(rows), len(cols))
            m = math.prod(block)
            x_cols = lead_lo + (slice(cols.start, cols.stop),)
            y_cols = (slice(L + cols.start + rows.start, L + cols.start + rows.stop),
                      slice(0, len(cols)))

            w, spare = h[:m].reshape(block), tmp[:m].reshape(block)
            absorb(state[..., None, cols.start:cols.stop], y_words[y_cols], w, spare)
            w = w.reshape(-1)
            bound = unit_lower_bound(w, tmp[:m]).reshape(block)

            lead_r2 = sum(dj * dj for dj in lead)
            scales = [math.inf if forced and lead_r2 + r * r == 1
                      else params.lambda_ * float(lead_r2 + r * r) ** (-params.alpha / 2.0)
                      for r in rows]
            t = t_buf[:m].reshape(block)
            # inf * 0, a forced row's partner outside the box, is nan: no
            # bound is below it.
            with np.errstate(invalid="ignore"):
                np.multiply(wgrid[x_cols][..., None, :], np.array(scales)[:, None], out=t)
                np.multiply(t, y_weights[lead_hi + y_cols], out=t)
            keep = np.flatnonzero(np.less(bound, t, out=cand[:m].reshape(block)))
            if keep.size == 0:
                continue
            # Lower endpoint x and upper x + delta as flat indices.
            *lead_i, hi, lo = np.unravel_index(keep, block)
            lo += sum(s.start * k for s, k in zip(lead_lo, strides)) + cols.start
            for i, k in zip(lead_i, strides):
                lo += i * k
            hi += lo
            hi += sum(dj * k for dj, k in zip(lead, strides)) + rows.start
            held.append((w[keep], t_buf[keep], lo, hi))
            n_held += keep.size
            if n_held >= _BLOCK_PAIRS:
                settle()
                n_held = 0
        if held:
            settle()
        return keys

    found = _map_forked(decide, blocks, [pairs(b) for b in blocks], workers)
    keys = [k for part in found for k in part]
    key = np.sort(np.concatenate(keys)) if keys else np.empty(0, np.int64)
    edges = np.stack(np.divmod(key, n), axis=1)
    edges.setflags(write=False)
    return edges


def _pair_keys(rows, cols, n: int) -> np.ndarray:
    """The int64 keys rows * n + cols of pairs of flat indices in [0, n): the
    one canonical order of edges, row first, then column.

    divmod(key, n) gives a pair back, and no two pairs share a key, so an
    unstable sort is exact.  The keys fit an int64, since `BoxSpec` holds
    n^2 < 2^63.
    """
    return rows * n + cols


def _opened(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Which pairs are open: u < -expm1(-t) = 1 - exp(-t), u the pair's uniform."""
    return u < -np.expm1(-t)


def _open_candidates(params: ModelParams, seed: int, spec: BoxSpec,
                     candidates: np.ndarray) -> np.ndarray:
    """The LRP-open rows of `candidates`, canonical pairs that hold every LRP edge.

    Each pair is decided as `_open_pairs` decides it with unit weights:
    its uniform from the keyed words of its endpoints' coordinates, lower
    first, and t = lambda r2^(-alpha/2) in Python floats, once per
    distinct squared distance r2.  So the result is the LRP box's edge
    array bit for bit whenever `candidates` contains it, as the SFP
    edges of the same seed and cutoff do.
    """
    ends = spec.coords_of(candidates)  # (E, 2, d)
    u = unit_from_word(keyed_words(seed, TAG_EDGE, *ends[:, 0].T, *ends[:, 1].T))
    r2 = np.sum((ends[:, 1] - ends[:, 0]) ** 2, axis=-1)
    t = params.lambda_ * _powers({}, r2, lambda v: float(v) ** (-params.alpha / 2.0))
    edges = candidates[_opened(u, t)]
    edges.setflags(write=False)
    return edges


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_forked(fn, items, sizes, workers: int) -> list:
    """[fn(group) for each group]: the first here, each other one in a forked child.

    `items` are cut into at most `workers` contiguous groups of about
    equal total `sizes`: item i goes to group workers * (sizes before
    item i) // (all sizes), and empty groups are dropped.  A child sends
    back fn's result, or the exception it raised, pickled through a pipe,
    and always leaves by os._exit, so it runs no exit handler and flushes
    no buffer it inherited.  A child that dies without a result, or
    raises what cannot be pickled, is a RuntimeError here.  Every child
    is killed and reaped before this returns or raises.  No items give [].
    """
    groups = [[] for _ in range(workers)]
    total = sum(sizes)
    for item, before in zip(items, itertools.accumulate(sizes, initial=0)):
        groups[workers * before // total].append(item)
    groups = [g for g in groups if g]
    if not groups:
        return []
    pids, readers = [], []
    try:
        for group in groups[1:]:
            r, w = os.pipe()
            readers.append(os.fdopen(r, "rb"))
            with os.fdopen(w, "wb") as out:
                pid = os.fork()
                if pid == 0:
                    try:
                        try:
                            result = (True, fn(group))
                        except BaseException as exc:  # raised again by the parent
                            result = (False, exc)
                        out.write(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
                        out.flush()
                    finally:
                        os._exit(0)
            pids.append(pid)
        found = [fn(groups[0])]
        for pid, r in zip(pids, readers):
            try:
                ok, value = pickle.load(r)
            except (EOFError, pickle.UnpicklingError) as exc:
                raise RuntimeError(f"worker process {pid} sent no result") from exc
            if not ok:
                raise value
            found.append(value)
        return found
    finally:
        for r in readers:
            r.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def generate_box(params: ModelParams, seed: int, spec: BoxSpec,
                 cutoff: float | None = None, pair_budget: int = DEFAULT_PAIR_BUDGET,
                 _weights_override: np.ndarray | None = None,
                 workers: int = 1) -> BoxRealization:
    """Sample the realization on every vertex pair within Euclidean distance `cutoff`.

    Deterministic in (params, seed, spec), whatever the number of
    `workers` processes that decide the pairs.  With cutoff None every pair
    is decided; otherwise pairs beyond the cutoff are never opened, the
    decisions inside it agree bit for bit with the full box, and the
    realization records the union-bound truncation bias.  Raises
    ParameterError for a cutoff below 1 or when the pairs to decide
    exceed the pair budget.
    """
    return _generate(params, seed, spec, cutoff, pair_budget, _weights_override, workers=workers)


generate_box_truncated = generate_box  # the name the benchmark checks call


def coupled_pair(params: ModelParams, seed: int, spec: BoxSpec,
                 cutoff: float | None = None, workers: int = 1):
    """The (SFP, LRP) pair built from the same keyed uniforms.

    Edge-by-edge domination holds by construction: W >= 1 makes every
    LRP-open uniform also SFP-open.  So the SFP box is generated by all
    `workers`, and LRP is decided only on its edges (`_open_candidates`):
    the same box as `generate_box` gives for LRP, bit for bit, bias
    included, without hashing every pair a second time.
    """
    sfp = generate_box(replace(params, kind=ModelKind.SFP), seed, spec, cutoff, workers=workers)
    lrp = _generate(replace(params, kind=ModelKind.LRP), seed, spec, cutoff, DEFAULT_PAIR_BUDGET,
                    workers=workers, candidates=sfp.edges)
    return sfp, lrp


# ---------------------------------------------------------------------------
# Truncation bias
# ---------------------------------------------------------------------------

# Each of 2, 3, 5, 7 and 11 to its highest power below 2^64, so every
# 11-smooth integer below 2^64 divides it and no other integer does.
_SMOOTH_64 = 2 ** 63 * 3 ** 40 * 5 ** 27 * 7 ** 22 * 11 ** 18


def _fast_len(n: int) -> int:
    """Least 11-smooth integer >= n, the FFT length each lag axis is padded to."""
    while _SMOOTH_64 % n:
        n += 1
    return n


def _lag_weight_sums(weights_grid: np.ndarray):
    """Autocorrelation C[delta] = sum_x W_x W_{x+delta} for all lattice lags.

    Transformed an axis at a time in scipy.fft's order (the real last
    axis first forward and last back, the others in increasing order),
    unscaled, with the whole 1/N applied once at the end, so the floats
    equal scipy.fft.irfftn's; numpy's irfftn (axes reversed, scaled per
    axis) does not match them.
    """
    d = weights_grid.ndim
    padded = [_fast_len(2 * s - 1) for s in weights_grid.shape]
    F = np.fft.rfft(weights_grid, n=padded[-1], axis=-1)
    for ax in range(d - 1):
        F = np.fft.fft(F, n=padded[ax], axis=ax)
    # One ufunc call, so numpy's temporary elision cannot turn it into conj(F) * F.
    F = np.multiply(F, np.conj(F), out=F)
    for ax in range(d - 1):
        F = np.fft.ifft(F, axis=ax, norm="forward")
    corr = np.fft.irfft(F, n=padded[-1], axis=-1, norm="forward")
    corr *= 1.0 / math.prod(padded)
    return corr, padded


def _powers(cache: dict, r2: np.ndarray, power) -> np.ndarray:
    """power(v) for each squared distance v (an integer) in r2.

    Each distinct v is computed once, in Python floats, and kept in
    `cache`: Python's float pow gives the exact values the per-lag and
    per-pair loops used, which numpy's vectorised pow need not.
    """
    uniq, where = np.unique(r2, return_inverse=True)
    vals = [cache[v] if v in cache else cache.setdefault(v, power(v)) for v in uniq.tolist()]
    return np.array(vals, dtype=np.float64)[where]


def _fold(start, terms: np.ndarray, ufunc=np.add):
    """((start op t0) op t1) op ...: a sequential fold, as a Python loop adds."""
    if terms.size == 0:
        return start
    return ufunc.accumulate(np.concatenate(([start], terms)))[-1]


def _truncation_bias(spec: BoxSpec, params: ModelParams,
                     weights: np.ndarray, cutoff: float) -> float:
    """Exact sum of min(1, lambda W_x W_y r^-alpha) over pairs with r > cutoff.

    The unsaturated part is lambda * sum_{lags r>R} r^-alpha C[lag], with
    the lag sums C from numpy's FFT (`_lag_weight_sums`); pairs whose
    bound saturates at 1 (both weights large) are corrected
    individually.  FFT round-off is ~1e-12 relative, negligible for a
    bias diagnostic.  In d >= 2 the lag terms are added one at a time in
    canonical lag order, and the saturated pairs in (x, y) order, so the
    result is a fixed float for given inputs.
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
        # Canonical lags in lexicographic order: a first coordinate in
        # [0, L), the rest over [-(L-1), L-1]^(d-1) in C order, and for a
        # first coordinate of 0 only past the zero lag.
        lead, rest = np.arange(L), np.arange(-(L - 1), L)
        r2 = sum(np.meshgrid(lead * lead, *[rest * rest] * (d - 1), indexing="ij")).reshape(L, -1)
        keep = r2 > cutoff * cutoff
        keep[0, :r2.shape[1] // 2 + 1] = False
        pw = _powers({}, r2[keep], lambda v: float(v) ** (-alpha / 2.0))
        lag_sums = corr[np.ix_(lead, *[rest % n for n in padded[1:]])].reshape(L, -1)[keep]
        raw = lam * _fold(0.0, pw * lag_sums)

    # Saturation correction: any pair with lambda W_x W_y r^-alpha > 1 and
    # r > cutoff needs min(1, t) = 1 instead of t.  Such a pair has
    # max(W_x, W_y) > sqrt(cutoff^alpha / lambda).
    sat_product = cutoff ** alpha / lam
    wmax = float(weights.max())
    correction = 0.0
    if wmax * wmax > sat_product:
        hi = np.nonzero(weights > math.sqrt(sat_product))[0]

        def reach2(w):
            # Past this squared distance lambda w W_y r^-alpha < 1 for every
            # W_y <= wmax; the margin covers the rounding of t, so the pairs
            # kept are a superset of the saturated ones, in the same order.
            return (lam * w * wmax) ** (2.0 / alpha) * (1.0 + 1e-9)

        def radius(w):
            # No coordinate of a kept pair differs by more than this.
            return math.isqrt(int(min(reach2(w), d * (L - 1) ** 2)))

        # Each vertex meets only the sub-box within its radius, taken in
        # flat order, so the pairs kept and the sums are those of the
        # whole box.  Squared distances are integers below 2^53, so summing
        # the squares an axis at a time gives the same floats in any order.
        for x in hi:
            rad = radius(weights[x])
            xc = np.unravel_index(x, grid.shape)
            win = tuple(slice(max(0, c - rad), min(L, c + rad + 1)) for c in xc)
            sq = [np.arange(s.start - c, s.stop - c, dtype=np.float64) ** 2 for s, c in zip(win, xc)]
            r2 = sum(np.ix_(*sq)).ravel()
            r = np.sqrt(r2)
            near = (r > cutoff) & (r2 <= reach2(weights[x]))
            t = lam * weights[x] * grid[win].ravel()[near] * r[near] ** -alpha
            correction += float(np.sum(1.0 - t[t > 1.0]))
        # Pairs with both endpoints in the high set were visited twice.  The
        # partners of a within its radius lie at most `rad * span` past it
        # in flat order, a run of `hi` that keeps their order.
        span = sum(spec.strides)
        hi_axes, hi_w = spec.coords_of(hi).T.astype(np.float64), weights[hi]
        cache = {}
        for a in range(len(hi) - 1):
            stop = int(np.searchsorted(hi, hi[a] + radius(hi_w[a]) * span, side="right"))
            r2 = sum((c[a + 1:stop] - c[a]) * (c[a + 1:stop] - c[a]) for c in hi_axes)
            near = (np.sqrt(r2) > cutoff) & (r2 <= reach2(hi_w[a]))
            pw = _powers(cache, r2[near].astype(np.int64),
                         lambda v: math.sqrt(float(v)) ** -alpha)
            t = lam * hi_w[a] * hi_w[a + 1:stop][near] * pw
            correction = _fold(correction, 1.0 - t[t > 1.0], np.subtract)
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
    """The open clusters of `r`, by hook-and-jump over its edge array.

    A Shiloach-Vishkin style pass that builds no CSR arrays: each round
    gathers the roots of both ends of the edges still split, drops the
    edges whose roots agree, hooks each larger root onto the smallest
    root it meets, then jumps pointers
    (parent = parent[parent]) until every vertex points at its root.
    Pointers only ever go down and stay inside a cluster, so the
    smallest vertex of a cluster is never hooked and ends as the root
    of all of it.  An edge-free box has one singleton cluster per
    vertex, the largest labelled 0.
    """
    n = r.n_vertices
    parent = np.arange(n, dtype=np.int64)
    lo, hi = r.edges[:, 0], r.edges[:, 1]
    while len(lo):
        a, b = parent[lo], parent[hi]
        split = a != b
        lo, hi, a, b = lo[split], hi[split], a[split], b[split]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    is_root = parent == np.arange(n)
    roots, counts = np.flatnonzero(is_root), np.bincount(parent, minlength=n)[is_root]
    largest = int(roots[np.argmax(counts)])
    return Clusters(labels=parent, largest=largest,
                    sizes=dict(zip(roots.tolist(), counts.tolist())))


# Sources per traversal: one 64-bit word per vertex, so a level touches
# one word per arc, and the bit arrays of a traversal stay O(n) whatever
# the number of sources.
_BFS_BATCH = 64
# Arcs per pull chunk: a chunk's gathered frontier words, at most 2 MiB,
# stay in L2 while they are reduced.
_PULL_ARCS = 1 << 16
# A level pushes while its frontier's arcs are under 1/_PUSH_SHARE of
# all arcs: a pushed arc (ufunc.at) costs 1.4-2.3 times a pulled one.  Of
# 2, 3, 4, 6, 8 and 16, 4 was fastest on both a shallow d=1 box and a
# 611-level d=2 box, on a 2-core Xeon.
_PUSH_SHARE = 4


def distances_from(r: BoxRealization, sources, targets=None, workers: int = 1) -> np.ndarray:
    """Hop counts from each flat vertex of `sources`, as a (k, m) int64 array (-1 unreachable).

    Row i holds the hops from sources[i] to the flat vertices targets[i]
    of a (k, m) `targets` array; with targets None, every vertex is a
    target of every source (m = n).  Sources may repeat.  Raises
    VertexOutOfBox for a source or target outside [0, n), and
    ParameterError for `workers` outside [1, MAX_WORKERS].

    A bit-parallel multi-source BFS (Then et al., "The More the Merrier:
    Efficient Multi-Source Graph Traversal", PVLDB 2014) over the cached
    CSR arrays (`BoxRealization.adjacency`): each source owns one bit of
    a vertex's uint64 word, so one pass per level advances every source
    of a batch.  The k sources are cut into ceil(k / _BFS_BATCH)
    contiguous batches of near-equal size, and a batch stops once it has
    reached all its targets, so it runs only as many levels as the
    farthest one needs.
    A level pushes from a small frontier and pulls into every vertex
    otherwise, as a direction-optimizing BFS does (Beamer et al., SC
    2012).  A batch costs up to levels x arcs, against sources x arcs
    for one search per source, so it pays off when the targets are few
    levels away, as in the polylogarithmic regime.  The batches are
    independent: they are mapped over `workers` processes
    (`_map_forked`), which share the CSR arrays built before the fork,
    and the rows come back in source order, the same at any worker count.
    """
    n = r.n_vertices
    if not 1 <= workers <= MAX_WORKERS:
        raise ParameterError(f"workers must be in [1, {MAX_WORKERS}], got {workers}")
    sources = np.asarray(sources, dtype=np.int64).reshape(-1)
    if targets is None:
        targets = np.broadcast_to(np.arange(n), (len(sources), n))
    targets = np.asarray(targets, dtype=np.int64)
    if targets.ndim != 2 or len(targets) != len(sources):
        raise ValueError(f"targets must have shape ({len(sources)}, m), got {targets.shape}")
    for what, v in (("source", sources), ("target", targets)):
        outside = v[(v < 0) | (v >= n)]
        if len(outside):
            raise VertexOutOfBox(f"{what} {outside[0]} outside the box's flat indices [0, {n})")
    indptr, indices = r.adjacency()
    plan = _pull_plan(indptr)
    out = np.full(targets.shape, -1, dtype=np.int64)
    # Batch i starts at ceil(k i / n_batches): near-equal sizes, the larger
    # first, so that with as many batches as workers each batch starts a
    # group of its own in `_map_forked`.
    k = len(sources)
    n_batches = -(-k // _BFS_BATCH)
    starts = [-(-k * i // n_batches) for i in range(n_batches)] + [k]
    batches = list(zip(starts[:-1], starts[1:]))

    def run(group):
        for a, z in group:
            _bfs_batch(indptr, indices, plan, sources[a:z], targets[a:z], out[a:z])
        return group[0][0], out[group[0][0]:group[-1][1]]

    # The first group ran in this process, straight into `out`; the rows
    # of the others come back from their children.
    for a, rows in _map_forked(run, batches, [z - a for a, z in batches], workers)[1:]:
        out[a:a + len(rows)] = rows
    return out


def _pull_plan(indptr: np.ndarray) -> list:
    """The pull of one BFS level, cut into chunks of about _PULL_ARCS arcs.

    A chunk (rows, start, stop, offsets) covers the arcs
    indices[start:stop] of the vertices `rows`, whose arcs begin at
    `offsets` in it.  Vertices without arcs are left out, since reduceat
    would give them the word at their offset instead of 0.
    """
    rows = np.flatnonzero(np.diff(indptr))
    begins = indptr[rows]
    # A chunk starts at the vertex holding each multiple of _PULL_ARCS.
    arcs = np.arange(0, indptr[-1], _PULL_ARCS)
    cuts = np.unique(np.searchsorted(begins, arcs, side="right") - 1)
    bounds = np.append(cuts, len(rows))
    return [(rows[a:z], begins[a], indptr[rows[z - 1] + 1], begins[a:z] - begins[a])
            for a, z in zip(bounds[:-1], bounds[1:])]


def _bfs_batch(indptr, indices, plan, sources, targets, out) -> None:
    """Write into `out` the hops from at most _BFS_BATCH sources to their targets.

    `front`, `unseen` and `nxt` hold, per vertex, one bit per source: on
    the current level, not yet reached, and on the next level; `active`
    lists the vertices whose front words are nonzero.  A level ORs into
    each vertex the frontier words of its neighbours and keeps the bits
    not seen before.  While the frontier's arcs are under 1/_PUSH_SHARE
    of all arcs, the frontier pushes its words along them (ufunc.at);
    otherwise every vertex pulls over the `plan`, so a deep search whose
    frontier is a thin shell does not gather every arc on every level.
    The (source, target) pairs still unreached are held as flat arrays
    and checked against the new bits after each level.
    """
    col = np.arange(len(sources))
    word = col >> 6
    bit = np.left_shift(np.uint64(1), (col & 63).astype(np.uint64))
    front = np.zeros((len(indptr) - 1, -(-len(sources) // 64)), dtype=np.uint64)
    np.bitwise_or.at(front, (sources, word), bit)
    unseen, nxt = ~front, np.empty_like(front)
    out[targets == sources[:, None]] = 0
    pi, pj = np.nonzero(out < 0)
    pt = targets[pi, pj]
    active, level = np.unique(sources), 0
    while len(pi):
        lo = indptr[active]
        deg = indptr[active + 1] - lo
        if not deg.any():
            break  # no arc leaves the frontier
        level += 1
        nxt.fill(0)
        if deg.sum() * _PUSH_SHARE < len(indices):
            arcs = np.repeat(lo - np.cumsum(deg) + deg, deg) + np.arange(deg.sum())
            np.bitwise_or.at(nxt, indices[arcs], np.repeat(front[active], deg, axis=0))
        else:
            for rows, start, stop, offsets in plan:
                nxt[rows] = np.bitwise_or.reduceat(front.take(indices[start:stop], axis=0),
                                                   offsets, axis=0)
        np.bitwise_and(nxt, unseen, out=nxt)
        active = np.flatnonzero(nxt.any(axis=1))
        if not len(active):
            break
        np.bitwise_xor(unseen, nxt, out=unseen)
        hit = (nxt[pt, word[pi]] & bit[pi]) != 0
        out[pi[hit], pj[hit]] = level
        pi, pj, pt = pi[~hit], pj[~hit], pt[~hit]
        front, nxt = nxt, front


def _check_margin(side: int, margin: int) -> None:
    if not 0 <= margin < side / 2:
        raise ParameterError(f"margin must satisfy 0 <= m < L/2, got {margin}")


def degree_sequence(r: BoxRealization, margin: int = 0) -> np.ndarray:
    """Degrees of vertices at L-infinity distance >= margin from the boundary."""
    L = r.spec.side
    _check_margin(L, margin)
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


# Record lines per chunk of the writer and of the loader: a chunk's text,
# its byte matrix or its token arrays stay a few MB.  Of 2^13 .. 2^16, 2^14
# loaded and saved a 3 MB d=2 file fastest on a 2-core Xeon (2 MiB L2 a core).
_CHUNK_LINES = 1 << 14

# A line break of str.splitlines other than "\n" and the "\r" of "\r\n",
# with a field after it on its line.  str.split() would read it as a
# separator; the format ends a line only at "\n".
_STRAY_BREAK = re.compile(r"[\r\v\f\x1c-\x1e\x85\u2028\u2029](?=[^\S\n]*\S)")


def _record_lines(tag: str, coords: np.ndarray, tails=None) -> bytes:
    """The record lines "tag %d %d ..." of the rows of coords, as ASCII bytes.

    The lines are laid out in a zero-filled uint8 matrix, one row per
    line: the tag, then for each coordinate a space, a sign byte if a
    coordinate is negative, and the digits right-aligned in a field as
    wide as the widest magnitude; then, if `tails` (an S array, one item
    per row) is given, a space and the row's item; then a newline.
    Dropping the zero bytes leaves the text.  Magnitudes are uint64,
    where -(-2^63) is 2^63 and not the int64 -2^63 that abs gives; the
    caller's coords are negated in place.
    """
    neg = coords < 0
    signed = bool(neg.any())
    mag = coords.view(np.uint64)
    np.negative(mag, out=mag, where=neg)
    width = len(str(int(mag.max())))
    if width < 10:
        mag = mag.astype(np.uint32)  # divides faster
    rows, cols = coords.shape
    field = 1 + signed + width
    tail = 0 if tails is None else 1 + tails.itemsize
    m = np.zeros((rows, 1 + cols * field + tail + 1), dtype=np.uint8)
    m[:, 0], m[:, -1] = ord(tag), ord("\n")
    fields = m[:, 1:1 + cols * field].reshape(rows, cols, field)
    fields[..., 0] = ord(" ")
    if signed:
        fields[..., 1] = neg * ord("-")
    for k in range(width):  # digit k from the right, left 0 past the leading digit
        q = mag // 10
        fields[..., -1 - k] = (mag - q * 10 + ord("0")) * ((mag > 0) | (k == 0))
        mag = q
    if tails is not None:
        m[:, -1 - tail] = ord(" ")
        m[:, -tail:-1] = tails.view(np.uint8).reshape(rows, -1)
    return m[m != 0].tobytes()


def save_realization(r: BoxRealization, path) -> None:
    """Write the text format v1; weights in shortest round-trip decimals.

    The `w` and `e` lines are laid out by `_record_lines`, _CHUNK_LINES
    at a time; each weight's text is its repr, as `_fmt` writes it.
    """
    meta = (f"d={r.spec.d} alpha={_fmt(r.params.alpha)} lambda={_fmt(r.params.lambda_)} "
            f"tau={_fmt(r.params.tau)} model={r.params.kind.value} L={r.spec.side} "
            f"seed={r.seed}")
    if any(c != 0 for c in r.spec.origin):
        meta += " origin=" + ",".join(str(c) for c in r.spec.origin)
    if r.trunc is not None:
        meta += f" trunc={_fmt(r.trunc)}"
        if r.trunc_bias is not None:
            meta += f" truncbias={_fmt(r.trunc_bias)}"
    spec, k = r.spec, _CHUNK_LINES
    with open(path, "wb") as fh:
        fh.write(f"{FORMAT_HEADER}\n{meta}\n".encode())
        weights = () if r.weights is None else r.weights
        for s in range(0, len(weights), k):
            text = np.array([repr(w) for w in weights[s:s + k].tolist()], dtype="S")
            fh.write(_record_lines("w", spec.coords_of(np.arange(s, s + len(text))), text))
        for s in range(0, len(r.edges), k):
            fh.write(_record_lines("e", spec.coords_of(r.edges[s:s + k]).reshape(-1, 2 * spec.d)))


def _flat_index(spec: BoxSpec, coords: np.ndarray, line_nos, per_record: int):
    """Flat indices of absolute vertex coordinates (k, d), and None.

    Records hold `per_record` vertices (rows) each, in file order, and
    `line_nos[i]` is the line of record i.  If a vertex is outside the
    box, returns None and the ParseError of the first such record.
    """
    flat = np.zeros(len(coords), dtype=np.int64)
    out = np.zeros(len(coords), dtype=bool)
    for j, o in enumerate(spec.origin):  # Horner over the axes
        rel = coords[:, j] - o
        out |= rel.view(np.uint64) >= spec.side  # unsigned, a negative offset is past the side
        flat *= spec.side
        flat += rel
    if out.any():
        k = int(np.argmax(out))
        return None, ParseError(int(line_nos[k // per_record]),
                                f"coordinates {coords[k].tolist()} outside box")
    return flat, None


def _missing_nn_edge(r: BoxRealization):
    """The first lattice-neighbour pair (lo, hi), axis by axis, that r lacks, or None."""
    side = r.spec.side
    flat = np.arange(r.n_vertices, dtype=np.int64)
    pairs = []
    for stride in r.spec.strides:
        x = flat[flat // stride % side < side - 1]
        pairs.append(np.stack([x, x + stride], axis=1))
    pairs = np.concatenate(pairs)
    gone = np.flatnonzero(~r.has_edges(pairs))
    return None if gone.size == 0 else pairs[gone[0]]


def _record_fault(parts: list, d: int, weighted: bool) -> str:
    """Why a record line with these fields is not a well-formed record."""
    tag = parts[0]
    if tag == "w" and not weighted:
        return "weight line in a weightless model"
    if tag in ("w", "e"):
        want = d + 2 if tag == "w" else 2 * d + 1
        return f"expected {want} fields, got {len(parts)}"
    return f"unknown record type {tag!r}"


def _split_lines(data: bytes, first_line: int) -> tuple:
    """The lines of UTF-8 bytes, numbered from first_line, before the first
    byte that is not UTF-8 or stray line break, and its ParseError or None.

    Lines end at "\n", less one "\r" before it.
    """
    fault = None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = data[:exc.start].decode("utf-8")
        fault = ParseError(first_line + text.count("\n"),
                           f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})")
        text = text[:text.rfind("\n") + 1]
    stray = _STRAY_BREAK.search(text)
    if stray:
        fault = ParseError(first_line + text.count("\n", 0, stray.start()),
                           f"stray line break {stray.group()!r} (lines end at '\\n')")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    if fault:
        lines = lines[:fault.line_number - first_line]
    return [line[:-1] if line[-1:] == "\r" else line for line in lines], fault


def _scan_records(data: bytes, first_line: int, spec: BoxSpec, weighted: bool):
    """Parse the record lines in data, numbered from first_line, one at a
    time, in any order and layout: the reference parser.

    Returns the flat index and the weight of each `w` line and the flat
    endpoints (m, 2) of each `e` line, in file order.  Raises the
    ParseError of the first bad line.
    """
    lines, fault = _split_lines(data, first_line)
    d = spec.d
    w_fields, e_fields = d + 2, 2 * d + 1
    w_coords, w_values, w_lines = array("q"), array("d"), array("q")
    e_coords, e_lines = array("q"), array("q")
    failure = None
    for ln, line in enumerate(lines, start=first_line):
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
    w_flat, w_fault = _flat_index(spec, wc, w_lines, 1)
    e_flat, e_fault = _flat_index(spec, ec, e_lines, 2)
    # Every buffered record precedes a failed line, so the first fault in
    # file order is the least line among these.
    faults = [f for f in (failure or fault, w_fault, e_fault) if f is not None]
    if faults:
        raise min(faults, key=lambda f: f.line_number)
    return w_flat, np.frombuffer(w_values, dtype=np.float64), e_flat.reshape(-1, 2)


def _layout_ints(b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """The int64 values of the tokens b[lo:hi], or None unless each is an
    optional "-" and 1 to 19 digits, with its value in int64."""
    neg = b.take(lo) == ord("-")
    digits = hi - lo - neg
    if not (np.all(digits >= 1) and np.all(digits <= 19)):
        return None
    width = int(digits.max(initial=0))
    digits = digits.astype(np.uint8)
    mag = np.zeros(len(lo), dtype=np.uint64 if width > 9 else np.uint32)
    top = np.zeros(len(lo), dtype=np.uint8)  # the largest digit, > 9 for any other byte
    for k in range(width, 0, -1):  # Horner, k-th digit from the right
        digit = b.take(hi - k, mode="clip") - np.uint8(ord("0"))  # wraps below "0"
        digit = np.where(digits >= k, digit, np.uint8(0))
        np.maximum(top, digit, out=top)
        mag *= 10
        mag += digit
    if top.max(initial=0) > 9 or np.any(mag > np.uint64(2 ** 63 - 1) + neg):
        return None
    out = mag.astype(np.int64)
    np.negative(out, out=out, where=neg)
    return out


def _layout_floats(b: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """float() of each token b[lo:hi], or None if float() rejects one or
    one is longer than 32 bytes (repr never is)."""
    width = int((hi - lo).max())
    if width > 32:
        return None
    text = np.zeros((len(lo), width), dtype=np.uint8)
    for c in range(width):
        at = lo + c
        text[:, c] = np.where(at < hi, b.take(at, mode="clip"), 0)
    try:
        return np.fromiter(map(float, text.view(f"S{width}").ravel().tolist()),
                           dtype=np.float64, count=len(lo))
    except ValueError:
        return None


def _parse_chunk(b: np.ndarray, first_line: int, spec: BoxSpec, weighted: bool):
    """`_scan_records` in numpy over the lines in b, whose fields are runs of
    bytes above " " split by runs of spaces and tabs.  None, for the loop, at
    a byte that is not ASCII, a control byte other than a tab, "\n" or the
    "\r" of "\r\n", a last line without "\n", a tag or field count other
    than a record's, or a token that `_layout_ints` or `_layout_floats` rejects.
    """
    if b[-1] != 10:
        return None
    d = spec.d
    n_lines = np.count_nonzero(b == 10)
    # Bytes below " " but tabs and "\n"s, or past "~": only a "\r" before each "\n" may go.
    odd = np.count_nonzero((b - np.uint8(32)) > np.uint8(94)) - n_lines - np.count_nonzero(b == 9)
    if odd:
        cr = np.flatnonzero(b == 13)
        if len(cr) != odd or not np.all(b.take(cr + 1) == 10):
            return None
    # Token k is b[lo[k]:hi[k]] (a separator is assumed before b[0]; b ends with one).
    sep = np.ones(len(b) + 1, dtype=bool)
    np.less_equal(b, 32, out=sep[1:])
    cut = np.flatnonzero(sep[1:] != sep[:-1]).astype(np.int32 if len(b) < 2 ** 31 else np.int64)
    lo, hi = cut[0::2], cut[1::2]
    # The i-th line that is not blank is line first_line + rec[i], and its
    # fields are tokens last[i] - fields[i] + 1 .. last[i].
    end = b.take(hi)
    last = np.flatnonzero((end == 10) | (end == 13))  # the tokens a line break follows
    rec = np.arange(len(last))
    if len(last) != n_lines:  # a blank line, or a space or tab before a line break
        last = np.searchsorted(lo, np.flatnonzero(b == 10)) - 1
        rec = np.flatnonzero(np.diff(last, prepend=-1))
        last = last[rec]
    fields = np.diff(last, prepend=-1)
    start = lo.take(last - fields + 1)
    tag = np.where(hi.take(last - fields + 1) - start == 1, b.take(start), 0)
    is_w = (tag == ord("w")) & (fields == d + 2) & weighted
    is_e = (tag == ord("e")) & (fields == 2 * d + 1)
    if not np.all(is_w | is_e):
        return None
    flats, faults, values = [np.empty(0, dtype=np.int64)] * 2, [], np.empty(0)
    for k, (rows, n_fields, n_ints) in enumerate(((is_w, d + 2, d), (is_e, 2 * d + 1, 2 * d))):
        if not rows.any():
            continue
        # Field j of these lines is tokens t_lo[j::n_fields], t_hi[j::n_fields].
        keep = slice(None) if rows.all() else np.repeat(rows, fields)
        t_lo, t_hi = lo[keep], hi[keep]
        cols = [_layout_ints(b, t_lo[j::n_fields], t_hi[j::n_fields]) for j in range(1, n_ints + 1)]
        if any(c is None for c in cols):
            return None
        flats[k], fault = _flat_index(spec, np.stack(cols, axis=1).reshape(-1, d),
                                      first_line + rec[rows], n_ints // d)
        faults += [fault] if fault else []
        if rows is is_w:
            values = _layout_floats(b, t_lo[d + 1::n_fields], t_hi[d + 1::n_fields])
            if values is None:
                return None
    if faults:
        raise min(faults, key=lambda f: f.line_number)
    return flats[0], values, flats[1].reshape(-1, 2)


def _chunk_cuts(fh) -> tuple:
    """The lines of a binary file from its position on, counted by "\n" (a last
    line without one counts too), and the offsets that cut them into chunks:
    where they start, where every _CHUNK_LINES-th one ends, and the file's end."""
    cuts, count, last, pos = [fh.tell()], 0, b"\n", fh.tell()
    while block := fh.read(_CHUNK_LINES << 4):
        ends = np.flatnonzero(np.frombuffer(block, dtype=np.uint8) == 10)
        # ends[j] ends line count + 1 + j: a cut follows every _CHUNK_LINES-th line.
        cuts += (pos + 1 + ends[(-count - 1) % _CHUNK_LINES::_CHUNK_LINES]).tolist()
        count, pos, last = count + len(ends), pos + len(block), block[-1:]
    return count + (last != b"\n"), cuts + [pos] * (cuts[-1] != pos)


def _line_of_record(path, tag: str, k: int) -> tuple:
    """The line number and the fields of the k-th record tagged `tag` of a file that parses."""
    with open(path, "rb") as fh:
        found = ((ln, f) for ln, line in enumerate(itertools.islice(fh, 2, None), start=3)
                 if (f := line.decode("utf-8").split())[:1] == [tag])
        return next(itertools.islice(found, k, None))


def load_realization(path) -> BoxRealization:
    """Parse the text format v1 back into a BoxRealization (bit-exact).

    Lines end at "\n" (or "\r\n").  Records may come in any order and
    their fields may be separated by any whitespace other than a line
    break; blank lines are skipped.  Rejects, with the offending line
    number: a header other than FORMAT_HEADER, bytes that are not UTF-8,
    a line break that str.splitlines knows but the format does not (such
    as "\v", "\x85" or a lone "\r") before a field, unknown metadata
    keys, a seed outside [0, 2^64), malformed records, coordinates
    outside the box, weights that are not finite or below 1, a second
    weight for a vertex, self-loops, edges whose lower endpoint (in flat
    order) is not written first, and duplicate edges.  Missing weights,
    and for sfpnn a missing nearest-neighbour edge, are reported at the
    line after the last.

    The records are read twice: in blocks, to count their lines and find
    where every _CHUNK_LINES-th one ends (`_chunk_cuts`), then one read a
    chunk, parsed straight into arrays sized for the writer's file (grown
    once if its record counts differ).  Each chunk is parsed in numpy
    (`_parse_chunk`); only a chunk that numpy cannot take goes through the
    per-line loop (`_scan_records`).  The first fault found while parsing,
    in file order, is raised at once; the checks over all records then
    run in numpy.  Edges already in the writer's order skip the sort.
    """
    with open(path, "rb") as fh:
        head, fault = _split_lines(fh.readline() + fh.readline(), 1)
        if head[:1] != [FORMAT_HEADER]:
            got = head[0] if head else "<empty file>"
            raise fault if fault and not head else ParseError(
                1, f"expected {FORMAT_HEADER!r}, got {got!r}")
        if len(head) < 2:
            raise fault or ParseError(2, "missing metadata line")

        meta = {}
        for tok in head[1].split():
            if "=" not in tok:
                raise ParseError(2, f"bad metadata token {tok!r}")
            k, v = tok.split("=", 1)
            if k not in _META_KEYS:
                raise ParseError(2, f"unknown metadata key {k!r}")
            if k in meta:
                raise ParseError(2, f"repeated metadata key {k!r}")
            meta[k] = v

        try:
            d = int(meta["d"])
            side = int(meta["L"])
            kind = ModelKind.parse(meta["model"])
            params = ModelParams(d=d, alpha=float(meta["alpha"]),
                                 lambda_=float(meta["lambda"]),
                                 tau=float(meta["tau"]), kind=kind)
            seed = int(meta["seed"])
            if not 0 <= seed < 2 ** 64:
                raise ValueError(f"seed must be in [0, 2^64), got {meta['seed']}")
            origin = tuple(int(c) for c in meta["origin"].split(",")) if "origin" in meta else None
            spec = BoxSpec(d=d, side=side, origin=origin)
            trunc = float(meta["trunc"]) if "trunc" in meta else None
            trunc_bias = float(meta["truncbias"]) if "truncbias" in meta else None
            # What the writer can write: a cutoff >= 1, as the generator demands,
            # and a bias >= 0 only with a cutoff.
            if trunc is not None and not trunc >= 1:
                raise ValueError(f"trunc must be >= 1, got {meta['trunc']}")
            if trunc_bias is not None and (trunc is None or not trunc_bias >= 0):
                raise ValueError(f"truncbias needs a trunc and must be >= 0, got {meta['truncbias']}")
        except KeyError as exc:
            raise ParseError(2, f"missing metadata key {exc.args[0]}") from exc
        except ValueError as exc:
            raise ParseError(2, str(exc)) from exc

        weighted = kind is not ModelKind.LRP
        n_records, cuts = _chunk_cuts(fh)
        n_weights = min(spec.vertex_count, n_records) if weighted else 0
        w_flat = np.empty(n_weights, dtype=np.int64)
        values = np.empty(n_weights, dtype=np.float64)
        pairs = np.empty((n_records - n_weights, 2), dtype=np.int64)
        nw = ne = 0
        fh.seek(cuts[0])
        for i, (start, stop) in enumerate(zip(cuts, cuts[1:])):
            first, data = 3 + i * _CHUNK_LINES, fh.read(stop - start)
            w, v, e = (_parse_chunk(np.frombuffer(data, dtype=np.uint8), first, spec, weighted)
                       or _scan_records(data, first, spec, weighted))
            # More w lines than vertices, or fewer: a later check fails, at its own line.
            if nw + len(w) > len(w_flat) or ne + len(e) > len(pairs):
                w_flat, values, pairs = (np.resize(a, (n_records,) + a.shape[1:])
                                         for a in (w_flat, values, pairs))
            w_flat[nw:nw + len(w)], values[nw:nw + len(w)], pairs[ne:ne + len(e)] = w, v, e
            nw, ne = nw + len(w), ne + len(e)
        w_flat, values, pairs = w_flat[:nw], values[:nw], pairs[:ne]

        weights = None
        if weighted:
            bad = np.flatnonzero(~((values >= 1.0) & (values < math.inf)))
            if bad.size:
                ln, parts = _line_of_record(path, "w", int(bad[0]))
                raise ParseError(ln, f"weight {parts[-1]} is not finite and >= 1")
            order = np.argsort(w_flat, kind="stable")
            repeat = np.flatnonzero(w_flat[order[1:]] == w_flat[order[:-1]])
            if repeat.size:
                k = int(order[repeat + 1].min())
                raise ParseError(_line_of_record(path, "w", k)[0], "duplicate weight for vertex "
                                 f"{spec.coords_of(w_flat[k]).tolist()}")
            if missing := spec.vertex_count - len(w_flat):
                raise ParseError(n_records + 3,
                                 f"{missing} vertex weights missing (truncated file?)")
            weights = values[order]
            weights.setflags(write=False)

    bad = np.flatnonzero(pairs[:, 0] >= pairs[:, 1])
    if bad.size:
        k = int(bad[0])
        raise ParseError(_line_of_record(path, "e", k)[0], "self-loop" if pairs[k, 0] == pairs[k, 1]
                         else "edge endpoints reversed (lower endpoint must come first)")
    # The writer's keys increase strictly: no sort, no duplicate.  Any other
    # order is sorted by key and scanned, and the sorted keys become the edges.
    key = _pair_keys(*pairs.T, spec.vertex_count)
    if not np.all(key[1:] > key[:-1]):
        pairs = None  # freed before the sort
        order = np.argsort(key, kind="stable")
        key = key[order]
        dup = np.flatnonzero(key[1:] == key[:-1])
        if dup.size:
            k = int(np.maximum(order[dup], order[dup + 1]).min())
            raise ParseError(_line_of_record(path, "e", k)[0], "duplicate edge")
        pairs = np.empty((len(key), 2), dtype=np.int64)
        np.divmod(key, spec.vertex_count, out=(pairs[:, 0], pairs[:, 1]))
    pairs.setflags(write=False)
    r = BoxRealization(spec=spec, params=params, seed=seed, weights=weights,
                       edges=pairs, trunc=trunc, trunc_bias=trunc_bias)
    if kind is ModelKind.SFP_NN:
        gap = _missing_nn_edge(r)
        if gap is not None:
            a, b = spec.coords_of(gap).tolist()
            raise ParseError(n_records + 3, f"missing nearest-neighbour edge {a} {b}")
    return r
