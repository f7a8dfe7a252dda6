"""Deterministic keyed randomness for weights, edge uniforms and experiments.

Every random quantity in the package is a pure function of
(seed, domain tag, object identity): vertex weights are keyed by the
vertex coordinates, edge uniforms by the canonically ordered endpoint
pair, and Monte-Carlo replicate draws by (replicate index, slot).  There
are no sequential streams, so results are independent of evaluation
order and of the number of workers, and the SFP/LRP coupling (both
models reading the same per-edge uniform) is exact by construction.

The generator is a counter-mode avalanche hash: the 64-bit key words are
absorbed one by one through the splitmix64 finalizer, and the final word
w is mapped to the open unit interval via (w + 1) / 2^64, clamped one
ulp below 1.0 so that draws are strictly inside (0, 1).  Not
cryptographic; statistically validated by the test suite (KS uniformity,
Pareto tail law).
"""

from __future__ import annotations

import numpy as np

# Domain separation tags.
TAG_WEIGHT = 0x5746_5457_4549_4748
TAG_EDGE = 0x4547_4445_4544_4745
TAG_EXPERIMENT = 0x4558_5045_5249_4D54

_GOLDEN = 0x9E3779B97F4A7C15
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)
_S32, _LO32 = np.uint64(32), np.uint64(0xFFFF_FFFF)
_S12, _ONE_BITS = np.uint64(12), np.uint64(0x3FF0_0000_0000_0000)
# Bit patterns of the floats 2^20 and 2^-12.
_TWO_20_BITS, _TWO_M12_BITS = np.uint64(0x4130_0000_0000_0000), np.uint64(0x3F30_0000_0000_0000)
_ONE_MINUS_ULP = 1.0 - 2.0 ** -53


def absorb(h, column, out, tmp):
    """One absorption step of the hash: out <- splitmix64(h ^ column).

    `out` and `tmp` are uint64 arrays of the broadcast shape of `h` and
    `column`; `out` may be `h`.  Runs in place, so a caller hashing many
    blocks reuses its buffers.  This is the only definition of the
    splitmix64 finalizer in the package.
    """
    np.bitwise_xor(h, column, out=out)
    for shift, mult in ((_S30, _M1), (_S27, _M2)):
        np.right_shift(out, shift, out=tmp)
        np.bitwise_xor(out, tmp, out=out)
        np.multiply(out, mult, out=out)
    np.right_shift(out, _S31, out=tmp)
    np.bitwise_xor(out, tmp, out=out)
    return out


def stream_key(seed: int, tag: int) -> np.uint64:
    """Initial hash state for a (seed, domain) stream."""
    mask = 0xFFFF_FFFF_FFFF_FFFF
    word = np.uint64((seed & mask) ^ (tag * _GOLDEN & mask))
    out, tmp = np.empty((), np.uint64), np.empty((), np.uint64)
    return absorb(np.uint64(0), word, out, tmp)[()]


def keyed_words(seed: int, tag: int, *columns) -> np.ndarray:
    """Hash words for keys built from parallel integer columns.

    Each column is broadcast to a common shape and absorbed in order;
    distinct column tuples give statistically independent words.  Signed
    integers are reinterpreted as two's-complement uint64, so negative
    lattice coordinates are fine.
    """
    h = stream_key(seed, tag)
    out = tmp = None
    for col in columns:
        c = np.asarray(col)
        if c.dtype != np.uint64:
            c = c.astype(np.int64).astype(np.uint64)
        # The state grows only as the columns broadcast it: a leading
        # scalar key is absorbed once, not once per element.
        shape = np.broadcast_shapes(np.shape(h), c.shape)
        if out is None or out.shape != shape:
            out, tmp = np.empty(shape, np.uint64), np.empty(shape, np.uint64)
        h = absorb(h, c, out, tmp)
    return h


def unit_from_word(word) -> np.ndarray:
    """Map hash words to (0, 1) via (w + 1) / 2^64; see unit_from_word_inplace."""
    w = np.array(word, dtype=np.uint64)
    u = unit_from_word_inplace(w, np.empty_like(w))
    return u if u.ndim else u[()]


def unit_from_word_inplace(word: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """unit_from_word written over the uint64 array `word`; returns its float64 view.

    `tmp` is a uint64 scratch array of the same shape.  w is converted
    as float(w >> 32) * 2^32 + float(w & (2^32 - 1)), scaled by 2^-64:
    each 32-bit half is placed under the exponent bits of a power of two
    whose ulp is that half's weight (2^-32 for the high half, 2^-64 for
    the low one), and the power is subtracted again.  Both halves come
    out exact and their sum rounds once, so the result is the correctly
    rounded float(w) * 2^-64, without numpy's integer-to-float cast loop.
    The 1 is added afterwards in float (as 2^-64), so the top word
    cannot wrap to zero; results that would round to 1.0 are clamped one
    ulp below it, keeping the output strictly inside the open interval.
    """
    np.bitwise_and(word, _LO32, out=tmp)
    np.bitwise_or(tmp, _TWO_M12_BITS, out=tmp)
    lo = tmp.view(np.float64)
    np.subtract(lo, 2.0 ** -12, out=lo)
    np.right_shift(word, _S32, out=word)
    np.bitwise_or(word, _TWO_20_BITS, out=word)
    u = word.view(np.float64)
    np.subtract(u, 2.0 ** 20, out=u)
    np.add(u, lo, out=u)
    np.add(u, 2.0 ** -64, out=u)
    return np.minimum(u, _ONE_MINUS_ULP, out=u)


def unit_lower_bound(word: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(w >> 12) * 2^-52 for uint64 words, written into `out` viewed as float64.

    It never exceeds unit_from_word(w): it is unit_from_word with the low
    12 bits of w dropped and neither the +1 nor the rounding up that
    float(w) may do.  It costs two integer ops and one subtraction (the
    top 52 bits under the exponent of 1.0 give 1 + (w >> 12) * 2^-52
    exactly), against an int-to-float conversion for the exact value, so
    a caller can discard with it the words whose uniform cannot fall
    below a threshold.
    """
    np.right_shift(word, _S12, out=out)
    np.bitwise_or(out, _ONE_BITS, out=out)
    lo = out.view(np.float64)
    return np.subtract(lo, 1.0, out=lo)


def keyed_uniforms(seed: int, tag: int, *columns) -> np.ndarray:
    return unit_from_word(keyed_words(seed, tag, *columns))


def pareto_from_uniform(u, tau: float):
    """Invert the weight tail law: W = U^(-1/(tau-1)), so P(W >= w) = w^-(tau-1).

    Uses U directly (not 1 - U); fixed once and for all for
    reproducibility.
    """
    if not tau > 1:
        from .params import ParameterError
        raise ParameterError(f"tau must exceed 1, got {tau}")
    return np.asarray(u, dtype=np.float64) ** (-1.0 / (tau - 1.0))


# ---------------------------------------------------------------------------
# Vertex weights
# ---------------------------------------------------------------------------

def vertex_weights(seed: int, coords: np.ndarray, tau: float) -> np.ndarray:
    """Keyed Pareto weights for an (n, d) array of lattice coordinates."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    cols = [coords[:, j] for j in range(coords.shape[1])]
    return pareto_from_uniform(keyed_uniforms(seed, TAG_WEIGHT, *cols), tau)


def weight_for_vertex(seed: int, x, tau: float) -> float:
    """Weight of a single vertex (x is a coordinate tuple or scalar for d = 1)."""
    coords = np.asarray(x, dtype=np.int64).reshape(1, -1)
    return float(vertex_weights(seed, coords, tau)[0])


# ---------------------------------------------------------------------------
# Edge uniforms
# ---------------------------------------------------------------------------

def uniform_for_edge(seed: int, x, y) -> float:
    """The shared uniform of the unordered edge {x, y}, in (0, 1).

    Symmetric in x and y: endpoints are sorted lexicographically by
    coordinates before hashing, so uniform_for_edge(s, x, y) equals
    uniform_for_edge(s, y, x) bit for bit.  The key columns (lower
    endpoint, then upper) are the ones the box generator hashes, so this
    re-decides any generated pair.  Equal endpoints raise ValueError.
    """
    xa = tuple(np.asarray(x, dtype=np.int64).reshape(-1).tolist())
    ya = tuple(np.asarray(y, dtype=np.int64).reshape(-1).tolist())
    if xa == ya:
        raise ValueError(f"edge endpoints coincide: {xa}")
    lo, hi = (xa, ya) if xa < ya else (ya, xa)
    return float(keyed_uniforms(seed, TAG_EDGE, *lo, *hi))


# ---------------------------------------------------------------------------
# Experiment draws
# ---------------------------------------------------------------------------

def experiment_uniforms(seed: int, *index_columns) -> np.ndarray:
    """Keyed uniforms for Monte-Carlo work, keyed by replicate/slot indices.

    The Monte-Carlo kernels draw the same keys tile by tile into reused
    buffers; this allocating form is kept as their test oracle.
    """
    return keyed_uniforms(seed, TAG_EXPERIMENT, *index_columns)


def derive_seed(seed: int, index: int) -> int:
    """A per-replicate sub-seed: keyed function of (master seed, index)."""
    return int(keyed_words(seed, TAG_EXPERIMENT, np.uint64(index)))
