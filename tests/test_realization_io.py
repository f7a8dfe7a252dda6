"""Property tests of the realization file format v1 (save and load).

Round trip: over model kind x d in {1, 2, 3} x side x origin (negative
coordinates included) x cutoff or none x seed, `load(save(r))` equals
`r` bit for bit and `save(load(f))` rewrites the bytes of `f`.

Writer: the bytes `save_realization` writes equal those of the
%-formatting writer it replaced (kept below as `_percent_file`), over
d in {1, 2, 3}, origins at both ends of the int64 range, LRP boxes
without weights, boxes without edges, and chunks of 1 and 3 lines.

Memory: loading a writer's file of many chunks holds, at its peak, the
final arrays, three arrays of one entry per vertex and a few chunks; so
does a copy with CRLF line ends or tabs for spaces.  A copy with its
records shuffled holds 1.5 times the edges more, to sort them.

Fuzz: one record line of a valid file is changed.  Whitespace changes
and any reordering of the records load the same realization; a dropped
field, a non-integer token, an out-of-box coordinate or reversed edge
endpoints raise ParseError naming that line, and no other exception.

The examples are derandomized, so every run checks the same cases.
"""

import itertools
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sfp import graph
from sfp.graph import (BoxRealization, BoxSpec, ParseError, generate_box, load_realization,
                       save_realization)
from sfp.params import ModelKind, ModelParams

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

MAX_SIDE = {1: 40, 2: 8, 3: 4}


@st.composite
def realizations(draw):
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.integers(2, MAX_SIDE[d]))
    origin = tuple(draw(st.lists(st.integers(-60, 60), min_size=d, max_size=d)))
    spec = BoxSpec(d=d, side=side, origin=origin)
    cutoff = draw(st.none() | st.floats(1.0, spec.diameter + 1.0))
    params = ModelParams(d=d, alpha=draw(st.sampled_from([d + 0.5, d + 2.0])),
                         lambda_=draw(st.sampled_from([0.5, 2.0, 50.0])),
                         tau=draw(st.sampled_from([2.5, 3.5])),
                         kind=draw(st.sampled_from(list(ModelKind))))
    seed = draw(st.integers(0, 2 ** 64 - 1))
    return generate_box(params, seed, spec, cutoff=cutoff)


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _same(a, b):
    return (a.spec == b.spec and a.params == b.params and a.seed == b.seed
            and _bits(a.edges) == _bits(b.edges) and _bits(a.weights) == _bits(b.weights)
            and repr(a.trunc) == repr(b.trunc) and repr(a.trunc_bias) == repr(b.trunc_bias))


def _write(text: str) -> Path:
    fh = tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False, encoding="utf-8")
    with fh:
        fh.write(text)
    return Path(fh.name)


def _load_text(text: str):
    path = _write(text)
    try:
        return load_realization(path)
    finally:
        path.unlink()


def _save_text(r) -> str:
    path = _write("")
    try:
        save_realization(r, path)
        return path.read_text(encoding="utf-8")
    finally:
        path.unlink()


@SETTINGS
@given(realizations())
def test_round_trip_is_bit_exact(r):
    text = _save_text(r)
    back = _load_text(text)
    assert _same(back, r)
    assert _save_text(back) == text


@SETTINGS
@given(realizations(), st.data())
def test_whitespace_and_record_order_do_not_matter(r, data):
    lines = _save_text(r).splitlines()
    records = lines[2:]
    assume(records)
    k = data.draw(st.integers(0, len(records) - 1))
    gaps = st.sampled_from([" ", "  ", "\t", " \t ", "\t\t"])
    fields = records[k].split()
    edited = data.draw(st.sampled_from(["", " ", "\t"]))
    for i, f in enumerate(fields):
        edited += (data.draw(gaps) if i else "") + f
    records[k] = edited + data.draw(st.sampled_from(["", " ", "\t", " \t"]))
    assert _same(_load_text("\n".join(lines[:2] + records) + "\n"), r)
    shuffled = data.draw(st.permutations(records))
    assert _same(_load_text("\n".join(lines[:2] + shuffled) + "\n"), r)


MUTATIONS = ["drop-field", "non-integer", "outside-box", "reversed"]


@SETTINGS
@given(realizations(), st.sampled_from(MUTATIONS), st.data())
def test_broken_record_raises_parse_error_at_its_line(r, mutation, data):
    lines = _save_text(r).splitlines()
    candidates = [i for i, line in enumerate(lines[2:], start=2)
                  if mutation != "reversed" or line.startswith("e")]
    assume(candidates)
    i = data.draw(st.sampled_from(candidates))
    fields = lines[i].split()
    d = r.spec.d
    ncoords = d if fields[0] == "w" else 2 * d
    if mutation == "drop-field":
        del fields[data.draw(st.integers(1, len(fields) - 1))]
    elif mutation == "non-integer":
        j = data.draw(st.integers(1, ncoords))
        fields[j] = data.draw(st.sampled_from(["x", "1.5", "1e3", "--1", "0x10", "nan", "3a"]))
    elif mutation == "outside-box":
        j = data.draw(st.integers(1, ncoords))
        lo = r.spec.origin[(j - 1) % d]
        past = data.draw(st.sampled_from([1, 3, 2 ** 63]))  # 2**63 overflows int64
        fields[j] = str(data.draw(st.sampled_from([lo - past, lo + r.spec.side - 1 + past])))
    else:
        fields = [fields[0], *fields[1 + d:], *fields[1:1 + d]]
    lines[i] = " ".join(fields)
    with pytest.raises(ParseError) as exc:
        _load_text("\n".join(lines) + "\n")
    assert exc.value.line_number == i + 1


def _percent_file(r) -> bytes:
    """The file as the writer that %-formatted every line wrote it: the oracle."""
    fmt = lambda x: repr(float(x))
    meta = (f"d={r.spec.d} alpha={fmt(r.params.alpha)} lambda={fmt(r.params.lambda_)} "
            f"tau={fmt(r.params.tau)} model={r.params.kind.value} L={r.spec.side} "
            f"seed={r.seed}")
    if any(c != 0 for c in r.spec.origin):
        meta += " origin=" + ",".join(str(c) for c in r.spec.origin)
    if r.trunc is not None:
        meta += f" trunc={fmt(r.trunc)}"
        if r.trunc_bias is not None:
            meta += f" truncbias={fmt(r.trunc_bias)}"
    lines = ["#sfp-box v1", meta]
    if r.weights is not None:
        for c, w in zip(r.spec.all_coords().tolist(), r.weights.tolist()):
            lines.append(("w" + " %d" * r.spec.d + " %r") % (*c, w))
    for ends in r.spec.coords_of(r.edges).reshape(-1, 2 * r.spec.d).tolist():
        lines.append(("e" + " %d" * (2 * r.spec.d)) % tuple(ends))
    return ("\n".join(lines) + "\n").encode()


@st.composite
def written_boxes(draw):
    """Realizations built by hand: any canonical edges, origins anywhere in int64."""
    d = draw(st.sampled_from([1, 2, 3]))
    side = draw(st.integers(2, MAX_SIDE[d]))
    axis = (st.sampled_from([-2 ** 63, 2 ** 63 - side, -1, 0]) | st.integers(-60, 60)
            | st.integers(-2 ** 63, 2 ** 63 - side))
    spec = BoxSpec(d=d, side=side, origin=tuple(draw(st.lists(axis, min_size=d, max_size=d))))
    kind = draw(st.sampled_from(list(ModelKind)))
    params = ModelParams(d=d, alpha=d + 0.5, lambda_=2.0, tau=2.5, kind=kind)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = spec.vertex_count
    weights = None
    if kind is not ModelKind.LRP:
        weights = np.minimum((1.0 - rng.random(n)) ** -draw(st.sampled_from([0.5, 40.0])), 1e300)
    pairs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    # Relative coordinates, so that the squared distances cannot wrap.
    steps = np.diff(spec.coords_of(pairs) - np.array(spec.origin), axis=1)
    nn = (kind is ModelKind.SFP_NN) & (np.sum(steps * steps, axis=-1)[:, 0] == 1)
    share = draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    edges = pairs[(rng.random(len(pairs)) < share) | nn].reshape(-1, 2)
    trunc = draw(st.none() | st.floats(1.0, 1e6))
    bias = None if trunc is None else draw(st.none() | st.floats(0.0, 1e9))
    return BoxRealization(spec=spec, params=params, seed=draw(st.integers(0, 2 ** 64 - 1)),
                          weights=weights, edges=edges, trunc=trunc, trunc_bias=bias)


@SETTINGS
@given(written_boxes(), st.sampled_from([1, 3, graph._CHUNK_LINES]))
def test_written_bytes_equal_the_percent_writer(r, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_CHUNK_LINES", chunk)
        path = _write("")
        try:
            save_realization(r, path)
            data = path.read_bytes()
            assert data == _percent_file(r)
            back = load_realization(path)
            assert _same(back, r)
            save_realization(back, path)
            assert path.read_bytes() == data
        finally:
            path.unlink()


def test_load_peak_is_the_arrays_plus_a_few_chunks(tmp_path, monkeypatch, shape="writer"):
    r = generate_box(ModelParams(d=2, alpha=3.0, lambda_=1.0, tau=2.5, kind=ModelKind.SFP), 7,
                     BoxSpec(d=2, side=64), cutoff=6.0)
    path = tmp_path / "box.txt"
    save_realization(r, path)
    # The writer's file, or a copy with CRLF line ends, tabs for spaces or its records shuffled.
    header, meta, *records = path.read_bytes().split(b"\n")[:-1]
    if shape == "tab":
        records = [rec.replace(b" ", b"\t") for rec in records]
    if shape == "shuffled":
        records = [records[i] for i in np.random.default_rng(1).permutation(len(records))]
    end = b"\r\n" if shape == "crlf" else b"\n"
    path.write_bytes(end.join([header, meta, *records, b""]))
    chunk = 1024
    lines = r.n_vertices + r.n_edges
    assert lines >= 30 * chunk
    monkeypatch.setattr(graph, "_CHUNK_LINES", chunk)
    tracemalloc.start()
    try:
        back = load_realization(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _same(back, r)
    # Beside the edges and weights: the flat indices, file-order weights
    # and sort order of the w lines, and 32 chunks' worth of text.  The
    # shuffled copy's edges are sorted after the parse: their file-order
    # pairs and the int64 sort order add 1.5 times the edges.
    bound = (back.edges.nbytes + 4 * back.weights.nbytes
             + 32 * chunk * path.stat().st_size // lines
             + (shape == "shuffled") * 3 * back.edges.nbytes // 2)
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("shape", ["crlf", "tab", "shuffled"])
def test_load_peak_of_a_copy_in_another_layout(shape, tmp_path, monkeypatch):
    test_load_peak_is_the_arrays_plus_a_few_chunks(tmp_path, monkeypatch, shape)
