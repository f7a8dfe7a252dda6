"""Property tests of the realization file format v1 (save and load).

Round trip: over model kind x d in {1, 2, 3} x side x origin (negative
coordinates included) x cutoff or none x seed, `load(save(r))` equals
`r` bit for bit and `save(load(f))` rewrites the bytes of `f`.

Fuzz: one record line of a valid file is changed.  Whitespace changes
and any reordering of the records load the same realization; a dropped
field, a non-integer token, an out-of-box coordinate or reversed edge
endpoints raise ParseError naming that line, and no other exception.

The examples are derandomized, so every run checks the same cases.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sfp.graph import BoxSpec, ParseError, generate_box, load_realization, save_realization
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

