"""The chunked parse of realization files.

`load_realization` parses every file in chunks of `graph._CHUNK_LINES`
lines, each in numpy (`graph._parse_chunk`) unless numpy cannot take it:
then that chunk alone goes through the per-line loop
(`graph._scan_records`), the reference that names the first bad line.

Guard: every file the writer makes, and its copies with CRLF line ends
or tabs for spaces, is parsed in numpy alone, checked by making the loop
raise, and its edges, already in order, are not sorted.  So is every
writer's file at any chunk size: one line, three lines, and as many
lines as, or one more than, the `w` lines.

Differential: a writer's file with one edit, each a token that int(),
float() and str.split() read differently from numpy, a line break that
str.splitlines() knows but the format does not, a byte that is not
UTF-8, or a change to the layout, loads the same realization, or raises
the same ParseError (line and message), as the loop alone over every
chunk, at the default chunk size and at chunks of 3 lines; so does a
fault that numpy parses, in a chunk after the first.
"""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest

from sfp import graph
from sfp.graph import BoxSpec, ParseError, generate_box, load_realization, save_realization
from sfp.params import ModelKind, validate_params


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def _same(a, b):
    return (a.spec == b.spec and a.params == b.params and a.seed == b.seed
            and _bits(a.edges) == _bits(b.edges) and _bits(a.weights) == _bits(b.weights)
            and repr(a.trunc) == repr(b.trunc) and repr(a.trunc_bias) == repr(b.trunc_bias))


def _boxes():
    sides = {1: 30, 2: 7, 3: 4}
    for kind, d in itertools.product(ModelKind, (1, 2, 3)):
        params = validate_params(d, d + 1.0, 2.0, 2.5, kind)
        yield f"{kind.value}-d{d}", generate_box(params, 3, BoxSpec(d=d, side=sides[d]))
        spec = BoxSpec(d=d, side=sides[d], origin=(-7,) + (5,) * (d - 1))
        yield f"{kind.value}-d{d}-origin-cutoff", generate_box(params, 4, spec, cutoff=2.5)
        if kind is not ModelKind.SFP_NN:  # sfpnn always has its lattice edges
            empty = generate_box(replace(params, lambda_=1e-300), 5, BoxSpec(d=d, side=3))
            assert empty.n_edges == 0
            yield f"{kind.value}-d{d}-no-edges", empty


BOXES = dict(_boxes())


def _no_loop(*args):
    raise AssertionError("a file in the writer's layout fell back to the per-line loop")


@pytest.mark.parametrize("name", sorted(BOXES))
def test_writer_files_take_the_numpy_path(name, tmp_path, monkeypatch, shape="writer"):
    # The loader sorts the keys of edges out of order with np.argsort, and
    # the flat indices of the w lines too, which never equal the edges' keys:
    # those of the writer's file, 0, 1, ..., n - 1, hold 0, which no edge
    # key (i * n + j, i < j) is.
    def sort(a, *args, **kwargs):
        if np.array_equal(a, keys):
            raise AssertionError("the writer's edges, already in order, were sorted")
        return argsort(a, *args, **kwargs)

    r = BOXES[name]
    keys, argsort = graph._pair_keys(*r.edges.T, r.n_vertices), np.argsort
    path = tmp_path / "box.txt"
    save_realization(r, path)
    header, meta, *records = path.read_bytes().split(b"\n")[:-1]
    if shape == "tab":
        records = [rec.replace(b" ", b"\t") for rec in records]
    end = b"\r\n" if shape == "crlf" else b"\n"
    path.write_bytes(end.join([header, meta, *records, b""]))
    monkeypatch.setattr(graph, "_scan_records", _no_loop)
    monkeypatch.setattr(np, "argsort", sort)
    assert _same(load_realization(path), r)


@pytest.mark.parametrize("shape", ["crlf", "tab"])
@pytest.mark.parametrize("name", sorted(BOXES))
def test_crlf_and_tab_copies_take_the_numpy_path(name, shape, tmp_path, monkeypatch):
    test_writer_files_take_the_numpy_path(name, tmp_path, monkeypatch, shape)


def _edit(lines, i, j, text):
    """Replace field j of line i (fields split on single spaces)."""
    fields = lines[i].split(" ")
    fields[j] = text
    lines[i] = " ".join(fields)


def _reverse(lines, i):
    """Swap the endpoints of the d=1 edge on line i."""
    tag, a, b = lines[i].split(" ")
    lines[i] = f"{tag} {b} {a}"


# A d=1 box of side 16: line i + 3 holds the weight of vertex i, and the
# first edge is on line 19.  Each case edits the lines in place and says
# whether the file still loads (None) or the line of its ParseError.
W, E = 2, 18
CASES = {
    "plus-sign": (lambda ls: (_edit(ls, W + 5, 1, "+5"),
                              _edit(ls, E, 2, "+" + ls[E].split()[2])), None),
    "leading-zeros": (lambda ls: _edit(ls, W + 7, 1, "007"), None),
    "coordinate-of-20-digits": (lambda ls: _edit(ls, W + 7, 1, "7".zfill(20)), None),
    "lone-minus": (lambda ls: _edit(ls, E + 2, 1, "-"), E + 3),
    "weight-of-40-characters": (lambda ls: _edit(ls, W + 9, 2, ls[W + 9].split()[2].rjust(40, "0")),
                                None),
    "underscore": (lambda ls: _edit(ls, W + 10, 1, "1_0"), None),
    "arabic-indic-digit": (lambda ls: _edit(ls, W + 3, 1, "٣"), None),
    "nbsp-separator": (lambda ls: ls.__setitem__(W + 4, ls[W + 4].replace(" ", "\xa0", 1)),
                       None),
    "vt-separator": (lambda ls: ls.__setitem__(E, ls[E].replace(" ", "\v", 2)), E + 1),
    "ff-separator": (lambda ls: ls.__setitem__(W + 6, ls[W + 6].replace(" ", "\f")), W + 7),
    "blank-line": (lambda ls: ls.insert(E, ""), None),
    "blank-line-then-fault": (lambda ls: (ls.insert(E, ""), _reverse(ls, E + 2)), E + 3),
    "edge-before-weights": (lambda ls: ls.insert(W, ls.pop(E)), None),
    "comment": (lambda ls: ls.__setitem__(E, ls[E] + " # note"), E + 1),
    "ew-tag": (lambda ls: _edit(ls, E, 0, "ew"), E + 1),
    "extra-field": (lambda ls: ls.__setitem__(W + 6, ls[W + 6] + " 7"), W + 7),
    "coordinate-2^63": (lambda ls: _edit(ls, E, 2, str(2 ** 63)), E + 1),
    "weight-nan": (lambda ls: _edit(ls, W + 9, 2, "nan"), W + 10),
    "weight-inf": (lambda ls: _edit(ls, W + 9, 2, "inf"), W + 10),
    "weight-1e400": (lambda ls: _edit(ls, W + 9, 2, "1e400"), W + 10),
    "weight-underscore": (lambda ls: _edit(ls, W + 9, 2, "1_0.5"), None),
    "repeated-edge": (lambda ls: ls.insert(E + 4, ls[E + 1]), E + 5),
    "byte-0xff": (lambda ls: ls.__setitem__(E + 6, ls[E + 6] + "\udcff"), E + 7),
}
# A line break of str.splitlines() other than "\n" after the last field
# is trailing whitespace: a later fault keeps its line.  Before a field
# (here the last) it is rejected at its own line.
BREAKS = {"vt": "\v", "ff": "\f", "fs": "\x1c", "gs": "\x1d", "rs": "\x1e", "nel": "\x85",
          "ls": "\u2028", "ps": "\u2029", "cr": "\r"}
for _name, _ch in BREAKS.items():
    CASES[f"trailing-{_name}-then-fault"] = (
        lambda ls, ch=_ch: (ls.__setitem__(W + 3, ls[W + 3] + ch), _reverse(ls, E + 2)), E + 3)
    CASES[f"{_name}-inside-then-fault"] = (
        lambda ls, ch=_ch: (ls.__setitem__(E + 1, ch.join(ls[E + 1].rsplit(" ", 1))),
                            _reverse(ls, E + 2)), E + 2)


def _outcome(path):
    try:
        return "loads", load_realization(path)
    except ParseError as exc:
        return "raises", (exc.line_number, str(exc))


def _edited_file(tmp_path, edit, newline="\n"):
    """The d=1 box of side 16 as the writer writes it, lines edited in place."""
    r = generate_box(validate_params(1, 1.5, 2.0, 2.5), 9, BoxSpec(d=1, side=16))
    path = tmp_path / "box.txt"
    save_realization(r, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[E].startswith("e ") and lines[E - 1].startswith("w 15 ")
    assert len(lines) > E + 9
    edit(lines)
    # surrogateescape writes a lone surrogate \udcXX as the raw byte 0xXX.
    path.write_bytes(newline.join(lines + [""]).encode("utf-8", "surrogateescape"))
    return path


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_edited_writer_file_loads_as_the_loop_does(case, newline, tmp_path, monkeypatch):
    edit, expect_line = CASES[case]
    path = _edited_file(tmp_path, edit, newline)
    got = _outcome(path)
    monkeypatch.setattr(graph, "_parse_chunk", lambda *args: None)
    want = _outcome(path)
    if expect_line is None:
        assert got[0] == want[0] == "loads", got
        assert _same(got[1], want[1])
    else:
        assert got == want
        assert got[1][0] == expect_line


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_edited_writer_file_in_chunks_of_3_lines_loads_as_the_loop_does(case, newline, tmp_path,
                                                                        monkeypatch):
    monkeypatch.setattr(graph, "_CHUNK_LINES", 3)
    test_edited_writer_file_loads_as_the_loop_does(case, newline, tmp_path, monkeypatch)


@pytest.mark.parametrize("chunk", ["1", "3", "to-last-weight", "past-last-weight"])
@pytest.mark.parametrize("name", sorted(BOXES))
def test_any_chunk_size_loads_as_the_loop_does(name, chunk, tmp_path, monkeypatch):
    r = BOXES[name]
    path = tmp_path / "box.txt"
    save_realization(r, path)
    n = r.n_vertices  # the w lines of a weighted box
    k = {"1": 1, "3": 3, "to-last-weight": n, "past-last-weight": n + 1}[chunk]
    monkeypatch.setattr(graph, "_CHUNK_LINES", k)
    with monkeypatch.context() as m:
        m.setattr(graph, "_parse_chunk", lambda *args: None)
        want = load_realization(path)
    monkeypatch.setattr(graph, "_scan_records", _no_loop)
    got = load_realization(path)
    assert _same(got, want) and _same(got, r)


# Faults that keep the writer's layout, each after the first chunk of 3
# lines, and the line of their ParseError.
LAYOUT_FAULTS = {
    "weight-outside": (lambda ls: _edit(ls, W + 10, 1, "-1"), W + 11),
    "weight-below-1": (lambda ls: _edit(ls, W + 10, 2, "0.5"), W + 11),
    "weight-nan": (lambda ls: _edit(ls, W + 10, 2, "nan"), W + 11),
    "weight-1e400": (lambda ls: _edit(ls, W + 10, 2, "1e400"), W + 11),
    "duplicate-weight": (lambda ls: _edit(ls, W + 10, 1, "3"), W + 11),
    "edge-outside": (lambda ls: _edit(ls, E + 9, 2, "99"), E + 10),
    "edge-below-origin": (lambda ls: _edit(ls, E + 9, 1, "-3"), E + 10),
    "reversed-edge": (lambda ls: _reverse(ls, E + 9), E + 10),
    "self-loop": (lambda ls: _edit(ls, E + 9, 2, ls[E + 9].split()[1]), E + 10),
    "duplicate-edge": (lambda ls: ls.__setitem__(E + 9, ls[E + 8]), E + 10),
    "outside-before-bad-weight": (lambda ls: (_edit(ls, W + 4, 2, "0.5"),
                                              _edit(ls, E + 9, 2, "99")), E + 10),
}


@pytest.mark.parametrize("case", sorted(LAYOUT_FAULTS))
def test_a_fault_in_a_later_chunk_is_reported_as_the_loop_does(case, tmp_path, monkeypatch):
    edit, expect_line = LAYOUT_FAULTS[case]
    path = _edited_file(tmp_path, edit)
    monkeypatch.setattr(graph, "_CHUNK_LINES", 3)
    with monkeypatch.context() as m:
        m.setattr(graph, "_parse_chunk", lambda *args: None)
        want = _outcome(path)
    monkeypatch.setattr(graph, "_scan_records", _no_loop)
    got = _outcome(path)
    assert got == want
    assert got[0] == "raises" and got[1][0] == expect_line


def test_a_file_without_its_last_newline_loads_as_the_loop_does(tmp_path, monkeypatch):
    r = BOXES["sfp-d2"]
    path = tmp_path / "box.txt"
    save_realization(r, path)
    path.write_bytes(path.read_bytes()[:-1])
    for chunk in (3, graph._CHUNK_LINES):  # a last chunk of 2 lines, and one chunk
        monkeypatch.setattr(graph, "_CHUNK_LINES", chunk)
        assert _same(load_realization(path), r)


def test_a_weight_line_in_an_lrp_file_is_refused_as_the_loop_does(tmp_path, monkeypatch):
    r = BOXES["lrp-d1"]
    path = tmp_path / "box.txt"
    save_realization(r, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(4, "w 3 2.0")
    path.write_text("\n".join(lines + [""]), encoding="utf-8")
    got = _outcome(path)
    monkeypatch.setattr(graph, "_parse_chunk", lambda *args: None)
    assert got == _outcome(path) == ("raises", (5, "line 5: weight line in a weightless model"))


def test_swapped_edge_lines_load_the_writers_edges(tmp_path):
    # The file keeps the writer's layout, so only the edge order check sends it to the sort.
    r = generate_box(validate_params(1, 1.5, 2.0, 2.5), 9, BoxSpec(d=1, side=16))
    path = tmp_path / "box.txt"
    save_realization(r, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[E + 1], lines[E + 3] = lines[E + 3], lines[E + 1]
    path.write_text("\n".join(lines + [""]), encoding="utf-8")
    assert _same(load_realization(path), r)


def test_blank_lines_alone_load_without_a_warning(tmp_path):
    path = tmp_path / "box.txt"
    save_realization(BOXES["lrp-d1-no-edges"], path)
    path.write_text(path.read_text(encoding="utf-8") + "\n \n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _same(load_realization(path), BOXES["lrp-d1-no-edges"])
