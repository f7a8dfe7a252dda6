"""The two-pass parse of realization files in the writer's layout.

`load_realization` parses a file laid out as `save_realization` writes
it with two numpy passes (`graph._scan_layout`), and any other file with
the per-line loop (`graph._scan_records`), the reference that names the
first bad line.

Guard: every file the writer makes takes the numpy path, checked by
making the loop raise, and its edges, already in order, are not sorted.

Differential: a writer's file with one edit, each a token that int(),
float() and str.split() read differently from numpy or a change to the
layout, loads the same realization, or raises the same ParseError (line
and message), as the loop alone.
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


@pytest.mark.parametrize("name", sorted(BOXES))
def test_writer_files_take_the_numpy_path(name, tmp_path, monkeypatch):
    def loop(*args):
        raise AssertionError("a file in the writer's layout fell back to the per-line loop")

    def sort(*args):
        raise AssertionError("the writer's edges, already in order, were sorted")

    r = BOXES[name]
    path = tmp_path / "box.txt"
    save_realization(r, path)
    monkeypatch.setattr(graph, "_scan_records", loop)
    monkeypatch.setattr(np, "lexsort", sort)
    assert _same(load_realization(path), r)


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
}


def _outcome(path):
    try:
        return "loads", load_realization(path)
    except ParseError as exc:
        return "raises", (exc.line_number, str(exc))


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_edited_writer_file_loads_as_the_loop_does(case, newline, tmp_path, monkeypatch):
    r = generate_box(validate_params(1, 1.5, 2.0, 2.5), 9, BoxSpec(d=1, side=16))
    path = tmp_path / "box.txt"
    save_realization(r, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[E].startswith("e ") and lines[E - 1].startswith("w 15 ")
    assert len(lines) > E + 4
    edit, expect_line = CASES[case]
    edit(lines)
    path.write_bytes(newline.join(lines + [""]).encode("utf-8"))

    got = _outcome(path)
    monkeypatch.setattr(graph, "_scan_layout", lambda *args: None)
    want = _outcome(path)
    if expect_line is None:
        assert got[0] == want[0] == "loads", got
        assert _same(got[1], want[1])
    else:
        assert got == want
        assert got[1][0] == expect_line


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
