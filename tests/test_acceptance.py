"""Acceptance suite: every criterion at its declared size and tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all;
failures carry the line in the assertion message).  All Monte-Carlo
inputs are keyed off fixed seeds, so outcomes are reproducible bit for
bit.

Criterion 10 checks the second moment against its exact leading term:
at the declared parameters the moment is
m(r) = r^-2.25 (9 log r - 8) + 9 r^-3, so m(r) ~ L r^-2.25 log r with
L = 9 computed from the parameters, and g(r) = m(r) r^2.25 / (L log r)
runs from 0.575 at r=2 to 0.920 at r=2^16.  The criterion asserts g in
[1/3, 1] on r in [2, 2^16]: within the declared factor 3 of the
asymptote, approached from below.
"""

import subprocess
import sys

import sfp.verify as verify


def _check(result, time_limit):
    line = (f"ACCEPTANCE {result.cid:>2} {result.name}: "
            f"{'PASS' if result.passed else 'FAIL'} "
            f"({result.elapsed:.1f}s / limit {time_limit:.0f}s)")
    print(line)
    print(f"    {result.detail}")
    assert result.elapsed < time_limit, f"{line} exceeded its runtime limit"
    assert result.passed, f"{line}\n    {result.detail}"


def test_criterion_01_exponent_identities():
    _check(verify.criterion_exponent_identities(seed=0), 1.0)


def test_criterion_02_closed_form_vs_oracle():
    _check(verify.criterion_closed_form_vs_oracle(), 10.0)


def test_criterion_03_adjacent_sandwich():
    _check(verify.criterion_adjacent_sandwich(seed=0, replicates=1_000_000), 60.0)


def test_criterion_04_adjacent_decay_slope():
    _check(verify.criterion_adjacent_decay(seed=0, threads=0), 300.0)


def test_criterion_05_coupling_domination():
    _check(verify.criterion_coupling(seed=0, n_seeds=100, side=256), 60.0)


def test_criterion_06_degree_tail():
    _check(verify.criterion_degree_tail(seed=0, threads=0), 300.0)


def test_criterion_07_bridge_slope():
    _check(verify.criterion_bridge_slope(seed=0, threads=0), 600.0)


def test_criterion_08_fkg():
    _check(verify.criterion_fkg(seed=0, threads=0), 300.0)


def test_criterion_09_hierarchy_machinery():
    _check(verify.criterion_hierarchy_machinery(), 1.0)


def test_criterion_10_second_moment_shape():
    # g(r) = m(r) r^2.25 / (9 log r) must lie in [1/3, 1]; the exact
    # moment gives 0.575..0.920 (see the module docstring).
    _check(verify.criterion_second_moment_shape(), 10.0)


def test_criterion_10_rejects_wrong_moments(monkeypatch):
    # The check must see a missing log factor and a wrong constant: the
    # pure power gives g from 0.09 to 1.44, 2x the moment 1.15..1.84 and
    # half of it 0.29..0.46, each outside [1/3, 1].
    true_moment = verify.single_edge_second_moment
    wrong = {
        "pure-power": lambda p, r: 9.0 * r ** -2.25,
        "doubled": lambda p, r: 2.0 * true_moment(p, r),
        "halved": lambda p, r: 0.5 * true_moment(p, r),
    }
    for name, moment in wrong.items():
        monkeypatch.setattr(verify, "single_edge_second_moment", moment)
        result = verify.criterion_second_moment_shape()
        print(f"criterion 10 with the {name} moment: {result.detail}")
        assert result.passed is False, name


def test_criterion_11_distance_property_suite():
    _check(verify.criterion_distance_suite(seed=0, threads=0, full_scale=True), 900.0)


def test_criterion_12_determinism_across_threads(tmp_path):
    # Same seed, different worker counts: the CSV body (everything except
    # the #wallclock and #threads lines) must be byte-identical.
    def body(path):
        return [l for l in path.read_text().splitlines()
                if not (l.startswith("#wallclock") or l.startswith("#threads"))]

    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"verify-t{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sfp.cli", "verify", "--quick",
             "--seed", "0", "--threads", threads, "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    identical = body(outs[0]) == body(outs[1])
    print(f"ACCEPTANCE 12 determinism-across-threads: "
          f"{'PASS' if identical else 'FAIL'}")
    assert identical
