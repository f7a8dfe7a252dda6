import math
from dataclasses import replace

import numpy as np
import pytest

from sfp import experiments
from sfp.experiments import (ExperimentConfig, FitUndefined, _pareto_into,
                             _path_estimates, _replicate_states, hill_estimator, loglog_slope,
                             run_adjacent_mc,
                             run_bridge_experiment, run_coupling_check,
                             run_degree_experiment, run_distance_experiment,
                             run_fkg_check)
from sfp.graph import BoxRealization, BoxSpec
from sfp.moments import adjacent_expectation_exact
from sfp.params import MAX_WORKERS, ModelKind, ParameterError, validate_params
from sfp.randomness import experiment_uniforms, pareto_from_uniform

P = validate_params(1, 1.5, 1.0, 2.5)


class TestHill:
    def test_recovers_synthetic_pareto(self):
        theta = 2.0
        u = experiment_uniforms(77, np.arange(1_000_000, dtype=np.uint64))
        x = u ** (-1.0 / theta)
        est = hill_estimator(x, 10_000)
        assert abs(est.mean - theta) <= 3.0 * est.stderr

    def test_stderr_is_estimate_over_sqrt_k(self):
        x = pareto_from_uniform(experiment_uniforms(3, np.arange(10_000, dtype=np.uint64)), 2.5)
        est = hill_estimator(x, 400)
        assert est.stderr == est.mean / math.sqrt(400)

    def test_constant_samples_error(self):
        with pytest.raises(ValueError):
            hill_estimator(np.full(1000, 7.0), 100)

    def test_scale_invariance(self):
        x = pareto_from_uniform(experiment_uniforms(9, np.arange(50_000, dtype=np.uint64)), 3.0)
        assert hill_estimator(x, 1000).mean == hill_estimator(2.0 * x, 1000).mean

    def test_k_too_large(self):
        with pytest.raises(ValueError, match=r"^need 1 <= k < n, got k=99, n=99$"):
            hill_estimator(np.arange(1.0, 100.0), 99)
        with pytest.raises(ValueError, match=r"^need 1 <= k < n, got k=0, n=99$"):
            hill_estimator(np.arange(1.0, 100.0), 0)


class TestLogLogSlope:
    def test_exact_power_law(self):
        pts = [(x, x ** -2.0) for x in (1.0, 2.0, 4.0, 8.0, 16.0)]
        est = loglog_slope(pts)
        assert abs(est.mean + 2.0) < 1e-12
        assert est.stderr < 1e-12

    def test_too_few_points(self):
        with pytest.raises(FitUndefined, match="need at least 3 points"):
            loglog_slope([(1.0, 1.0)])

    def test_nonpositive_point(self):
        with pytest.raises(FitUndefined, match="strictly positive coordinates"):
            loglog_slope([(1.0, 1.0), (2.0, 0.0), (3.0, 1.0)])

    def test_noisy_recovery_within_3_se(self):
        rng = np.random.default_rng(2)
        x = np.logspace(0, 3, 40)
        y = x ** -1.7 * np.exp(rng.normal(0, 0.05, size=40))
        est = loglog_slope(np.stack([x, y], axis=1))
        assert abs(est.mean + 1.7) <= 3.0 * est.stderr


class TestAdjacentMC:
    def test_replicates_zero_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(params=P, replicates=0)

    def test_short_sweep_flags_the_skipped_slope(self):
        cfg = ExperimentConfig(params=P, seed=0, replicates=1000)
        rep = run_adjacent_mc(cfg, 20.0, 5.0, sweep_ryz=(8.0, 16.0))
        assert [v.rule for v in rep.verdicts] == ["sandwich-3se"]
        assert rep.flags == ["decay-slope skipped: 2 sweep points, the fit needs 3"]
        assert "#flag decay-slope skipped" in rep.to_csv()
        assert run_adjacent_mc(cfg, 20.0, 5.0, sweep_ryz=(8.0, 16.0, 32.0)).flags == []

    def test_repeated_sweep_point_rejected(self):
        with pytest.raises(ParameterError, match="must not repeat"):
            run_adjacent_mc(ExperimentConfig(params=P, replicates=1000), 20.0, 5.0,
                            sweep_ryz=(8.0, 8.0, 16.0))

    def test_point_estimate_in_sandwich(self):
        cfg = ExperimentConfig(params=P, seed=0, replicates=200_000)
        rep = run_adjacent_mc(cfg, 100.0 ** (2 / 3), 10.0 ** (2 / 3), sweep_ryz=())
        assert rep.verdict("sandwich-3se").passed
        kind, rxy, ryz, est, se, n = rep.rows[0]
        exact = adjacent_expectation_exact(P, 100.0 ** (2 / 3), 10.0 ** (2 / 3))
        assert exact.lower - 3 * se <= est <= exact.upper + 3 * se

    def test_thread_count_does_not_change_report(self):
        cfg1 = ExperimentConfig(params=P, seed=5, replicates=200_000, threads=1)
        cfg3 = ExperimentConfig(params=P, seed=5, replicates=200_000, threads=3)
        r1 = run_adjacent_mc(cfg1, 20.0, 5.0, sweep_ryz=(8.0, 16.0, 32.0))
        r3 = run_adjacent_mc(cfg3, 20.0, 5.0, sweep_ryz=(8.0, 16.0, 32.0))
        assert r1.rows == r3.rows
        assert [(v.rule, v.passed) for v in r1.verdicts] == \
            [(v.rule, v.passed) for v in r3.verdicts]

    def test_tau_out_of_range(self):
        with pytest.raises(ParameterError, match="closed form requires tau in"):
            run_adjacent_mc(ExperimentConfig(params=validate_params(1, 1.5, 1.0, 3.5),
                                             replicates=10), 10.0, 5.0)


class TestFkg:
    def test_lrp_factorizes_exactly(self):
        p = replace(P, kind=ModelKind.LRP)
        cfg = ExperimentConfig(params=p, seed=0, replicates=1000)
        rep = run_fkg_check(cfg, [(0,), (7,), (15,), (40,)])
        assert rep.all_pass
        for cut, p_path, se_path, p_head, p_tail, prod, se in rep.rows:
            # Constant per-replicate values: the only residue is float
            # cancellation in the sum-of-squares accumulator, of order
            # sqrt(machine epsilon) relative.
            assert se <= 1e-7 * p_path
            assert abs(p_path - prod) <= 1e-12 * (p_path + prod)

    def test_sfp_product_bound_holds(self):
        cfg = ExperimentConfig(params=P, seed=1, replicates=300_000)
        rep = run_fkg_check(cfg, [(0,), (9,), (14,), (30,)])
        assert rep.all_pass
        assert len(rep.rows) == 2  # cuts at the two interior vertices

    def test_length_two_path_matches_adjacent_sandwich(self):
        for kind in (ModelKind.SFP, ModelKind.LRP):
            cfg = ExperimentConfig(params=replace(P, kind=kind), seed=2, replicates=400_000)
            cut, p_path, se_path, *_ = run_fkg_check(cfg, [(0,), (22,), (27,)]).rows[0]
            if kind is ModelKind.SFP:
                # Adjacent is the two-edge case of the same path kernel, bit for bit.
                adjacent = run_adjacent_mc(cfg, 22.0, 5.0, sweep_ryz=())
                assert adjacent.rows[0][3:5] == (p_path, se_path)
                exact = adjacent_expectation_exact(P, 22.0, 5.0)
                assert exact.lower - 3 * se_path <= p_path <= exact.upper + 3 * se_path
            else:  # adjacent runs SFP only
                path = _path_estimates(cfg, 0, [22.0, 5.0])[0][0]
                assert (path.mean, path.stderr) == (p_path, se_path)

    def test_path_too_long(self):
        cfg = ExperimentConfig(params=P, replicates=10)
        with pytest.raises(ParameterError, match="path must have 2..6 edges, got 7"):
            run_fkg_check(cfg, [(i,) for i in range(0, 80, 10)])  # 7 edges
        with pytest.raises(ParameterError, match="path must have 2..6 edges, got 1"):
            run_fkg_check(cfg, [(0,), (5,)])  # single edge has no cut

    @pytest.mark.parametrize("path", [[(0,), (1,), (0,)], [(0,), (5,), (10,), (5,)],
                                      [(0, 0), (0, 0), (3, 4)]],
                             ids=["back-and-forth", "revisit", "consecutive"])
    def test_repeated_vertex_is_rejected(self, path):
        # The kernel keys weights by slot, so a revisited vertex would get
        # two independent weights and the estimate would be wrong.
        p = validate_params(len(path[0]), 1.5, 1.0, 2.5)
        with pytest.raises(ParameterError, match="path repeats a vertex"):
            run_fkg_check(ExperimentConfig(params=p, replicates=10), path)


def _body_but_model(rep):
    return [line for line in rep.to_csv().splitlines()
            if not line.startswith(("#config model=", "#wallclock="))]


class TestSfpnn:
    NN = replace(P, kind=ModelKind.SFP_NN)

    def test_unit_edge_opens_surely(self):
        cfg = ExperimentConfig(params=self.NN, replicates=20_000)
        cut, p_path, se_path, p_head, p_tail, prod, se = run_fkg_check(
            cfg, [(0,), (1,), (5,)]).rows[0]
        assert p_head == 1.0 and p_path == p_tail == prod
        path, head, tail = _path_estimates(cfg, 0, [1.0, 4.0])[0]
        assert (head.mean, head.stderr) == (1.0, 0.0)
        assert path == tail

    def test_path_without_unit_edge_is_sfp(self):
        path = [(0,), (17,), (-5,), (30,)]
        nn = run_fkg_check(ExperimentConfig(params=self.NN, replicates=20_000), path)
        sfp = run_fkg_check(ExperimentConfig(params=P, replicates=20_000), path)
        assert _body_but_model(nn) == _body_but_model(sfp)

    def test_adjacent_differs_from_sfp_only_at_a_unit_edge(self):
        # It does not run at all: the sandwich and the decay target are SFP's.
        # test_unit_edge_opens_surely covers the kernel's unit edge.
        cfg = ExperimentConfig(params=replace(self.NN, lambda_=0.5), replicates=20_000)
        with pytest.raises(ParameterError, match="^adjacent supports only --model sfp, got sfpnn$"):
            run_adjacent_mc(cfg, 1.0, 0.8, sweep_ryz=())


def test_tile_weights_equal_the_pareto_oracle_bit_for_bit():
    rng = np.random.default_rng(21)
    for tau in (1.5, 2.0, 2.5, 3.0, 3.5):
        for _ in range(8):
            seed, point = int(rng.integers(0, 2 ** 63)), int(rng.integers(0, 10))
            lo = int(rng.integers(0, 100_000))
            hi = lo + int(rng.integers(1, 300))
            slot0, width = int(rng.integers(0, 5)), int(rng.integers(1, 70))
            reps = np.arange(lo, hi, dtype=np.uint64)[:, None]
            slots = np.arange(slot0, slot0 + width, dtype=np.uint64)[None, :]
            want = pareto_from_uniform(
                experiment_uniforms(seed, np.uint64(point), reps, slots), tau)
            states = _replicate_states(seed, point, lo, hi)[:, None]
            out, tmp = np.empty((2, hi - lo, width), np.uint64)
            got = _pareto_into(states, slots, tau, out, tmp)
            assert np.shares_memory(got, out)
            assert np.array_equal(got, want)
            # A single slot drawn as a scalar key on a 1-D state column.
            col = _pareto_into(states[:, 0], np.uint64(slot0), tau,
                               np.empty(hi - lo, np.uint64), np.empty(hi - lo, np.uint64))
            assert np.array_equal(col, want[:, 0])


class TestBridge:
    @pytest.mark.parametrize("kind", [ModelKind.LRP, ModelKind.SFP_NN])
    def test_other_model_kinds_rejected(self, kind):
        cfg = ExperimentConfig(params=replace(P, kind=kind), replicates=10)
        with pytest.raises(ParameterError, match="bridge supports only --model sfp"):
            run_bridge_experiment(cfg, beta=0.5)

    def test_geometry_degenerate_flagged(self):
        cfg = ExperimentConfig(params=P, seed=0, replicates=100)
        rep = run_bridge_experiment(cfg, beta=0.5, n_list=(4,))
        assert any("GeometryDegenerate" in f for f in rep.flags)
        assert rep.rows == []

    def test_short_n_list_flags_the_skipped_slope(self):
        cfg = ExperimentConfig(params=P, seed=0, replicates=1000)
        rep = run_bridge_experiment(cfg, beta=0.5, n_list=(64, 128))
        assert [v.rule for v in rep.verdicts] == ["positive-mass"]
        assert rep.flags == ["bridge-slope skipped: 2 N values, the fit needs 3"]
        assert "#flag bridge-slope skipped" in rep.to_csv()
        assert run_bridge_experiment(cfg, beta=0.5, n_list=(64, 128, 256)).flags == []

    def test_beta_out_of_range(self):
        cfg = ExperimentConfig(params=P, replicates=10)
        with pytest.raises(ParameterError, match="beta must lie in"):
            run_bridge_experiment(cfg, beta=1.0)

    def test_slope_magnitude_shrinks_as_beta_grows(self):
        # Targets 1.75 (beta 0.5) vs 1.55 (beta 0.7); the cube must stay
        # clear of the endpoints, which bounds beta for these N.
        cfg = ExperimentConfig(params=P, seed=0, replicates=100_000)
        lo = run_bridge_experiment(cfg, beta=0.5, n_list=(256, 512, 1024))
        hi = run_bridge_experiment(cfg, beta=0.7, n_list=(256, 512, 1024))
        def slope(rep):
            pts = [(row[0], row[2]) for row in rep.rows]
            from sfp.experiments import loglog_slope
            return loglog_slope(pts).mean
        assert abs(slope(hi)) < abs(slope(lo))

    def test_positive_mass(self):
        cfg = ExperimentConfig(params=P, seed=0, replicates=50_000)
        rep = run_bridge_experiment(cfg, beta=0.5, n_list=(64, 128, 256))
        assert rep.verdict("positive-mass").passed


class TestCoupling:
    def test_no_violations_same_intensity(self):
        cfg = ExperimentConfig(params=P, spec=BoxSpec(d=1, side=100), seed=0,
                               replicates=10)
        rep = run_coupling_check(cfg)
        assert rep.verdict("coupling-domination").passed
        assert all(row[1] == 0 for row in rep.rows)

    def test_mismatched_intensity_counts_only(self):
        cfg = ExperimentConfig(params=replace(P, lambda_=0.2),
                               spec=BoxSpec(d=1, side=200), seed=0, replicates=10)
        rep = run_coupling_check(cfg, lambda_lrp=3.0)
        assert rep.verdicts == []
        assert sum(row[1] for row in rep.rows) > 0

    def test_thread_invariance(self):
        cfg1 = ExperimentConfig(params=P, spec=BoxSpec(d=1, side=128), seed=7,
                                replicates=24, threads=1)
        cfg4 = replace(cfg1, threads=4)
        assert run_coupling_check(cfg1).rows == run_coupling_check(cfg4).rows


class TestDegrees:
    def test_insufficient_tail_flag(self):
        cfg = ExperimentConfig(params=P, spec=BoxSpec(d=1, side=4), seed=0)
        rep = run_degree_experiment(cfg)
        assert any("InsufficientTail" in f for f in rep.flags)
        assert rep.verdicts == []

    def test_requires_alpha_above_d(self):
        cfg = ExperimentConfig(params=validate_params(1, 0.8, 1.0, 4.0),
                               spec=BoxSpec(d=1, side=100), seed=0)
        with pytest.raises(ValueError):
            run_degree_experiment(cfg)

    def test_margin_checked_before_any_box(self, monkeypatch):
        def no_box(*args, **kwargs):
            raise AssertionError("a box was generated")
        monkeypatch.setattr(experiments, "generate_box", no_box)
        cfg = ExperimentConfig(params=P, spec=BoxSpec(d=1, side=100), seed=0,
                               replicates=2, threads=2)
        with pytest.raises(ParameterError, match="margin must satisfy"):
            run_degree_experiment(cfg, margin=50)

    def test_small_box_estimate_in_broad_band(self):
        # Desk-size sanity run; the tight tolerance lives in the
        # acceptance suite at L = 1e5.
        p = validate_params(1, 1.5, 1.0, 3.5)
        cfg = ExperimentConfig(params=p, spec=BoxSpec(d=1, side=20_000), seed=0)
        rep = run_degree_experiment(cfg, margin=500, hill_k=1_200, cutoff=10_000.0)
        name, estimate = rep.rows[0][:2]
        assert name == "hill" and abs(estimate - rep.config["gamma"]) <= 0.6


class TestDistances:
    def test_tiny_cluster_flag(self):
        p = validate_params(1, 1.5, 1e-6, 2.5)
        cfg = ExperimentConfig(params=p, spec=BoxSpec(d=1, side=256), seed=0)
        rep = run_distance_experiment(cfg, n_list=[16, 32])
        assert any("LargestClusterTiny" in f for f in rep.flags)
        assert rep.rows == []

    def test_coupled_domination_small(self):
        p = validate_params(1, 1.5, 5.0, 3.5)
        cfg = ExperimentConfig(params=p, spec=BoxSpec(d=1, side=1024), seed=0)
        rep = run_distance_experiment(cfg, n_list=[16, 32, 64, 128], n_sources=12,
                                      compare_lrp=True)
        assert rep.verdict("coupled-median-domination").passed

    @pytest.mark.parametrize("n_sources", [0, -2])
    def test_fewer_than_one_source_is_refused_before_any_box(self, monkeypatch, n_sources):
        # 0 divided by zero and -2 measured every candidate but the last two.
        def no_box(*args, **kwargs):
            raise AssertionError("a box was generated")
        monkeypatch.setattr(experiments, "generate_box", no_box)
        monkeypatch.setattr(experiments, "coupled_pair", no_box)
        cfg = ExperimentConfig(params=P, spec=BoxSpec(d=1, side=256), seed=0)
        for compare_lrp in (False, True):
            with pytest.raises(ParameterError, match=f"need at least one source, got {n_sources}"):
                run_distance_experiment(cfg, n_list=[16, 32], n_sources=n_sources,
                                        compare_lrp=compare_lrp)

    def test_separation_must_fit(self):
        cfg = ExperimentConfig(params=P, spec=BoxSpec(d=1, side=64), seed=0)
        with pytest.raises(ValueError):
            run_distance_experiment(cfg, n_list=[64])

    def test_default_separations_are_16_to_1024(self):
        p = validate_params(1, 1.5, 5.0, 3.5)
        rep = run_distance_experiment(ExperimentConfig(params=p, spec=BoxSpec(d=1, side=1100)),
                                      n_sources=4)
        assert rep.config["n_list"] == "16,32,64,128,256,512,1024"
        assert [row[1] for row in rep.rows] == [16, 32, 64, 128, 256, 512, 1024]

    def test_two_separations_leave_the_polylog_fit_unavailable(self):
        p = validate_params(1, 1.5, 5.0, 3.5)
        rep = run_distance_experiment(ExperimentConfig(params=p, spec=BoxSpec(d=1, side=64)),
                                      n_list=[16, 32])
        assert len(rep.rows) == 2
        assert rep.flags == ["polylog-exponent-estimate unavailable"]

    def test_no_source_row_in_the_largest_cluster_is_a_runtime_error(self, monkeypatch):
        lrp = replace(P, kind=ModelKind.LRP)
        spec = BoxSpec(d=1, side=64)
        # The largest cluster is the path 20 - 21 - ... - 63; a source for
        # N = 48 must lie in rows 0..15.
        edges = np.column_stack((np.arange(20, 63), np.arange(21, 64))).astype(np.int64)
        box = BoxRealization(spec=spec, params=lrp, seed=0, weights=None, edges=edges)
        monkeypatch.setattr(experiments, "generate_box", lambda *args, **kwargs: box)
        with pytest.raises(RuntimeError, match="^no largest-cluster vertex leaves room for "
                                               "the largest separation$"):
            run_distance_experiment(ExperimentConfig(params=lrp, spec=spec), n_list=[16, 32, 48])


def test_report_csv_shape():
    cfg = ExperimentConfig(params=P, seed=0, replicates=1000)
    rep = run_adjacent_mc(cfg, 20.0, 5.0, sweep_ryz=())
    text = rep.to_csv()
    lines = text.splitlines()
    assert lines[0] == "#experiment=adjacent"
    assert any(l.startswith("#config seed=0") for l in lines)
    assert any(l.startswith("#verdict sandwich-3se") for l in lines)
    assert lines[-1].startswith("#wallclock=")
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "kind,r_xy,r_yz,estimate,stderr,n"


def test_threads_zero_counts_the_cores_the_process_may_use(monkeypatch):
    import os
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert ExperimentConfig(params=P, threads=0).worker_count == 1
    assert ExperimentConfig(params=P, threads=5).worker_count == 5
    # Auto never asks for more workers than the cap allows.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(300)), raising=False)
    assert ExperimentConfig(params=P, threads=0).worker_count == MAX_WORKERS
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert ExperimentConfig(params=P, threads=0).worker_count == 1
