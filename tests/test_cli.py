import numpy as np
import pytest

from sfp.cli import main


def run_cli(*args):
    """Invoke main() in-process, capturing stdout."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_exponents_row():
    code, out = run_cli("exponents", "--dim", "1", "--alpha", "1.5", "--tau", "2.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-2] == "d,alpha,tau,lambda,gamma,alpha1,alpha2,delta,delta1,delta2,regime"
    row = lines[-1].split(",")
    assert row[0] == "1" and row[4] == "2.25" and row[-1] == "POLYLOG_A"
    assert float(row[7]) == pytest.approx(2.4094208396532095)


def test_exponents_echoes_seed_and_version():
    code, out = run_cli("exponents", "--dim", "1", "--alpha", "1.5", "--tau", "2.5",
                        "--seed", "9")
    assert code == 0
    assert "#version=sfp-" in out
    assert "#config seed=9" in out


def test_unknown_flag_is_usage_error():
    code, _ = run_cli("exponents", "--dim", "1", "--alpha", "1.5", "--tau", "2.5",
                      "--frobnicate")
    assert code == 1


def test_missing_subcommand_is_usage_error():
    code, _ = run_cli()
    assert code == 1


def test_runtime_error_exit_code(tmp_path):
    # Valid flags, but the realization file does not exist.
    code, _ = run_cli("hierarchy", "check", "--realization",
                      str(tmp_path / "nope.txt"), "--hierarchy",
                      str(tmp_path / "also-nope.txt"))
    assert code == 3


def test_a_realization_of_another_format_version_is_a_parse_error(tmp_path, capsys):
    real = tmp_path / "v2.txt"
    real.write_text("#sfp-box v2\nd=1 alpha=1.5 lambda=1 tau=2.5 model=sfp L=4 seed=0\n")
    sites = tmp_path / "sites.txt"
    sites.write_text("s 0 0\ns 1 3\n")
    code, _ = run_cli("hierarchy", "check", "--realization", str(real), "--hierarchy", str(sites))
    assert code == 3
    assert capsys.readouterr().err == ("error: ParseError: line 1: expected '#sfp-box v1', "
                                       "got '#sfp-box v2'\n")


def test_generate_roundtrips(tmp_path):
    out = tmp_path / "box.txt"
    code, _ = run_cli("generate", "--dim", "1", "--alpha", "1.5", "--tau", "2.5",
                      "--side", "64", "--seed", "3", "--out", str(out))
    assert code == 0
    from sfp.graph import BoxSpec, generate_box, load_realization
    from sfp.params import validate_params
    back = load_realization(out)
    fresh = generate_box(validate_params(1, 1.5, 1.0, 2.5), 3, BoxSpec(d=1, side=64))
    assert np.array_equal(back.edges, fresh.edges)
    assert np.array_equal(back.weights, fresh.weights)


def test_generate_file_is_the_same_at_any_thread_count(tmp_path):
    args = ["generate", "--alpha", "1.5", "--tau", "2.5", "--side", "2000", "--seed", "4",
            "--trunc", "100", "--out"]
    for threads in ("1", "2", "3"):
        assert main(args + [str(tmp_path / f"t{threads}.txt"), "--threads", threads]) == 0
    first = (tmp_path / "t1.txt").read_bytes()
    assert all((tmp_path / f"t{t}.txt").read_bytes() == first for t in ("2", "3"))


def test_distances_run_on_every_usable_core_by_default(monkeypatch):
    # Two usable cores, so the 96 sources, two batches of 48, map over two
    # processes; the body is that of one worker.
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    argv = ["distances", "--alpha", "1.5", "--tau", "3.5", "--lambda", "5", "--model", "sfpnn",
            "--side", "2048", "--trunc", "64", "--n-list", "16,64,256", "--sources", "96"]
    (code, auto), (code_one, one) = run_cli(*argv), run_cli(*argv, "--threads", "1")
    assert code == code_one and "#threads=0" in auto.splitlines()

    def body(text):
        return [line for line in text.splitlines() if not line.startswith(("#threads", "#wallclock"))]

    assert body(auto) == body(one)


def test_generate_without_out_is_usage_error_before_generating(capsys):
    # An oversized box would fail its pair budget if generated first.
    assert main(["generate", "--alpha", "1.5", "--tau", "2.5", "--side", "100000"]) == 1
    assert capsys.readouterr().err == "usage error: generate requires --out FILE\n"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_generate_rejects_pair_budget_below_one(tmp_path, capsys, budget):
    out = tmp_path / "box.txt"
    code = main(["generate", "--alpha", "1.5", "--tau", "2.5", "--side", "16",
                 "--pair-budget", budget, "--out", str(out)])
    assert code == 1 and not out.exists()
    assert f"argument --pair-budget: must be at least 1, got {budget}" in capsys.readouterr().err


_MODEL = ["--alpha", "1.5", "--tau", "2.5"]


@pytest.mark.parametrize("argv, flag", [
    (["generate", *_MODEL, "--side", "1", "--out", "box.txt"], "--side"),
    (["distances", *_MODEL, "--side", "1"], "--side"),
    (["degrees", *_MODEL, "--side", "100", "--trunc", "0.5"], "--trunc"),
    (["degrees", *_MODEL, "--side", "100", "--trunc", "nan"], "--trunc"),
    (["degrees", *_MODEL, "--side", "100", "--replicates", "0"], "--replicates"),
    (["bridge", *_MODEL, "--beta", "0.5", "--replicates", "-3"], "--replicates"),
    (["adjacent", *_MODEL, "--rxy", "4", "--ryz", "2", "--threads", "-1"], "--threads"),
    (["distances", *_MODEL, "--side", "256", "--n-list", "16,32", "--sources", "0"],
     "--sources"),
    (["degrees", *_MODEL, "--side", "100", "--hill-k", "0"], "--hill-k"),
    (["degrees", *_MODEL, "--side", "100", "--margin", "-1"], "--margin"),
], ids=["generate-side", "distances-side", "trunc", "trunc-nan", "degrees-replicates",
        "bridge-replicates", "threads", "sources", "hill-k", "margin"])
def test_out_of_range_flag_is_usage_error(argv, flag, tmp_path, capsys):
    argv = [str(tmp_path / a) if a == "box.txt" else a for a in argv]
    assert main(argv) == 1
    assert f"argument {flag}: must be at least" in capsys.readouterr().err
    assert not (tmp_path / "box.txt").exists()


@pytest.mark.parametrize("model", ["lrp", "sfpnn"])
def test_bridge_with_another_model_is_usage_error(model, capsys):
    # Adjacent, bridge, coupling and --compare-lrp are defined for SFP only;
    # each is rejected before anything is generated or simulated.
    for argv, command in [
            (["adjacent", *_MODEL, "--rxy", "20", "--ryz", "4"], "adjacent"),
            (["bridge", *_MODEL, "--beta", "0.5", "--replicates", "10"], "bridge"),
            (["coupling", *_MODEL, "--side", "64", "--replicates", "2"], "coupling"),
            (["distances", *_MODEL, "--side", "256", "--n-list", "16,32",
              "--sources", "4", "--compare-lrp"], "distances --compare-lrp")]:
        assert main(argv + ["--model", model]) == 1
        assert f"{command} supports only --model sfp, got {model}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exponents", "--alpha", "-1", "--tau", "2.5"],
    ["exponents", "--alpha", "1.5", "--tau", "0.5"],
    ["exponents", *_MODEL, "--lambda", "0"],
    ["moments", "convolution", "--dim", "0", "--alpha", "1.5", "--dist", "8"],
    ["degrees", *_MODEL, "--dim", "0", "--side", "10"],
], ids=["alpha", "tau", "lambda", "convolution-dim", "degrees-dim"])
def test_bad_model_parameter_is_usage_error(argv, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    ["adjacent", "--alpha", "1.5", "--tau", "3.5", "--rxy", "4", "--ryz", "2"],
    ["adjacent", *_MODEL, "--lambda", "5", "--rxy", "4", "--ryz", "2"],
    ["adjacent", *_MODEL, "--rxy", "2", "--ryz", "4"],
    ["bridge", *_MODEL, "--beta", "1.5"],
    ["bridge", "--alpha", "1.5", "--tau", "3.5", "--beta", "0.5"],
    ["fkg", *_MODEL, "--path", "0;1"],
    ["fkg", *_MODEL, "--path", "0;1;0"],
    ["fkg", *_MODEL, "--path", "0;5;10;5"],
    ["distances", *_MODEL, "--side", "64", "--n-list", "16,128"],
    ["distances", *_MODEL, "--side", "256", "--n-list", "0,16,32"],
    ["distances", "--alpha", "1.5", "--tau", "3.5", "--lambda", "5", "--side", "512",
     "--n-list", "16,16,32,64", "--sources", "4"],
    ["adjacent", *_MODEL, "--rxy", "4", "--ryz", "2", "--sweep-ryz", "0,8,16"],
    ["adjacent", *_MODEL, "--rxy", "4", "--ryz", "2", "--sweep-ryz", "8,8,16"],
    ["degrees", "--alpha", "0.5", "--tau", "3.5", "--side", "2000"],
    ["moments", "second", *_MODEL, "--r", "0.5"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "8", "--radius", "1"],
    ["moments", "adjacent", "--alpha", "1.5", "--tau", "3.5", "--rxy", "4", "--ryz", "2"],
    ["moments", "convolution", "--alpha", "0.5", "--dist", "8"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "0"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "1e400"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "1e300"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "9.2e18"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "5", "--radius", "nan"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "5", "--radius", "inf"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "5", "--radius", "-4"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "5", "--radius", "1e9"],
    ["moments", "convolution", "--alpha", "1.5", "--dist", "5", "--radius", "4e19"],
    ["moments", "convolution", "--dim", "4", "--alpha", "4.5", "--dist", "5"],
    ["fkg", *_MODEL, "--path", "0;a;5"],
    ["fkg", *_MODEL, "--path", "0,0;1,1;2,2"],
    ["bridge", *_MODEL, "--beta", "0.5", "--n-list", "64,abc"],
    ["bridge", *_MODEL, "--beta", "0.5", "--n-list", ","],
    ["bridge", *_MODEL, "--beta", "0.5", "--n-list=-64,128,256"],
    ["bridge", *_MODEL, "--beta", "0.5", "--n-list", "64,64,128"],
    ["distances", *_MODEL, "--side", "2048", "--n-list", ","],
    ["moments", "second", *_MODEL, "--r", "inf"],
    ["fkg", *_MODEL, "--path", "0;4000000000;99999999999999999999"],
    ["bridge", *_MODEL, "--beta", "0.5", "--n-list", "64,99999999999999999999"],
    ["bridge", *_MODEL, "--beta", "0.5", "--n-list", "64,4000000000000"],
], ids=["adjacent-tau", "adjacent-threshold", "adjacent-order", "bridge-beta", "bridge-tau",
        "fkg-one-edge", "fkg-back-and-forth", "fkg-revisit", "distances-separation",
        "distances-zero-separation", "distances-repeated-separation", "adjacent-zero-sweep",
        "adjacent-repeated-sweep",
        "degrees-alpha", "moments-second-r", "moments-convolution-radius", "moments-adjacent-tau",
        "moments-convolution-alpha", "moments-convolution-dist",
        "moments-convolution-dist-overflow", "moments-convolution-dist-int64",
        "moments-convolution-dist-square-overflow",
        "moments-convolution-radius-nan", "moments-convolution-radius-inf",
        "moments-convolution-radius-negative", "moments-convolution-over-budget",
        "moments-convolution-radius-int64", "moments-convolution-d4-default",
        "fkg-not-integer",
        "fkg-wrong-dimension", "n-list-not-integer", "bridge-empty-n-list",
        "bridge-negative-n", "bridge-repeated-n", "distances-empty-n-list",
        "moments-second-r-inf", "fkg-coordinate-int64", "bridge-n-int64",
        "bridge-cube-over-budget"])
def test_bad_experiment_input_is_usage_error(argv, capsys):
    # Each is rejected before any Monte Carlo or generation runs.
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("command", [["degrees", "--side", "20000", "--trunc", "3000"],
                                     ["generate", "--side", "20000", "--out", "box.txt"]],
                         ids=["degrees", "generate"])
def test_a_worker_count_above_the_cap_is_usage_error(command, monkeypatch, tmp_path, capsys):
    # One forked process per worker: the count is refused before any fork.
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr("os.fork", no_fork)
    argv = [str(tmp_path / a) if a == "box.txt" else a for a in command]
    assert main(argv[:1] + _MODEL + argv[1:] + ["--threads", "100000"]) == 1
    assert capsys.readouterr().err == ("usage error: argument --threads: must be in [0, 256], "
                                       "got 100000\n")
    assert not (tmp_path / "box.txt").exists()


def test_verify_checks_the_worker_cap_before_any_criterion(monkeypatch, tmp_path, capsys):
    def fail(seed):
        raise RuntimeError("criterion 1 ran")

    monkeypatch.setattr("sfp.verify.criterion_exponent_identities", fail)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--quick", "--threads", "300", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("usage error: argument --threads: must be in [0, 256], "
                                       "got 300\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["verify", "--quick", "--seed", "-1"],
    ["generate", *_MODEL, "--side", "16", "--seed", str(2 ** 64)],
], ids=["verify-negative", "generate-2^64"])
def test_a_seed_outside_u64_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 1
    assert "argument --seed: must be in [0, 2^64)" in capsys.readouterr().err
    assert not out.exists()


def test_any_other_exception_is_runtime_error(monkeypatch, capsys):
    import sfp.cli

    def crash(args):
        return 1 / 0

    monkeypatch.setitem(sfp.cli._DISPATCH, "exponents", crash)
    assert main(["exponents", *_MODEL]) == 3
    assert capsys.readouterr().err == "error: ZeroDivisionError: division by zero\n"


def test_generate_honours_a_small_pair_budget(tmp_path, capsys):
    # 16 * 15 / 2 = 120 pairs: a budget of 119 is over, 120 is not.
    out = tmp_path / "box.txt"
    args = ["generate", "--alpha", "1.5", "--tau", "2.5", "--side", "16",
            "--out", str(out), "--pair-budget"]
    assert main(args + ["119"]) == 1 and not out.exists()
    assert capsys.readouterr().err == ("usage error: more than 119 pairs to decide; reduce the "
                                       "box, lower the cutoff, or raise the pair budget\n")
    assert main(args + ["120"]) == 0


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.5\ntau = 2.5\nseed = 11  # comment\n")
    code, out = run_cli("exponents", "--config", str(cfg), "--dim", "1")
    assert code == 0 and "#config seed=11" in out
    code, out = run_cli("exponents", "--config", str(cfg), "--dim", "1",
                        "--tau", "3.5")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[2] == "3.5"  # flag wins


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# a comment line\nfrobnicate = 1\n")
    code, _ = run_cli("exponents", "--config", str(cfg), "--dim", "1",
                      "--alpha", "1.5", "--tau", "2.5")
    assert code == 1
    assert f"{cfg}:2: unrecognized arguments: --frobnicate 1" in capsys.readouterr().err


def test_config_file_rejects_bad_value_at_its_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 1.5\ntau = abc\n")
    code, _ = run_cli("exponents", "--config", str(cfg), "--dim", "1")
    assert code == 1
    assert f"{cfg}:2: argument --tau: invalid float value: 'abc'" in capsys.readouterr().err


def test_config_file_read_with_equals_spelling(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.5\ntau = 0.5\n")
    code, _ = run_cli("exponents", "--dim", "1", f"--config={cfg}")
    assert code == 1 and "tau must exceed 1, got 0.5" in capsys.readouterr().err
    code, _ = run_cli("exponents", "--alpha", "1.5", "--tau", "2.5", "--config=nope.cfg")
    assert code == 1 and "cannot read config file nope.cfg" in capsys.readouterr().err


@pytest.mark.parametrize("value, columns", [
    ("true", "r_xy,r_yz,middle,lower,upper,oracle,rel_gap"),
    ("false", "r_xy,r_yz,middle,lower,upper"),
], ids=["true", "false"])
def test_config_file_sets_a_switch(tmp_path, value, columns):
    cfg = tmp_path / "o.cfg"
    cfg.write_text(f"oracle = {value}\n")
    code, out = run_cli("moments", "adjacent", "--alpha", "1.5", "--tau", "2.5",
                        "--rxy", "20", "--ryz", "4", "--config", str(cfg))
    assert code == 0
    assert out.strip().splitlines()[-2] == columns


def test_config_file_rejects_a_switch_value_other_than_true_or_false(tmp_path, capsys):
    cfg = tmp_path / "q.cfg"
    cfg.write_text("seed = 3\nquick = yes\n")
    code, out = run_cli("verify", "--config", str(cfg))
    assert code == 1 and out == ""
    assert f"{cfg}:2: --quick takes true or false, got 'yes'" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("alpha = 1.5\ntau 2.5\n", "expected key = value"),
    ("alpha = 1.5\nconfig = other.cfg\n", "config files cannot nest"),
], ids=["no-equals", "nested"])
def test_config_file_rejects_a_malformed_line(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    code, _ = run_cli("exponents", "--config", str(cfg))
    assert code == 1
    assert f"{cfg}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("entry, argv, message", [
    ("threads = 300", ["exponents", *_MODEL], "argument --threads: must be in [0, 256], got 300"),
    ("pair_budget = 0", ["generate", *_MODEL, "--side", "16", "--out", "box.txt"],
     "argument --pair-budget: must be at least 1, got 0"),
    ("radius = -4", ["moments", "convolution", "--alpha", "1.5", "--dist", "5"],
     "argument --radius: must be positive, got -4"),
    ("radius = 0", ["moments", "convolution", "--alpha", "1.5", "--dist", "5"],
     "argument --radius: must be positive, got 0"),
], ids=["threads", "pair-budget", "radius", "radius-zero"])
def test_config_file_reports_an_out_of_range_value_at_its_line(tmp_path, capsys, entry, argv,
                                                               message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(entry + "\n")
    argv = [str(tmp_path / a) if a == "box.txt" else a for a in argv]
    assert main(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"usage error: {cfg}:1: {message}\n"
    assert not (tmp_path / "box.txt").exists()


@pytest.mark.parametrize("argv", [["--alpha", "1.5", "--tau", "2.5", "--dim", "3"],
                                  ["--alpha", "1", "--tau", "2", "--dim", "1"]],
                         ids=["alpha2-negative", "alpha2-zero"])
def test_exponents_report_delta2_as_nan_where_alpha2_is_not_positive(argv):
    code, out = run_cli("exponents", *argv)
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[9] == "nan"  # the delta2 column


def test_degrees_on_a_constant_tail_flags_the_skipped_verdict():
    # Nearest-neighbour edges only: every interior degree is 2.
    code, out = run_cli("degrees", "--alpha", "20", "--tau", "2.5", "--side", "2000",
                        "--model", "sfpnn", "--lambda", "1e-9", "--trunc", "5")
    assert code == 0
    assert "#flag hill-vs-gamma skipped: zero log-excess: samples constant over the tail\n" in out
    assert [line for line in out.splitlines() if not line.startswith("#")] == [
        "estimator,estimate,stderr,k,threshold"]


def test_moments_adjacent_row_with_oracle():
    code, out = run_cli("moments", "adjacent", "--alpha", "1.5", "--tau", "2.5",
                        "--rxy", "21.544346900318832", "--ryz", "4.641588833612778",
                        "--oracle")
    assert code == 0
    row = out.strip().splitlines()[-1].split(",")
    assert float(row[2]) == pytest.approx(0.013973665961010275, rel=1e-12)
    assert float(row[6]) < 1e-9  # closed form vs oracle


def test_moments_second_row():
    code, out = run_cli("moments", "second", "--alpha", "1.5", "--tau", "2.5",
                        "--r", "16")
    assert code == 0
    assert float(out.strip().splitlines()[-1].split(",")[1]) == \
        pytest.approx(0.035309176758121154, rel=1e-10)


@pytest.mark.parametrize("argv, want", [
    (["--alpha", "1.5", "--tau", "3.5", "--lambda", "0.01", "--r", "1e10"], 2.4999998686265e-33),
    (["--alpha", "0.5", "--tau", "6", "--lambda", "100", "--r", "1e150"], 2.777777777777812e-146),
    (["--alpha", "3", "--tau", "3.1", "--lambda", "0.01", "--r", "1e10"], 4.387697712490722e-62),
], ids=["tau-3.5", "tau-6", "tau-3.1"])
def test_moments_second_in_the_light_tail(argv, want):
    # tau > 3, where m(r) falls as z*^-2; the values are the split quadrature's
    # of tests/test_moments.py.
    code, out = run_cli("moments", "second", *argv)
    assert code == 0
    got = float(out.strip().splitlines()[-1].split(",")[1])
    assert got == pytest.approx(want, rel=1e-10, abs=0.0)


def _csv_rows(out):
    return [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]


def test_moments_at_a_distance_whose_power_overflows():
    # r^alpha overflows a float at 1e300 but not at 1e200: both give the
    # limit, 0.0 for tau = 2.5, and a tiny positive value for tau = 1.5.
    second = {}
    for tau in ("2.5", "1.5"):
        for r in ("1e200", "1e300"):
            code, out = run_cli("moments", "second", "--alpha", "1.5", "--tau", tau, "--r", r)
            assert code == 0
            second[tau, r] = float(_csv_rows(out)[0][1])
    assert second["2.5", "1e200"] == second["2.5", "1e300"] == 0.0
    assert 0.0 < second["1.5", "1e300"] < second["1.5", "1e200"] < 1e-140
    code, out = run_cli("moments", "adjacent", *_MODEL, "--rxy", "1e300", "--ryz", "5",
                        "--oracle")
    assert code == 0
    assert _csv_rows(out) == [["1e+300", "5.0", "0.0", "0.0", "0.0", "0.0", "0.0"]]


@pytest.mark.parametrize("argv", [
    # lambda^(tau-1) alone overflows a float; the expectation is 1.81e-18.
    ["--alpha", "1.5", "--tau", "2.9", "--lambda", "1e200", "--rxy", "1e140", "--ryz", "1e140"],
    # The kinks of the oracle's integrand are 224 decades apart.
    ["--alpha", "1.5", "--tau", "2.5", "--rxy", "1e150", "--ryz", "5"],
], ids=["huge-lambda", "far-apart-distances"])
def test_moments_adjacent_closed_form_matches_oracle_at_extreme_scales(argv):
    code, out = run_cli("moments", "adjacent", *argv, "--oracle")
    assert code == 0
    (row,) = _csv_rows(out)
    middle, oracle, gap = float(row[2]), float(row[5]), float(row[6])
    assert 0.0 < middle < 1e-17 and 0.0 < oracle
    assert gap < 1e-6


@pytest.mark.parametrize("argv, code", [
    (["adjacent", *_MODEL, "--rxy", "1e300", "--ryz", "5", "--sweep-ryz", "8,16"], 0),
    (["fkg", *_MODEL, "--path", "0;4000000000;8000000000"], 0),
    (["bridge", *_MODEL, "--beta", "0.1", "--n-list", "64,128,1000000000000000000"], 2),
], ids=["adjacent-rxy-overflow", "fkg-square-int64", "bridge-square-int64"])
def test_huge_distances_give_finite_estimates(argv, code):
    got, out = run_cli(*argv, "--replicates", "1000")
    assert got == code
    rows = _csv_rows(out)
    assert rows and all(np.isfinite(float(v)) for row in rows for v in row[1:])
    assert "nan" not in out


def test_a_slope_fit_that_cannot_run_is_flagged():
    code, out = run_cli("adjacent", *_MODEL, "--rxy", "50", "--ryz", "5",
                        "--sweep-ryz", "8,16,1e300", "--replicates", "1000")
    assert code == 0
    assert "#flag decay-slope skipped: log-log fit needs strictly positive coordinates" in out
    assert "#verdict decay-slope" not in out
    # Bridge's own verdict reports the zero estimates.
    code, out = run_cli("bridge", *_MODEL, "--beta", "0.5", "--lambda", "1e-200",
                        "--n-list", "64,128,256", "--replicates", "1000")
    assert code == 2
    assert "#flag bridge-slope skipped: log-log fit needs strictly positive coordinates" in out
    assert "#verdict positive-mass FAIL" in out
    # Three N that round to one float leave the fit no spread in log N.
    n = 2 ** 60
    code, out = run_cli("bridge", *_MODEL, "--beta", "0.1", "--n-list", f"{n},{n + 1},{n + 2}",
                        "--replicates", "100")
    assert code == 0
    assert "#flag bridge-slope skipped: all x coincide" in out


def test_generate_with_an_infinite_cutoff_loads(tmp_path):
    out = tmp_path / "box.txt"
    code, _ = run_cli("generate", *_MODEL, "--side", "64", "--trunc", "inf", "--out", str(out))
    assert code == 0
    assert out.read_text().splitlines()[1].endswith(" trunc=inf truncbias=0.0")
    from sfp.graph import load_realization
    back = load_realization(out)
    assert (back.trunc, back.trunc_bias) == (float("inf"), 0.0)


def test_moments_convolution_row():
    code, out = run_cli("moments", "convolution", "--alpha", "1.5", "--dist", "2",
                        "--radius", "1000")
    assert code == 0
    row = out.strip().splitlines()[-1].split(",")
    assert float(row[3]) > 0


def test_moments_convolution_d3_default_radius_fits_the_budget():
    # 106 * 101 * 101 = 1,081,306 lattice points, under the 2^22 budget.
    code, out = run_cli("moments", "convolution", "--dim", "3", "--alpha", "4", "--dist", "5")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[:2] == ["5.0", "50.0"]


def test_hierarchy_check_valid_and_violation(tmp_path):
    from sfp.graph import save_realization
    from sfp.verify import forced_realization, toy_hierarchy
    h = toy_hierarchy()
    real_path = tmp_path / "real.txt"
    hier_path = tmp_path / "hier.txt"
    save_realization(forced_realization(h.required_edges()), real_path)
    with open(hier_path, "w") as fh:
        for key in sorted(h.sites, key=lambda s: (len(s), s)):
            fh.write(f"s {key} {h.sites[key][0]} {h.sites[key][1]}\n")
    code, out = run_cli("hierarchy", "check", "--realization", str(real_path),
                        "--hierarchy", str(hier_path))
    assert code == 0 and "valid" in out

    # Close one required edge: condition 3 must be reported with exit 2.
    save_realization(forced_realization(h.required_edges()[1:]), real_path)
    code, out = run_cli("hierarchy", "check", "--realization", str(real_path),
                        "--hierarchy", str(hier_path))
    assert code == 2 and "condition 3" in out


def test_hierarchy_check_writes_its_verdict_to_out(tmp_path):
    from sfp.graph import save_realization
    from sfp.verify import forced_realization, toy_hierarchy
    real_path = tmp_path / "real.txt"
    hier_path = tmp_path / "hier.txt"
    verdict = tmp_path / "verdict.txt"
    save_realization(forced_realization(toy_hierarchy().required_edges()), real_path)
    hier_path.write_text("\n".join(_toy_site_lines()) + "\n")
    code, out = run_cli("hierarchy", "check", "--realization", str(real_path),
                        "--hierarchy", str(hier_path), "--out", str(verdict))
    assert code == 0 and out == ""
    assert verdict.read_text() == "valid\n"


def test_hierarchy_check_rejects_a_file_with_no_site_lines(tmp_path, capsys):
    from sfp.graph import save_realization
    from sfp.verify import forced_realization, toy_hierarchy
    real_path = tmp_path / "real.txt"
    hier_path = tmp_path / "hier.txt"
    save_realization(forced_realization(toy_hierarchy().required_edges()), real_path)
    hier_path.write_text("# only a comment\n\n")
    code, out = run_cli("hierarchy", "check", "--realization", str(real_path),
                        "--hierarchy", str(hier_path))
    assert code == 1 and out == ""
    assert f"{hier_path}: no site lines" in capsys.readouterr().err


def test_degrees_subcommand(tmp_path):
    out = tmp_path / "deg.csv"
    code, _ = run_cli("degrees", "--dim", "1", "--alpha", "1.5", "--tau", "3.5",
                      "--side", "4096", "--margin", "64", "--hill-k", "100",
                      "--trunc", "1024", "--out", str(out))
    text = out.read_text()
    assert "#verdict hill-vs-gamma" in text
    assert "estimator,estimate,stderr,k,threshold" in text


def test_distances_subcommand(tmp_path):
    out = tmp_path / "dist.csv"
    code, _ = run_cli("distances", "--dim", "1", "--alpha", "1.5", "--tau", "3.5",
                      "--lambda", "5", "--model", "sfpnn", "--side", "2048",
                      "--n-list", "16,32,64", "--sources", "8", "--out", str(out))
    assert code in (0, 2)
    text = out.read_text()
    assert "model,N,median_hops,samples,excluded" in text


def test_coupling_subcommand_exit_zero():
    code, out = run_cli("coupling", "--dim", "1", "--alpha", "1.5", "--tau", "2.5",
                        "--side", "64", "--replicates", "5")
    assert code == 0
    assert "#verdict coupling-domination pass" in out


def test_verify_quick_passes_and_hook_fails(tmp_path, monkeypatch):
    out = tmp_path / "verify.csv"
    code, _ = run_cli("verify", "--quick", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "#verdict verify pass" in text

    import sfp.verify
    failing = sfp.verify.CriterionResult(cid="3", name="adjacent-sandwich", passed=False,
                                         detail="induced violation", elapsed=0.0)
    monkeypatch.setattr(sfp.verify, "criterion_adjacent_sandwich",
                        lambda *args, **kwargs: failing)
    code, _ = run_cli("verify", "--quick", "--out", str(out))
    assert code == 2
    assert "FAIL" in out.read_text()


def _toy_site_lines():
    from sfp.verify import toy_hierarchy
    h = toy_hierarchy()
    return [f"s {key} {h.sites[key][0]} {h.sites[key][1]}"
            for key in sorted(h.sites, key=lambda s: (len(s), s))]


@pytest.mark.parametrize("bad, message", [
    ("s 01 3 x", "coordinates '3 x' are not integers"),
    ("s 2 3 4", "site key '2' is not a binary string"),
    ("s 1 5 7", "site key '1' already given on line 2"),
    ("s 01 99 0", "site key '01': coordinates [99, 0] outside box"),
    ("s 01 3", "expected 's <binary> <2 coords>'"),
    ("t 01 3 4", "expected 's <binary> <2 coords>'"),
], ids=["non-integer-coordinate", "bad-key", "repeated-key", "outside-box", "too-few-fields",
        "not-a-site-line"])
def test_hierarchy_check_rejects_bad_site_line_with_its_number(tmp_path, capsys, bad, message):
    from sfp.graph import save_realization
    from sfp.verify import forced_realization, toy_hierarchy
    real_path = tmp_path / "real.txt"
    hier_path = tmp_path / "hier.txt"
    save_realization(forced_realization(toy_hierarchy().required_edges()), real_path)
    lines = _toy_site_lines()
    assert lines[1].startswith("s 1 ")
    lines.insert(3, bad)
    hier_path.write_text("\n".join(lines) + "\n")
    code, out = run_cli("hierarchy", "check", "--realization", str(real_path),
                        "--hierarchy", str(hier_path))
    assert code == 1 and out == ""
    assert f"{hier_path}:4: {message}" in capsys.readouterr().err
