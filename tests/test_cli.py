import subprocess
import sys

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


def test_generate_without_out_is_usage_error_before_generating():
    # An oversized box would raise BoxTooLarge (exit 3) if generated first.
    assert main(["generate", "--alpha", "1.5", "--tau", "2.5", "--side", "100000"]) == 1


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("alpha = 1.5\ntau = 2.5\nseed = 11  # comment\n")
    code, out = run_cli("exponents", "--config", str(cfg), "--dim", "1")
    assert code == 0 and "#config seed=11" in out
    code, out = run_cli("exponents", "--config", str(cfg), "--dim", "1",
                        "--tau", "3.5")
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[2] == "3.5"  # flag wins


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate = 1\n")
    code, _ = run_cli("exponents", "--config", str(cfg), "--dim", "1",
                      "--alpha", "1.5", "--tau", "2.5")
    assert code == 1


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


def test_moments_convolution_row():
    code, out = run_cli("moments", "convolution", "--alpha", "1.5", "--dist", "2",
                        "--radius", "1000")
    assert code == 0
    row = out.strip().splitlines()[-1].split(",")
    assert float(row[3]) > 0


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


def test_verify_quick_passes_and_hook_fails(tmp_path):
    out = tmp_path / "verify.csv"
    code, _ = run_cli("verify", "--quick", "--out", str(out))
    assert code == 0
    text = out.read_text()
    assert "#verdict verify pass" in text

    code, _ = run_cli("verify", "--quick", "--hook-break-sandwich",
                      "--out", str(out))
    assert code == 2
    assert "FAIL" in out.read_text()


def test_verify_quick_deterministic_across_threads(tmp_path):
    def body(path):
        return [l for l in path.read_text().splitlines()
                if not (l.startswith("#wallclock") or l.startswith("#threads"))]

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, threads in ((a, "1"), (b, "4")):
        code = subprocess.run(
            [sys.executable, "-m", "sfp.cli", "verify", "--quick", "--seed", "0",
             "--threads", threads, "--out", str(out)],
            capture_output=True, text=True).returncode
        assert code == 0
    assert body(a) == body(b)
