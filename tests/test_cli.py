import shutil
import subprocess

import numpy as np
import pytest

from quatpoly import mappoly as mp
from quatpoly.cli import main
from quatpoly.fileio import parse_quaternion_lines
from quatpoly.quaternion import parse_quaternion


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval(capsys):
    code, out, _ = run_main(capsys, ["eval", "-e", "X", "-x", "1+2i"])
    assert code == 0
    assert parse_quaternion(out.strip()) == parse_quaternion("1+2i")
    code, out, _ = run_main(capsys, ["eval", "-e", "(X+i)·(X-i)", "-x", "j"])
    assert code == 0
    assert parse_quaternion(out.strip()) == parse_quaternion("2k")


def test_eval_parse_error_exit_2(capsys):
    code, _, err = run_main(capsys, ["eval", "-e", "X^3", "-x", "1"])
    assert code == 2 and "power" in err.lower()
    code, _, err = run_main(capsys, ["eval", "-e", "X", "-x", "1++"])
    assert code == 2


def test_eval_overflowing_point_exit_2(capsys):
    code, _, _ = run_main(capsys, ["eval", "-e", "X", "-x", "1e400"])
    assert code == 2


def test_expand_and_errors(tmp_path, capsys):
    out_file = tmp_path / "quad.txt"
    code, _, _ = run_main(capsys, ["expand", "-e", "X·X", "-o", str(out_file)])
    assert code == 0
    quad = mp.QuadruplePoly.from_text(out_file.read_text())
    assert quad.degree == 2
    code, _, err = run_main(capsys, ["expand", "-e", "(X)·(X)"])
    assert code == 1 and "bracket" in err.lower()


def test_zerotest_verdicts_and_determinism(capsys):
    vanish = "X·X·i·X·i + i·X·X·i·X - i·X·i·X·X - X·i·X·X·i"
    code, out, _ = run_main(capsys, ["zerotest", "-e", vanish, "--epsilon", "0.01"])
    assert code == 0 and out.strip() == "zero"
    code, out, _ = run_main(capsys, ["zerotest", "-e", "i·X-X·i+1",
                                     "--epsilon", "0.0000009536743164"])
    assert code == 0 and out.strip() == "non-zero"
    runs = set()
    for _ in range(3):
        _, out, _ = run_main(capsys, ["zerotest", "-e", "X·X-X", "--epsilon",
                                      "0.25", "--seed", "42"])
        runs.add(out.strip())
    assert len(runs) == 1


def test_convolve_naive_twin(tmp_path, capsys):
    rng = np.random.default_rng(0)
    a_lines = "\n".join(f"{rng.uniform(-1, 1):.6f}{rng.uniform(-1, 1):+.6f}i"
                        f"{rng.uniform(-1, 1):+.6f}k" for _ in range(17))
    (tmp_path / "a.txt").write_text(a_lines + "\n")
    (tmp_path / "b.txt").write_text("1\nj\n-0.5k\n")
    code, fast_out, _ = run_main(capsys, ["convolve", "-a", str(tmp_path / "a.txt"),
                                          "-b", str(tmp_path / "b.txt")])
    assert code == 0
    code, naive_out, _ = run_main(capsys, ["convolve", "-a", str(tmp_path / "a.txt"),
                                           "-b", str(tmp_path / "b.txt"), "--naive"])
    assert code == 0
    fast = parse_quaternion_lines(fast_out)
    naive = parse_quaternion_lines(naive_out)
    assert len(fast) == len(naive) == 19
    for f, w in zip(fast, naive):
        assert (f - w).norm() <= 1e-9 * max(1.0, w.norm())


def test_multieval_naive_twin(tmp_path, capsys):
    rng = np.random.default_rng(1)
    coeffs = "\n".join(f"{rng.uniform(-1, 1):.5f}{rng.uniform(-1, 1):+.5f}j"
                       for _ in range(9))
    pts = "\n".join(f"{rng.uniform(-1, 1):.5f}{rng.uniform(-1, 1):+.5f}i"
                    f"{rng.uniform(-1, 1):+.5f}k" for _ in range(25))
    (tmp_path / "p.txt").write_text(coeffs + "\n")
    (tmp_path / "x.txt").write_text(pts + "\n")
    code, fast_out, _ = run_main(capsys, ["multieval", "-p", str(tmp_path / "p.txt"),
                                          "-x", str(tmp_path / "x.txt")])
    assert code == 0
    code, naive_out, _ = run_main(capsys, ["multieval", "-p", str(tmp_path / "p.txt"),
                                           "-x", str(tmp_path / "x.txt"), "--naive"])
    assert code == 0
    for f, w in zip(parse_quaternion_lines(fast_out), parse_quaternion_lines(naive_out)):
        assert (f - w).norm() <= 1e-7 * max(1.0, w.norm())


def test_interpolate_round_trip_and_infeasible(tmp_path, capsys):
    (tmp_path / "x.txt").write_text("0\n1\n")
    (tmp_path / "y.txt").write_text("1+i\n2+j\n")
    code, out, _ = run_main(capsys, ["interpolate", "-x", str(tmp_path / "x.txt"),
                                     "-y", str(tmp_path / "y.txt")])
    assert code == 0
    coeffs = parse_quaternion_lines(out)
    assert coeffs[0] == parse_quaternion("1+i")
    assert (coeffs[0] + coeffs[1] - parse_quaternion("2+j")).norm() <= 1e-12
    (tmp_path / "bad.txt").write_text("i\nj\nk\n")
    (tmp_path / "v.txt").write_text("1\n1\n1\n")
    code, _, err = run_main(capsys, ["interpolate", "-x", str(tmp_path / "bad.txt"),
                                     "-y", str(tmp_path / "v.txt")])
    assert code == 1 and "equivalent" in err


def test_nbody_naive_twin(tmp_path, capsys):
    rng = np.random.default_rng(2)
    (tmp_path / "poles.txt").write_text(
        "\n".join(f"{v:.6f}" for v in rng.uniform(-1, 1, 20)) + "\n")
    (tmp_path / "pts.txt").write_text(
        "\n".join(f"{rng.uniform(-1, 1):.5f}{rng.uniform(0.2, 1):+.5f}i"
                  f"{rng.uniform(0.2, 1):+.5f}j" for _ in range(15)) + "\n")
    code, fast_out, _ = run_main(capsys, ["nbody", "-a", str(tmp_path / "poles.txt"),
                                          "-x", str(tmp_path / "pts.txt")])
    assert code == 0
    code, naive_out, _ = run_main(capsys, ["nbody", "-a", str(tmp_path / "poles.txt"),
                                           "-x", str(tmp_path / "pts.txt"), "--naive"])
    assert code == 0
    for f, w in zip(parse_quaternion_lines(fast_out), parse_quaternion_lines(naive_out)):
        assert (f - w).norm() <= 1e-7 * max(1.0, w.norm())


def test_file_errors(tmp_path, capsys):
    code, _, err = run_main(capsys, ["convolve", "-a", "/no/such/file",
                                     "-b", "/no/such/file"])
    assert code == 2
    (tmp_path / "bad.txt").write_text("1+??\n")
    code, _, err = run_main(capsys, ["convolve", "-a", str(tmp_path / "bad.txt"),
                                     "-b", str(tmp_path / "bad.txt")])
    assert code == 2 and ":1:" in err


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["eval"]) == 2


def test_bench_csv(capsys):
    code, out, _ = run_main(capsys, ["bench", "--op", "convolve",
                                     "--sizes", "32,64", "--repeats", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "size,seconds"
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [32, 64]
    assert all(float(ln.split(",")[1]) >= 0.0 for ln in lines[1:])
    code, out, _ = run_main(capsys, ["bench", "--op", "mul1",
                                     "--sizes", "2,3", "--repeats", "1"])
    assert code == 0


@pytest.mark.skipif(shutil.which("quatpoly") is None,
                    reason="console script not installed")
def test_installed_entry_point():
    proc = subprocess.run(["quatpoly", "eval", "-e", "i·X-X·i+1", "-x", "j"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_quaternion(proc.stdout.strip()) == parse_quaternion("1+2k")


def test_zerotest_epsilon_out_of_range(capsys):
    code, _, err = run_main(capsys, ["zerotest", "-e", "X", "--epsilon", "2"])
    assert code == 2 and "epsilon" in err
