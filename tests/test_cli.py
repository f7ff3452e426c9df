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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [["eval", "-e", "1e300·X·1e300", "-x", "1"],
                                  ["zerotest", "-e", "1e300·X·1e300", "--epsilon", "0.01"]])
def test_overflowing_evaluation_exit_2(capsys, argv):
    code, out, err = run_main(capsys, argv)
    assert code == 2 and "overflow" in err and out == ""


@pytest.mark.parametrize("command", [["eval", "-x", "1"], ["zerotest", "--epsilon", "0.01"]])
def test_constant_beyond_double_range_exit_2(capsys, command):
    code, out, err = run_main(capsys, command + ["-e", "1e400·X"])
    assert code == 2 and "position 0" in err and out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("naive", [[], ["--naive"]])
def test_convolve_overflow_exit_2(tmp_path, capsys, naive):
    (tmp_path / "a.txt").write_text("1e200\n1e200\n")
    (tmp_path / "b.txt").write_text("1e200i\n1e200i\n")
    code, out, err = run_main(capsys, ["convolve", "-a", str(tmp_path / "a.txt"),
                                       "-b", str(tmp_path / "b.txt")] + naive)
    assert code == 2 and "overflow" in err and out == ""


@pytest.mark.filterwarnings("error")
def test_expand_overflow_exit_2(capsys):
    code, out, err = run_main(capsys, ["expand", "-e", "1e300·X·1e300"])
    assert code == 2 and "overflow" in err and out == ""


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
    code, out, _ = run_main(capsys, ["bench", "--op", "interpolate",
                                     "--sizes", "8,16", "--repeats", "1"])
    assert code == 0
    assert [int(ln.split(",")[0]) for ln in out.strip().splitlines()[1:]] == [8, 16]


def test_bench_affine_scaling(capsys):
    # the Taylor shift and the shears each cost O(d (d+1)^4) on the
    # (d+1)^4 box, so doubling the degree may cost at most 1.5 times
    # ((d2+1)/(d1+1))^5: 28 for 4 -> 8 and 36 for 8 -> 16; an O(d^7)
    # substitution would read about 86 for 8 -> 16
    sizes = [4, 8, 16]
    code, out, _ = run_main(capsys, ["bench", "--op", "affine", "--sizes",
                                     ",".join(map(str, sizes)), "--repeats", "5"])
    assert code == 0
    times = [float(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]]
    for (d1, t1), (d2, t2) in zip(zip(sizes, times), zip(sizes[1:], times[1:])):
        assert t2 / t1 <= 1.5 * ((d2 + 1) / (d1 + 1)) ** 5, (d1, d2, t2 / t1)


def test_bench_mul1_scaling(capsys):
    # the FFT product works on the (2d+1)^4 product box, so doubling the
    # degree may cost at most 2.5 times ((2 d2 + 1) / (2 d1 + 1))^4: 32 for
    # 4 -> 8 and 35 for 8 -> 16; a schoolbook product would read about 96
    # for 8 -> 16.  The factor is loose because FFT speed depends on how
    # the box length factors: 9 = 3^2, 17 is prime, 33 = 3 * 11
    sizes = [4, 8, 16]
    code, out, _ = run_main(capsys, ["bench", "--op", "mul1", "--sizes",
                                     ",".join(map(str, sizes)), "--repeats", "5"])
    assert code == 0
    times = [float(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]]
    for (d1, t1), (d2, t2) in zip(zip(sizes, times), zip(sizes[1:], times[1:])):
        assert t2 / t1 <= 2.5 * ((2 * d2 + 1) / (2 * d1 + 1)) ** 4, (d1, d2, t2 / t1)


def test_bench_expand_scaling(capsys):
    # the top product of a degree-n expansion works on the (n+1)^4 box, so
    # doubling n may cost at most 2.5 times ((n2 + 1) / (n1 + 1))^4: 26 for
    # 4 -> 8 and 32 for 8 -> 16
    sizes = [4, 8, 16]
    code, out, _ = run_main(capsys, ["bench", "--op", "expand", "--sizes",
                                     ",".join(map(str, sizes)), "--repeats", "5"])
    assert code == 0
    times = [float(ln.split(",")[1]) for ln in out.strip().splitlines()[1:]]
    for (n1, t1), (n2, t2) in zip(zip(sizes, times), zip(sizes[1:], times[1:])):
        assert t2 / t1 <= 2.5 * ((n2 + 1) / (n1 + 1)) ** 4, (n1, n2, t2 / t1)


def test_successive_main_calls_keep_their_exit_codes(capsys, tmp_path):
    # main parses with one parser per process; nothing of one call may
    # leak into the next
    (tmp_path / "a.txt").write_text("1\ni\n")
    (tmp_path / "b.txt").write_text("j\n")
    calls = [
        (["eval", "-e", "X", "-x", "j"], 0),
        (["nosuch"], 2),
        ([], 2),
        (["zerotest", "-e", "X", "--epsilon", "2"], 2),
        (["convolve", "-a", str(tmp_path / "a.txt"), "-b", str(tmp_path / "b.txt"),
          "--naive"], 0),
        (["convolve", "-a", str(tmp_path / "a.txt")], 2),
        (["bench", "--op", "nosuch", "--sizes", "2"], 2),
        (["interpolate", "-x", str(tmp_path / "a.txt"), "-y", str(tmp_path / "nofile")], 2),
        (["eval", "-e", "X", "-x", "j"], 0),
    ]
    for _ in range(2):
        for argv, want in calls:
            assert run_main(capsys, argv)[0] == want, argv
    code, out, _ = run_main(capsys, ["convolve", "-a", str(tmp_path / "a.txt"),
                                     "-b", str(tmp_path / "b.txt")])
    assert code == 0 and len(parse_quaternion_lines(out)) == 2


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
