"""Subprocess-level CLI contract tests: golden outputs and exit codes."""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "p1bundles.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_split_golden_json():
    r = run_cli("split", str(DATA / "euler.bundle"), "--json")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["command"] == "split"
    assert report["result"] == {
        "rank": 2,
        "type": [0, 0],
        "deg": 0,
        "verified": True,
    }


def test_split_human_output():
    r = run_cli("split", str(DATA / "diag.bundle"))
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "rank: 2"
    assert lines[1] == "type: (2, -1)"
    assert lines[2] == "deg: 1"
    assert lines[3] == "verified: true"
    assert "W:" in r.stdout and "U:" in r.stdout and "D:" in r.stdout


def test_h0_golden():
    r = run_cli("h0", str(DATA / "o3.bundle"))
    assert r.returncode == 0
    assert r.stdout == "h0: 4\n"
    r = run_cli("h0", str(DATA / "o3.bundle"), "--json")
    assert json.loads(r.stdout)["result"] == {"h0": 4}


def test_h1_deg_chi():
    assert run_cli("h1", str(DATA / "euler.bundle")).stdout == "h1: 0\n"
    out = run_cli("deg", str(DATA / "diag.bundle"), "--json").stdout
    assert json.loads(out)["result"] == {"deg": 1, "rank": 2}
    assert run_cli("chi", str(DATA / "o3.bundle")).stdout == "chi: 4\n"


def test_profile():
    r = run_cli(
        "profile", str(DATA / "euler.bundle"), "--from", "-2", "--to", "1", "--json"
    )
    assert json.loads(r.stdout)["result"]["profile"] == [
        [-2, 0],
        [-1, 0],
        [0, 2],
        [1, 4],
    ]


@pytest.mark.parametrize("name, degrees", [("diag", (2, -1)), ("euler", (0, 0)), ("o3", (3,))])
def test_h1_and_profile_golden_json(name, degrees):
    # The whole --json output, byte for byte.  The values come from the
    # known types: h0(E(m)) = sum max(0, d + m + 1), and h1 = h0 - deg -
    # rank by Riemann-Roch.
    path = str(DATA / f"{name}.bundle")

    def h0(m):
        return sum(max(0, d + m + 1) for d in degrees)

    r = run_cli("h1", path, "--json")
    expected = {"h1": h0(0) - sum(degrees) - len(degrees)}
    assert r.returncode == 0
    assert r.stdout == json.dumps(
        {"command": "h1", "inputs": [path], "result": expected}, sort_keys=True
    ) + "\n"
    r = run_cli("profile", path, "--from", "-4", "--to", "4", "--json")
    expected = {"from": -4, "profile": [[m, h0(m)] for m in range(-4, 5)], "to": 4}
    assert r.returncode == 0
    assert r.stdout == json.dumps(
        {"command": "profile", "inputs": [path], "result": expected}, sort_keys=True
    ) + "\n"


def test_exit_code_invalid_bundle():
    r = run_cli("split", str(DATA / "invalid.bundle"))
    assert r.returncode == 1
    assert "invalid bundle" in r.stderr


def test_exit_code_parse_error():
    r = run_cli("split", str(DATA / "syntax_error.bundle"))
    assert r.returncode == 2
    assert "line 1" in r.stderr


def test_exit_code_window_unstable(monkeypatch, capsys, tmp_path):
    # Column windows two short of the proven ones: the guard on the window
    # fails on either side of z^-2, 0 ; z^12, z^10, whose h0 is solved, and
    # the CLI reports it as a failed internal check, not as a count.
    from p1bundles import cech, cli

    path = tmp_path / "wide.bundle"
    path.write_text("z^-2, 0 ; z^12, z^10\n")
    sides = cech._sides
    monkeypatch.setattr(
        cech,
        "_sides",
        lambda e: tuple(s._replace(his=[h - 2 for h in s.his]) for s in sides(e)),
    )
    assert cli.main(["h0", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal check failed:")


def test_iso_scramble_roundtrip(tmp_path):
    a = tmp_path / "a.bundle"
    run_cli("random", "--type", "2,-1", "--gauge-degree", "3", "--seed", "5", "-o", str(a))
    r = run_cli("iso", str(DATA / "diag.bundle"), str(a), "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"]["iso"] is True
    r2 = run_cli("iso", str(DATA / "euler.bundle"), str(a))
    assert r2.returncode == 0
    assert r2.stdout.splitlines()[0] == "iso: false"


def test_random_verify_roundtrip(tmp_path):
    b = tmp_path / "b.bundle"
    f = tmp_path / "b.fact"
    r = run_cli(
        "random", "--type", "3,0,-2", "--gauge-degree", "2", "--seed", "11", "-o", str(b)
    )
    assert r.returncode == 0
    r = run_cli("split", str(b), "-o", str(f), "--json")
    assert json.loads(r.stdout)["result"]["type"] == [3, 0, -2]
    r = run_cli("verify", str(b), str(f))
    assert r.returncode == 0
    assert r.stdout == "verified: true\n"
    # tamper: verification must fail but still exit 0 (a computed answer)
    f.write_text(f.read_text().replace("W:\n", "W:\n9 + ", 1))
    r = run_cli("verify", str(b), str(f))
    assert r.returncode == 0
    assert r.stdout == "verified: false\n"


def test_verify_refuses_text_before_the_w_block(tmp_path):
    cert = tmp_path / "junk.cert"
    cert.write_text("junk here!! W:\n1\nU:\n1\nD:\n1\n")
    one = tmp_path / "one.bundle"
    one.write_text("1\n")
    r = run_cli("verify", str(one), str(cert))
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr.startswith("parse error: unexpected character 'j' (line 1, column 1)")


def test_op_and_twist(tmp_path):
    out = tmp_path / "dual.bundle"
    r = run_cli("op", "dual", str(DATA / "o3.bundle"), "-o", str(out))
    assert r.returncode == 0
    r = run_cli("deg", str(out))
    assert "deg: -3" in r.stdout
    r = run_cli("op", "tensor", str(DATA / "o3.bundle"), str(DATA / "diag.bundle"), "--json")
    assert json.loads(r.stdout)["result"]["deg"] == 7
    r = run_cli("twist", str(DATA / "o3.bundle"), "-3", "--json")
    assert json.loads(r.stdout)["result"]["deg"] == 0


def test_selfdual():
    r = run_cli("selfdual", str(DATA / "euler.bundle"), "--json")
    result = json.loads(r.stdout)["result"]
    assert result == {"self_dual": True, "type": [0, 0]}


def test_json_deterministic():
    a = run_cli("split", str(DATA / "euler.bundle"), "--json").stdout
    b = run_cli("split", str(DATA / "euler.bundle"), "--json").stdout
    assert a == b


def test_installed_entry_point_help():
    r = run_cli("--help")
    assert r.returncode == 0
    for sub in ("split", "h0", "profile", "random", "verify"):
        assert sub in r.stdout


def test_negative_window_is_usage_error():
    r = run_cli("h0", str(DATA / "euler.bundle"), "--window", "-1")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_empty_profile_range_is_usage_error():
    r = run_cli("profile", str(DATA / "euler.bundle"), "--from", "3", "--to", "1")
    assert r.returncode == 2
    assert "Traceback" not in r.stderr


def test_negative_gauge_degree_is_usage_error(tmp_path):
    out = tmp_path / "x.bundle"
    r = run_cli(
        "random", "--type", "1,0", "--gauge-degree", "-1", "--seed", "1", "-o", str(out)
    )
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_negative_moves_is_usage_error(tmp_path):
    out = tmp_path / "x.bundle"
    r = run_cli("random", "--type", "1,-1", "--moves", "-1", "--seed", "1", "-o", str(out))
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert not out.exists()


def test_unstable_modular_kernel_exits_3(monkeypatch, capsys, tmp_path):
    from p1bundles import cech, cli
    from p1bundles.errors import KernelBudgetExceeded

    def unstable(matrix):
        raise KernelBudgetExceeded("modular kernel failed to stabilize")

    # The h0 of z^5, 1 ; 0, z^-5 lies in the band of twists that are
    # solved, so the patched solve is reached.
    path = tmp_path / "shear.bundle"
    path.write_text("z^5, 1 ; 0, z^-5\n")
    monkeypatch.setattr(cech, "kernel_basis", unstable)
    assert cli.main(["h0", str(path)]) == 3
    err = capsys.readouterr().err
    assert "internal check failed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("builtin", [ValueError, ArithmeticError])
def test_builtin_error_in_a_subcommand_propagates(monkeypatch, builtin):
    # A builtin exception is a library bug, never a usage error (exit 2) or
    # a failed certificate (exit 3): cli.main lets it through.
    from p1bundles import cech, cli

    def broken(e):
        raise builtin("a library bug")

    monkeypatch.setattr(cech, "h0_dim", broken)
    with pytest.raises(builtin, match="a library bug"):
        cli.main(["h0", str(DATA / "o3.bundle")])


# The exit code of each error class, as the errors docstring tables it.
EXIT_CODES = {
    "InvalidBundle": 1,
    "ParseError": 2,
    "RefusedArgument": 2,
    "DimensionMismatch": 2,
    "InternalCheckError": 3,
    "WindowUnstable": 3,
    "KernelBudgetExceeded": 3,
    "SystemTooLarge": 4,
}


def test_every_error_class_carries_its_documented_exit_code():
    import p1bundles
    from p1bundles import errors

    exported = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, BaseException)
    }
    assert set(exported) == set(EXIT_CODES) | {"P1BundlesError"}
    assert set(exported) <= set(p1bundles.__all__)
    for name, code in EXIT_CODES.items():
        assert issubclass(exported[name], errors.P1BundlesError), name
        assert exported[name].exit_code == code, name
    rows = re.findall(r'^\* (\d), (\w+), "([^"]+)"', errors.__doc__, re.MULTILINE)
    assert len(rows) == 5
    for code, name, label in rows:
        assert (exported[name].exit_code, exported[name].label) == (int(code), label)


def test_oversized_system_exits_4(tmp_path):
    # A 30-byte file whose sections may have degree up to 10^6 by the
    # cofactor bound: its Cech system of 2,000,002 x 2,000,003 is refused
    # before anything is built.
    path = tmp_path / "gap.bundle"
    path.write_text("z^1000000, 1 ; 0, z^-1000000\n")
    start = time.monotonic()
    r = run_cli("h0", str(path))
    assert time.monotonic() - start < 2
    assert r.returncode == 4
    assert "Traceback" not in r.stderr


def test_cli_imports_no_numpy():
    # The library has no third-party runtime dependency.
    code = "import sys, p1bundles.cli; assert 'numpy' not in sys.modules"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


def test_h1_of_far_line_bundle_is_answered(tmp_path):
    # O(-10^6): its Serre partner O(10^6 - 2) has 999,999 sections, all
    # free by structure, and one 1 x 1 system, so no large solve runs.
    path = tmp_path / "big.bundle"
    path.write_text("z^1000000\n")
    start = time.monotonic()
    r = run_cli("h1", str(path))
    assert time.monotonic() - start < 2
    assert r.returncode == 0
    assert r.stdout.strip() == "h1: 999999"


def test_unbounded_series_and_profile_exit_4(tmp_path):
    # A 30-byte file whose inverse series would run 10^6 terms, and a
    # profile of 2*10^6 + 1 small twists: both refused before the work.
    path = tmp_path / "gap.bundle"
    path.write_text("z^1000000, 1 ; 0, z^-1000000\n")
    o3 = str(DATA / "o3.bundle")
    for args in (
        ["split", str(path)],
        ["op", "dual", str(path)],
        ["profile", o3, "--from", "-1000000", "--to", "1000000"],
    ):
        start = time.monotonic()
        r = run_cli(*args)
        assert time.monotonic() - start < 2
        assert r.returncode == 4
        assert "too large" in r.stderr
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("n", [4, 5])
def test_sections_past_the_old_blanket_window_exit_0(tmp_path, capsys, n):
    # z^-n, z^3 ; 0, z^-n (19 bytes at n = 4) has type (n, n), and its
    # sections reach degree 2n + 3: one past the k*(N+1) = 2n + 2 that once
    # capped the default window, where h0, h1, chi and profile exited 3.
    from p1bundles import cli

    path = tmp_path / "far.bundle"
    path.write_text(f"z^-{n}, z^3 ; 0, z^-{n}")
    h0 = 2 * n + 2
    profile = "".join(f"h0(E({m})): {2 * max(0, n + m + 1)}\n" for m in range(-6, 1))
    for argv, out in (
        (["h0", str(path)], f"h0: {h0}\n"),
        (["h1", str(path)], "h1: 0\n"),
        (["chi", str(path)], f"chi: {h0}\n"),
        (["profile", str(path), "--from", "-6", "--to", "0"], profile),
    ):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out


def test_profile_over_more_twists_than_cells_exits_4(capsys):
    # Each twist is charged at least one cell, so these are refused before
    # any twist is set up, also past the width a Python range has a len().
    from p1bundles import cli

    o3 = str(DATA / "o3.bundle")
    for args in (
        ["--from", "0", "--to", str(10**20)],
        ["--from", str(-(10**20)), "--to", "0"],
        ["--from", str(-(10**9)), "--to", "0"],
    ):
        start = time.monotonic()
        assert cli.main(["profile", o3, *args]) == 4
        assert time.monotonic() - start < 0.5
        assert "too large" in capsys.readouterr().err


def test_unwritable_output_is_usage_error(tmp_path):
    # A missing directory and a directory in place of a file: one line on
    # stderr and exit 2, no traceback.
    missing = tmp_path / "missing_dir" / "x.bundle"
    for args in (
        ["random", "--type", "1,-1", "-o", str(missing)],
        ["split", str(DATA / "o3.bundle"), "-o", str(tmp_path)],
    ):
        r = run_cli(*args)
        assert r.returncode == 2
        assert "cannot write" in r.stderr
        assert len(r.stderr.splitlines()) == 1
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["deg", "--json"],
        ["profile", "--from", "0", "--to", "2999"],
    ],
)
def test_closed_stdout_exits_141(tmp_path, args):
    # The reader closes the pipe before anything is written: a one-line
    # report and a 3,000-line profile both stop with exit 141, no traceback.
    path = tmp_path / "five.bundle"
    path.write_text("5\n")
    p = subprocess.Popen(
        [sys.executable, "-m", "p1bundles.cli", args[0], str(path), *args[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    p.stdout.close()
    stderr = p.stderr.read().decode()
    assert p.wait(timeout=60) == 141
    assert "Traceback" not in stderr
    assert stderr == ""


def test_band_too_long_for_len_exits_4_or_answers(tmp_path):
    # A file whose sections have degrees near 10^6 on E and on its Serre
    # partner is refused as too large; file "5" answers, as its Serre
    # partner O(-2) has no section window and nothing is solved.
    far = tmp_path / "far.bundle"
    far.write_text("z^1000000, 1 ; 0, z^-1000000\n")
    r = run_cli("h1", str(far))
    assert r.returncode == 4
    assert r.stderr.startswith("too large:")
    assert "Traceback" not in r.stderr
    five = tmp_path / "five.bundle"
    five.write_text("5\n")
    r = run_cli("h1", str(five))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "h1: 0"


def test_far_triangular_files_answer_or_exit_4_on_both_counts(tmp_path):
    # h0 and h1 count on the same two systems, E's and its Serre partner's,
    # so a file is answered by both or refused by both.  The partner of the
    # first file has an entry of degree 10^20 + 2, but each column has its
    # own window, and both counts answer.  z^1000000, 1 ; 0, z^-1000000 has
    # a window near 10^6 on both sides, and both counts exit 4 at once.
    path = tmp_path / "tri.bundle"
    path.write_text(
        "rank: 2\n"
        "5/4*z^-20, 2*z^-20 + -1/5*z^-100000000000000000000 ;\n"
        "0, (1/2,1/1)*z^1\n"
    )
    for command, expected in (("h1", "h1: 0\n"), ("h0", "h0: 21\n")):
        r = run_cli(command, str(path))
        assert r.returncode == 0
        assert r.stdout == expected
    far = tmp_path / "far.bundle"
    far.write_text("z^1000000, 1 ; 0, z^-1000000\n")
    for command in ("h1", "h0"):
        start = time.monotonic()
        r = run_cli(command, str(far))
        assert time.monotonic() - start < 2
        assert r.returncode == 4
        assert r.stderr.startswith("too large:")
        assert "Traceback" not in r.stderr


_FAR = "100000000000000000000"


@pytest.mark.parametrize(
    "text, command, expected",
    [
        (
            f"0, 129689824753715365306003630764*z^{_FAR} ;"
            f" (-3/1,-1/3)*z^{_FAR}, -1*z^3 + 3/1*z^0",
            "h1",
            "h1: 199999999999999999998\n",
        ),
        (f"5/4*z^-20, 2*z^-20 + -1/5*z^-{_FAR} ; 0, (1/2,1/1)*z^1", "h1", "h1: 0\n"),
        (f"z^-{_FAR}, 0 ; 0, z^{_FAR}", "h0", "h0: 100000000000000000001\n"),
        (f"z^-{_FAR}, 0 ; 0, z^{_FAR}", "h1", "h1: 99999999999999999999\n"),
    ],
    ids=["far_shear_h1", "far_triangular_h1", "far_diagonal_h0", "far_diagonal_h1"],
)
def test_far_exponent_counts_are_answered(tmp_path, capsys, text, command, expected):
    # Each count has a small system on one side once every column has its
    # own window.  The first file has type (-10^20, -10^20), so its h1 is
    # 2*(10^20 - 1); the second has type (20, -1); the third is
    # O(10^20) + O(-10^20).
    from p1bundles import cli

    path = tmp_path / "far.bundle"
    path.write_text(text + "\n")
    assert cli.main([command, str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_wide_diagonal_profile_is_answered(tmp_path, capsys, monkeypatch):
    # O(1000) + O(-1000) over twists -1001..1000: 1999 one-cell systems in
    # the band, the rest read off it with no solve.  Counted by the Cech
    # solves alone, which its 2,002 planned cells would otherwise route to
    # the splitting type.
    from conftest import cech_counts
    from p1bundles import cech, cli

    monkeypatch.setattr(cech, "_counts", cech_counts)
    path = tmp_path / "wide.bundle"
    path.write_text("z^-1000, 0 ; 0, z^1000\n")
    start = time.monotonic()
    assert cli.main(["profile", str(path), "--from", "-1001", "--to", "1000"]) == 0
    assert time.monotonic() - start < 10
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        f"h0(E({m})): {max(0, m + 1001) + max(0, m - 999)}" for m in range(-1001, 1001)
    ]


def test_number_over_print_limit_exits_4(tmp_path):
    # A 2.5 KB file holding one 2500-digit constant: its tensor square has
    # a 5000-digit coefficient, over the 4300-digit limit of int -> str
    # that also bounds what the parser reads.  Refused before any output,
    # and the -o file is not written.
    path = tmp_path / "tall.bundle"
    path.write_text("rank: 1\n" + "7" * 2500 + "\n")
    out = tmp_path / "out.bundle"
    for args in (["-o", str(out)], ["--json"], []):
        r = run_cli("op", "tensor", str(path), str(path), *args)
        assert r.returncode == 4
        assert r.stderr.startswith("too large:") and "5000-digit" in r.stderr
        assert "Traceback" not in r.stderr
        assert r.stdout == ""
    assert not out.exists()


def test_report_number_over_print_limit_exits_4(tmp_path):
    # An 8.6 KB file whose degree 2*(10^4300 - 1) has 4301 digits, one over
    # the int -> str limit, while every exponent it holds has 4300.  Each
    # report that prints the degree, or h1 and chi, which grow with it, is
    # refused before any output, and no -o file is written.  So is a
    # profile whose counts have 4301 digits: h0(O(N)) = N + 1 on the
    # trivial line bundle, and every twist of the file's dual.
    nines = "9" * 4300
    path = tmp_path / "tall_degree.bundle"
    path.write_text(f"z^{nines}, 0 ; 0, z^{nines}\n")
    dual = tmp_path / "tall_dual.bundle"
    dual.write_text(f"z^-{nines}, 0 ; 0, z^-{nines}\n")
    five = tmp_path / "five.bundle"
    five.write_text("5\n")
    out = tmp_path / "out.txt"
    for command in (
        ["deg", str(path)],
        ["h1", str(path)],
        ["chi", str(path)],
        ["split", str(path)],
        ["split", str(path), "-o", str(out)],
        ["op", "dsum", str(path), str(five), "-o", str(out)],
        ["profile", str(five), "--from", nines, "--to", nines],
        ["profile", str(dual), "--from", "-3", "--to", "3"],
    ):
        for args in ([], ["--json"]):
            r = run_cli(*command, *args)
            assert r.returncode == 4, (command, args, r.stderr)
            assert r.stderr.startswith("too large:") and "4301-digit" in r.stderr
            assert "Traceback" not in r.stderr
            assert r.stdout == ""
            assert not out.exists()


def test_series_cap_over_print_limit_exits_4(tmp_path):
    # An 8.7 KB rank-3 file whose w-adic series cap, 2*(10^4300 - 1), has
    # more digits than an int can be printed with.  Every command that
    # inverts the series refuses it as too large, and no number in the
    # message is over the limit.
    nines = "9" * 4300
    path = tmp_path / "tall_series.bundle"
    path.write_text(f"z^{nines}, 1, 0 ; 0, z^-{nines}, 1 ; 0, 0, 1\n")
    for command in (["split"], ["op", "dual"], ["selfdual"], ["iso", str(path)]):
        r = run_cli(*command, str(path))
        assert r.returncode == 4, (command, r.stderr)
        assert r.stderr.startswith("too large:")
        assert max(map(len, re.findall(r"\d+", r.stderr))) <= 4300
        assert "Traceback" not in r.stderr
        assert r.stdout == ""


def test_oversized_scramble_exits_4(tmp_path):
    # A seeded scramble is charged an upper bound on the terms its moves
    # multiply, from rank, moves, gauge degree and degree span, before
    # anything is drawn; these two would otherwise draw shears of up to
    # 10^8 terms, or make 10^8 matrix products.
    out = tmp_path / "out.bundle"
    for option in ("--gauge-degree", "--moves"):
        argv = [sys.executable, "-m", "p1bundles.cli", "random", "--type", "1,0"]
        argv += [option, "100000000", "-o", str(out)]
        r = subprocess.run(argv, capture_output=True, text=True, timeout=2)
        assert r.returncode == 4, (option, r.stderr)
        assert r.stderr.startswith("too large:")
        assert r.stdout == ""
        assert not out.exists()


def test_random_type_may_start_with_a_negative_degree(tmp_path):
    # argparse reads a bare "-2,1" as an option; the CLI binds it to --type.
    out = tmp_path / "neg.bundle"
    r = run_cli("random", "--type", "-2,1", "--seed", "3", "-o", str(out), "--json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["result"]["type"] == [1, -2]
    r = run_cli("split", str(out), "--json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["result"]["type"] == [1, -2]


# Small files with sections past degree W + 1 for the small window W given,
# so a count at W checked only against W + 1 is wrong; the expected counts
# come from the splitting types: h0(E(m)) = sum max(0, d + m + 1), h1 =
# h0 - deg - rank.  The sections of the first are (a, c - a*z^5).
@pytest.mark.parametrize(
    "text, window, degrees",
    [
        ("z^5, 1 ; 0, z^-5", 2, (0, 0)),
        ("z^-3, 0 ; z^2, z^7", 2, (-2, -2)),
        ("z^-2, 0 ; z^12, z^10", 0, (2, -10)),
    ],
    ids=["type_0_0", "type_-2_-2", "type_2_-10"],
)
def test_counts_of_small_files_follow_the_type(tmp_path, capsys, text, window, degrees):
    from p1bundles import cli

    path = tmp_path / "e.bundle"
    path.write_text(text + "\n")

    def h0(m):
        return sum(max(0, d + m + 1) for d in degrees)

    h1 = h0(0) - sum(degrees) - len(degrees)
    profile = "".join(f"h0(E({m})): {h0(m)}\n" for m in range(-1, 2))
    assert cli.main(["split", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"type: ({degrees[0]}, {degrees[1]})"
    for argv, out in (
        (["h0", str(path)], f"h0: {h0(0)}\n"),
        (["h1", str(path)], f"h1: {h1}\n"),
        (["chi", str(path)], f"chi: {h0(0) - h1}\n"),
        (["profile", str(path), "--from", "-1", "--to", "1"], profile),
    ):
        assert cli.main(argv) == 0
        assert capsys.readouterr() == (out, "")
        # No option sets the window: --window is a usage error, not a count.
        with pytest.raises(SystemExit) as refused:
            cli.main([*argv, "--window", str(window)])
        assert refused.value.code == 2
        assert capsys.readouterr().out == ""


def test_window_option_is_refused():
    # --window exits 2 as a usage error, with one error line and no trace.
    r = run_cli("h0", str(DATA / "o3.bundle"), "--window", "2")
    assert r.returncode == 2
    assert r.stdout == ""
    errors = [line for line in r.stderr.splitlines() if "error:" in line]
    assert errors == ["p1bundles: error: unrecognized arguments: --window 2"]
    assert "Traceback" not in r.stderr


def test_iso_and_selfdual_verify_one_split_per_file(monkeypatch, capsys):
    # iso and selfdual print the types they compare, so each input file is
    # split once: its transition is reduced, and its certificate proven by
    # W*T*U = D, once, and the certificate's form is checked once.
    from p1bundles import cli, lmatrix, splitter

    calls, reductions = [], []
    well_formed, reduce = splitter._well_formed, lmatrix.column_reduce
    monkeypatch.setattr(
        splitter, "_well_formed", lambda *a: calls.append(1) or well_formed(*a)
    )
    monkeypatch.setattr(
        lmatrix, "column_reduce", lambda t: reductions.append(1) or reduce(t)
    )
    diag, euler = str(DATA / "diag.bundle"), str(DATA / "euler.bundle")
    for argv, files, out in (
        (["iso", diag, diag], 2, "iso: true\ntype_a: (2, -1)\ntype_b: (2, -1)\n"),
        (["iso", diag, euler], 2, "iso: false\ntype_a: (2, -1)\ntype_b: (0, 0)\n"),
        (["selfdual", euler], 1, "self_dual: true\ntype: (0, 0)\n"),
        (["selfdual", diag], 1, "self_dual: false\ntype: (2, -1)\n"),
    ):
        calls.clear()
        reductions.clear()
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out
        assert len(calls) == files
        assert len(reductions) == files


def test_verify_reports_the_line_of_a_fault_in_the_certificate(tmp_path):
    # Each block of a certificate is parsed where it sits, so a fault in
    # the D: block is reported at its line in the whole file.
    cert = tmp_path / "diag.cert"
    r = run_cli("split", str(DATA / "diag.bundle"), "-o", str(cert))
    assert r.returncode == 0, r.stderr
    lines = cert.read_text().splitlines()
    lines[-1] += " $"
    cert.write_text("\n".join(lines) + "\n")
    r = run_cli("verify", str(DATA / "diag.bundle"), str(cert))
    assert r.returncode == 2
    assert r.stderr.startswith("parse error: unexpected character '$'")
    assert f"(line {len(lines)}, column {len(lines[-1])})" in r.stderr


def test_oversized_tensor_exits_4(tmp_path):
    # The rank-30 identity tensored with itself would build 810,000 entries;
    # the product is charged before anything is built.
    path = tmp_path / "id30.bundle"
    rows = (", ".join("1" if i == j else "0" for j in range(30)) for i in range(30))
    path.write_text(" ;\n".join(rows) + "\n")
    out = tmp_path / "out.bundle"
    start = time.monotonic()
    r = run_cli("op", "tensor", str(path), str(path), "-o", str(out))
    assert time.monotonic() - start < 5
    assert r.returncode == 4, r.stderr
    assert r.stderr.startswith("too large:")
    assert r.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["op", "dsum", "A"],
        ["op", "dual", "A", "A"],
        ["random", "--type", "1,x", "-o", "OUT"],
        ["random", "--type", "", "-o", "OUT"],
    ],
)
def test_bad_op_and_random_arguments_are_usage_errors(tmp_path, capsys, args):
    from p1bundles import cli

    paths = {"A": str(DATA / "diag.bundle"), "OUT": str(tmp_path / "out.bundle")}
    assert cli.main([paths.get(a, a) for a in args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:")
    assert not (tmp_path / "out.bundle").exists()


def _exit_text(parse, argv, capsys):
    # The exit code and the text that one argv prints before it exits.
    with pytest.raises(SystemExit) as exited:
        parse(argv)
    out = capsys.readouterr()
    return exited.value.code, out.out, out.err


def _parser_argvs():
    from p1bundles.cli import COMMANDS

    yield from (["--help"], [], ["bogus", "f"], ["h0", "f", "extra"])
    for name in COMMANDS:
        yield [name, "-h"]
        yield [name]  # a missing argument


@pytest.mark.parametrize("argv", list(_parser_argvs()), ids=" ".join)
def test_one_subparser_prints_what_the_full_tree_prints(capsys, argv):
    # main builds only the subparser that argv[0] names.  Help, usage errors
    # and unknown commands read byte for byte as from all twelve.
    from p1bundles import cli

    full = _exit_text(cli.build_parser().parse_args, argv, capsys)
    assert _exit_text(cli.main, argv, capsys) == full
    assert full[1] or full[2].startswith("usage: p1bundles")


def test_main_builds_only_the_subparser_it_runs(monkeypatch, capsys):
    from p1bundles import cli

    built, build = [], cli.build_parser
    monkeypatch.setattr(
        cli, "build_parser", lambda c=None: built.append(build(c)) or built[-1]
    )
    assert cli.main(["deg", str(DATA / "o3.bundle")]) == 0
    assert capsys.readouterr().out == "deg: 3\nrank: 1\n"
    (parser,) = built
    subcommands = next(a.choices for a in parser._actions if a.dest == "command")
    assert list(subcommands) == ["deg"]
    full = next(a.choices for a in build()._actions if a.dest == "command")
    assert tuple(full) == cli.COMMANDS
