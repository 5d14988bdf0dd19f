"""Derandomized in-process grammar fuzz of ``cli.main``.

Small generated files go through every subcommand: valid bundles (a
monomial diagonal under Laurent entries, rows possibly reversed), invalid
ones, malformed tokens and truncated text, with Q(i) coefficients that
carry denominators, 30-digit integers, and exponents from a fixed list
that includes 10^6 and 10^20.  Each call must end with an exit code of
the documented contract, and never with exit 3 (a failed internal
check): every Cech count runs at a proven window.  A second generator,
with its own seed, adds calls whose integer arguments have up to 4300
digits, the most the option parser reads.
"""

import random
import subprocess
import sys

from conftest import cech_counts
from p1bundles import cech, cli

NEAR = (-20, -3, -2, -1, 0, 1, 2, 3, 6)
FAR = (10**6, -(10**6), 10**20, -(10**20))
JUNK = ("z^", "(1,", "1//2", "x", "**", ";;", ",", "z^-", "+ +", "rank: 9\n", "1/0", "(1,2,3)")
CONTRACT = {0, 1, 2, 3, 4}


def _coeff(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.choice((1, -1, 2, 3)))
    if kind == 1:
        return f"{rng.randint(-5, 5)}/{rng.randint(1, 7)}"
    if kind == 2:
        re, im = (f"{rng.randint(-3, 3)}/{rng.randint(1, 5)}" for _ in range(2))
        return f"({re},{im})"
    return str(rng.randint(10**29, 10**30))


def _bundle_text(rng):
    """Mostly a monomial diagonal with Laurent entries above it (a unit
    determinant), otherwise arbitrary entries, usually not a bundle."""
    exponents = NEAR + FAR if rng.random() < 0.3 else NEAR

    def term():
        return f"{_coeff(rng)}*z^{rng.choice(exponents)}"

    k = rng.randint(1, 4)
    triangular = rng.random() < 0.75
    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            if triangular and i == j:
                row.append(term())
            elif (triangular and j < i) or rng.random() < 0.4:
                row.append("0")
            else:
                row.append(" + ".join(term() for _ in range(rng.randint(1, 3))))
        rows.append(", ".join(row))
    if rng.random() < 0.3:
        rows.reverse()
    text = " ;\n".join(rows) + "\n"
    if rng.random() < 0.3:
        text = f"rank: {k}\n" + text
    cut = rng.random()
    if cut < 0.12:
        at = rng.randrange(len(text))
        text = text[:at] + rng.choice(JUNK) + text[at:]
    elif cut < 0.24:
        text = text[: rng.randrange(len(text))]
    return text


def _window(rng):
    # The draws of the truncation-window option, since removed, kept so the
    # generated files stay the same; nothing is passed.
    if rng.random() >= 0.6:
        rng.choice((-1, 0, 1, 2, 5, 40, 10**6))
    return []


def _calls(rng, f, g, cert, out):
    span = rng.choice(((-3, 3), (-6, 0), (0, 5), (2, -2), (-(10**9), 0), (0, 10**20)))
    yield ["split", f, "-o", cert]
    yield ["split", f, "--json"]
    yield ["op", "dual", f]
    yield ["iso", f, g]
    yield ["selfdual", f, "--json"]
    yield ["h0", f, *_window(rng)]
    yield ["h1", f, *_window(rng)]
    yield ["deg", f, "--json"]
    yield ["chi", f, *_window(rng)]
    yield ["profile", f, "--from", str(span[0]), "--to", str(span[1]), *_window(rng)]
    yield ["op", "det", f]
    yield ["op", rng.choice(("dsum", "tensor")), f, g, "-o", out]
    yield ["op", "dual", f, g]
    yield ["twist", f, str(rng.choice(NEAR + FAR))]
    yield ["verify", f, cert]
    degrees = ",".join(str(rng.choice(NEAR)) for _ in range(rng.randint(0, 4)))
    yield ["random", f"--type={degrees}", "--seed", str(rng.randint(0, 99)), "-o", out]


def _integer(rng):
    """Argv text of an integer of either sign: small enough for a call to
    be answered, 10^4300 - 1 (the largest the option parser reads), or of
    1 to 4300 digits."""
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(0, 3)
    elif kind == 1:
        n = 10**4300 - 1
    else:
        digits = rng.randint(1, 4300)
        n = rng.randint(10 ** (digits - 1), 10**digits - 1)
    return str(rng.choice((n, -n)))


def _integer_calls(rng, f, out):
    m = _integer(rng)
    mode = rng.choice(([], ["--json"]))
    yield ["profile", f, "--from", m, "--to", rng.choice((m, _integer(rng))), *mode]
    yield ["twist", f, _integer(rng), "--json"]
    yield ["twist", f, _integer(rng), "-o", out]
    options = ("--seed", "--gauge-degree", "--moves")
    draws = [x for option in options for x in (option, _integer(rng))]
    yield ["random", "--type=1,0,-1", *draws, "-o", out]


def test_cli_exit_codes_stay_in_contract(tmp_path, capsys, monkeypatch):
    # Every h0, h1 and profile count runs the Cech solves alone, so the
    # counts over the certificate threshold are checked at their windows too.
    monkeypatch.setattr(cech, "_counts", cech_counts)
    rng = random.Random(20201)
    big = random.Random(20281)
    f, g = tmp_path / "f.bundle", tmp_path / "g.bundle"
    cert, out = str(tmp_path / "f.fact"), str(tmp_path / "out.bundle")
    g.write_text(_bundle_text(rng))
    for _ in range(30):
        text = _bundle_text(rng)
        f.write_text(text)
        calls = [*_calls(rng, str(f), str(g), cert, out)]
        calls += _integer_calls(big, str(f), out)
        for argv in calls:
            code = cli.main(argv)
            err = capsys.readouterr().err
            assert code in CONTRACT, (argv, text, err)
            assert code != 3, (argv, text, err)
            assert "Traceback" not in err
        f, g = g, f


def test_split_of_mixed_far_exponents_is_bounded(tmp_path):
    # Two valid files whose column reduction is stopped by its work charge
    # within the timeout.  The 3 x 3 one has 10^20 and 10^6 beside small
    # exponents in its columns: each reduction step lowers a column degree
    # by a few units, of about 10^20 to go.  The 2 x 2 one has 30-digit
    # coefficients that grow by about 30 digits a step, with few terms: the
    # work is charged by coefficient size, not by term count.
    texts = (
        "z^100000000000000000000, z^1000000 + z^2, z^-1 + z^6 ;\n"
        "0, z^-100000000000000000000, 2 + z^-3 ;\n"
        "0, 0, z^-1\n",
        "rank: 2\n"
        "(1/5,-2/3)*z^100000000000000000000, -1*z^3 + 4/3*z^2"
        " + 136671194719350485701899033903*z^-1 ;\n"
        "0, 662599182648589914439142533982*z^-1000000\n",
    )
    path = tmp_path / "far.bundle"
    for text in texts:
        path.write_text(text)
        argv = [sys.executable, "-m", "p1bundles.cli", "split", str(path)]
        r = subprocess.run(argv, capture_output=True, text=True, timeout=2)
        assert r.returncode in (0, 4)
