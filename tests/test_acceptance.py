"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact equality of integers or booleans.
"""

import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import p1bundles.cech as cech
from p1bundles import (
    SplittingType,
    diagonal_bundle,
    grothendieck_split,
    h0_dim,
    h0_profile,
    h1_dim_oracle,
    line_bundle,
    parse_matrix,
    random_bundle,
    splitting_type,
    verify_factorization,
    VectorBundle,
)

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def stability_baseline():
    # Snapshot the window-stability counters before criterion 1 runs so
    # criterion 8 can assert that 1-7 triggered zero instability events.
    return (cech.STABILITY_CHECKS, cech.STABILITY_FAILURES)


def _report(line):
    print(line)


def test_criterion_1_line_bundle_h0(stability_baseline):
    start = time.perf_counter()
    for m in range(0, 11):
        assert h0_dim(line_bundle(m)) == m + 1
    for m in range(-10, 0):
        assert h0_dim(line_bundle(m)) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(f"PASS criterion 1: h0(O(m)) exact for m in [-10, 10] ({elapsed:.3f}s)")


def test_criterion_2_h1_oracle(stability_baseline):
    for m in range(-10, 11):
        assert h1_dim_oracle(line_bundle(m)) == max(0, -m - 1)
    _report("PASS criterion 2: h1 oracle matches max(0, -m-1) on [-10, 10]")


def test_criterion_3_riemann_roch(stability_baseline, forced):
    # h0 solved on E and h1 solved on the Serre partner, so Riemann-Roch
    # compares two systems; each count as answered agrees with them.
    rng = random.Random(93001)
    for _ in range(100):
        k = rng.randint(1, 4)
        degrees = [rng.randint(-5, 5) for _ in range(k)]
        e = random_bundle(degrees, rng.randint(0, 3), rng.randint(0, 10**9))
        h0, h1 = forced(e)
        assert h0 - h1 == e.degree + e.rank
        assert (h0_dim(e), h1_dim_oracle(e)) == (h0, h1)
    _report("PASS criterion 3: h0 - h1 = deg + rank on 100 random bundles")


def test_criterion_4_grothendieck_roundtrip(stability_baseline):
    rng = random.Random(93004)
    start = time.perf_counter()
    for _ in range(200):
        k = rng.randint(1, 5)
        degrees = [rng.randint(-6, 6) for _ in range(k)]
        e = random_bundle(degrees, rng.randint(0, 3), rng.randint(0, 10**9))
        stype, fact = grothendieck_split(e)
        assert tuple(stype) == tuple(sorted(degrees, reverse=True))
        assert verify_factorization(e, fact)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        f"PASS criterion 4: 200 seeded round-trips recovered and verified ({elapsed:.1f}s)"
    )


def _distinct_type_same_rank_degree(rng, k):
    t1 = [rng.randint(-5, 5) for _ in range(k)]
    while True:
        t2 = list(t1)
        i, j = rng.sample(range(k), 2)
        shift = rng.randint(1, 2)
        t2[i] += shift
        t2[j] -= shift
        if sorted(t2) != sorted(t1):
            return t1, t2


def test_criterion_5_weyl_canonicality(stability_baseline):
    # Isomorphism is equality of splitting types, as `cli iso` compares.
    rng = random.Random(93005)
    for _ in range(50):
        k = rng.randint(1, 4)
        degrees = [rng.randint(-5, 5) for _ in range(k)]
        a = random_bundle(degrees, rng.randint(0, 3), rng.randint(0, 10**9))
        b = random_bundle(degrees, rng.randint(0, 3), rng.randint(0, 10**9))
        assert splitting_type(a) == splitting_type(b)
    for _ in range(50):
        k = rng.randint(2, 4)
        t1, t2 = _distinct_type_same_rank_degree(rng, k)
        a = random_bundle(t1, rng.randint(0, 3), rng.randint(0, 10**9))
        b = random_bundle(t2, rng.randint(0, 3), rng.randint(0, 10**9))
        assert sum(t1) == sum(t2) and a.rank == b.rank
        assert splitting_type(a) != splitting_type(b)
    _report("PASS criterion 5: 50 same-type pairs iso, 50 distinct-type pairs not")


def _type_from_profile(e):
    # Invert the h0 staircase: the jump count at m counts summands with
    # degree >= -m, so second differences give the multiset.  Uses only
    # cohomology dimensions, independently of the splitter.
    n = e.max_exponent
    prof = dict(h0_profile(e, -(n + 1), n + 1))
    degrees = []
    prev_jump = 0
    for m in range(-n, n + 2):
        jump = prof[m] - prof[m - 1]
        degrees.extend([-m] * (jump - prev_jump))
        prev_jump = jump
    return SplittingType(degrees)


def test_criterion_6_holomorphic_nonsplitting_witness(stability_baseline):
    eul = VectorBundle(parse_matrix("z^1, 1 ; 0, z^-1"))
    other = VectorBundle(parse_matrix("z^-1, 1 ; 0, z^1"))
    t_eul = splitting_type(eul)
    t_other = splitting_type(other)
    assert tuple(t_eul) == (0, 0)
    assert tuple(t_other) == (1, -1)
    assert _type_from_profile(eul) == t_eul
    assert _type_from_profile(other) == t_other
    _report("PASS criterion 6: extensions split as (0,0) and (1,-1), profile-checked")


def test_criterion_7_type_arithmetic(stability_baseline):
    rng = random.Random(93007)
    for _ in range(50):
        da = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        db = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        a = random_bundle(da, rng.randint(0, 2), rng.randint(0, 10**9))
        b = random_bundle(db, rng.randint(0, 2), rng.randint(0, 10**9))
        assert splitting_type(a.tensor(b)) == SplittingType(
            [x + y for x in da for y in db]
        )
        assert splitting_type(a.dsum(b)) == SplittingType(da + db)
        assert splitting_type(a.dual()) == SplittingType([-x for x in da])
        assert a.det_bundle().degree == sum(da)
    _report("PASS criterion 7: tensor/dsum/dual/det type arithmetic on 50 pairs")


def test_criterion_8_window_stability(stability_baseline):
    checks_before, failures_before = stability_baseline
    assert cech.STABILITY_CHECKS > checks_before
    assert cech.STABILITY_FAILURES == failures_before
    _report(
        "PASS criterion 8: "
        f"{cech.STABILITY_CHECKS - checks_before} stability checks, zero unstable"
    )


def _run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "p1bundles.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_criterion_9_cli_contract(tmp_path, stability_baseline):
    # golden: split
    r = _run_cli("split", str(DATA / "euler.bundle"), "--json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["result"] == {
        "rank": 2,
        "type": [0, 0],
        "deg": 0,
        "verified": True,
    }
    # golden: h0
    r = _run_cli("h0", str(DATA / "o3.bundle"))
    assert r.returncode == 0 and r.stdout == "h0: 4\n"
    # golden: iso of a scramble
    scr = tmp_path / "scr.bundle"
    assert _run_cli(
        "random", "--type", "2,-1", "--gauge-degree", "3", "--seed", "41", "-o", str(scr)
    ).returncode == 0
    r = _run_cli("iso", str(DATA / "diag.bundle"), str(scr))
    assert r.returncode == 0 and r.stdout.splitlines()[0] == "iso: true"
    # random + verify round-trip through files
    fact = tmp_path / "scr.fact"
    r = _run_cli("split", str(scr), "-o", str(fact))
    assert r.returncode == 0
    r = _run_cli("verify", str(scr), str(fact))
    assert r.returncode == 0 and r.stdout == "verified: true\n"
    # exit codes 1 and 2; --window is no option: the windows are proven
    assert _run_cli("split", str(DATA / "invalid.bundle")).returncode == 1
    assert _run_cli("split", str(DATA / "syntax_error.bundle")).returncode == 2
    assert _run_cli("h0", str(DATA / "o3.bundle"), "--window", "1").returncode == 2
    _report("PASS criterion 9: CLI goldens and exit codes 0/1/2")
