"""Seeded instances, queries and independent answer checks.

Every expected answer comes from how the instance was built, never from
the library under test:

* a gauge change ``W * diag(z^-d) * U`` with chart-unimodular ``W`` and
  ``U`` keeps the splitting type ``d``;
* so does ``D1 * T(c*z) * D2`` for constant invertible diagonal ``D1``,
  ``D2`` and ``c != 0``: ``z -> c*z`` is an automorphism of the sphere;
* a tensor product has the pairwise sums of its factors' types;
* ``h0(E(m)) = sum_i max(0, d_i + m + 1)``, and Riemann-Roch
  (``h0 - h1 = deg + rank``) then fixes ``h1``.

A pass is one trip down a workload's ladder of rungs (rank, gauge degree,
construction); each query of a pass fills a slot.  A slot asks about the
same gauge in every pass and for every seed; the seed and the pass draw
``c``, ``D1`` and ``D2`` above, which change every coefficient but not
the sparsity, the exponents or the algorithm's path.  So every pass does
the same work on new numbers, a slot's times across passes are repeated
measurements of one cost, and runs with different seeds are comparable:
a scramble's cost otherwise varies by a factor of two or more with its
random gauge structure.

No two timed bundles in a process are equal, and no two queries share a
bundle: ``cech._sections_dim_at_cutoff`` is an ``lru_cache`` keyed on
bundle equality, so a repeat would time a cache hit.  Queries that would
ask about the same bundle (``h0``, ``h1`` and the profile of one rung)
each get their own rescaling of its gauge.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

# One fixed type per rank: a spread wide enough that every splitter and
# Cech code path (twists, quotients, nonzero h0 and h1) is exercised.
TYPES = {
    2: (1, -1),
    3: (2, 0, -1),
    4: (2, 1, -1, -2),
    5: (2, 1, 0, -1, -2),
    6: (2, 1, 0, 0, -1, -2),
}
# Tensor factors: (1, 0) x (1, -1) has rank 4, (1, 0) x (1, 0, -1) rank 6.
TENSOR_FACTORS = {4: ((1, 0), (1, -1)), 6: ((1, 0), (1, 0, -1))}

# Rungs are (construction, rank, gauge degree).  "scramble" is
# random_bundle; "tensor" is a product of two scrambles; "qi" is a
# benchmark-built gauge with Q(i) denominators, which random_bundle
# (Gaussian integers in [-2, 2]) never produces.
LADDER = (
    [("scramble", r, g) for r in (2, 3, 4, 5, 6) for g in (0, 1, 2, 3)]
    + [("tensor", 4, g) for g in (0, 1, 2, 3)]
    + [("tensor", 6, g) for g in (0, 1, 2)]
    + [("qi", 3, 1), ("qi", 4, 1), ("qi", 4, 2)]
)

# Bundle files of the cli workload: rank 2-4 scrambles, one tensor partner.
CLI_RUNGS = [("scramble", 2, 2), ("scramble", 3, 1), ("scramble", 4, 1)]
CLI_PARTNER = ("scramble", 2, 1)

# Rescaling scalars as (re, im).  All variable scalings are associates of
# 1 + i and all frame scalings are units, so coefficient heights, and with
# them the cost of exact arithmetic, are the same on every seed.
_VARIABLE_SCALES = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_FRAME_SCALES = ((1, 0), (-1, 0), (0, 1), (0, -1))


@dataclass
class Instance:
    label: str
    bundle: object
    type: tuple  # expected splitting type, nonincreasing

    @property
    def rank(self):
        return len(self.type)

    @property
    def degree(self):
        return sum(self.type)

    def h0(self, m=0):
        return sum(max(0, d + m + 1) for d in self.type)

    def h1(self):
        # Riemann-Roch on P^1: h0 - h1 = deg + rank.
        return self.h0() - (self.degree + self.rank)

    def profile_range(self):
        """Twists from the last one with h0 = 0 to the first linear one."""
        return -self.type[0] - 1, -self.type[-1]


@dataclass
class Query:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    slot: int = 0  # position in the pass before shuffling; the same every pass


class SeedStream:
    """Independent integer seeds for one purpose of one workload."""

    def __init__(self, seed, workload: str, purpose: str):
        self._rng = random.Random(f"p1bundles-bench:{workload}:{seed}:{purpose}")

    def next(self) -> int:
        return self._rng.getrandbits(48)

    def rng(self) -> random.Random:
        return random.Random(self.next())


def _qi_scalar(lib, rng):
    while True:
        c = lib.GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
        )
        if c:
            return c


def qi_gauge_bundle(lib, degrees, gauge_degree, rng):
    """diag(z^-d) scrambled by full-degree Q(i) shears on both charts.

    Each shear is the identity plus one off-diagonal chart polynomial, so
    it is unipotent and chart-unimodular; the type stays ``degrees``.
    """
    k = len(degrees)
    t = lib.LaurentMatrix.diagonal([lib.z_power(-d) for d in degrees])
    for step in range(2 * k):
        i, j = rng.sample(range(k), 2)
        sign = -1 if step % 2 == 0 else 1  # w-chart on the left, z on the right
        poly = lib.LaurentPoly(
            {sign * e: _qi_scalar(lib, rng) for e in range(gauge_degree + 1)}
        )
        shear = lib.LaurentMatrix.identity(k).with_entry(i, j, poly)
        t = shear * t if sign < 0 else t * shear
    return lib.VectorBundle(t)


def _power(c, e):
    acc = c.inverse() if e < 0 else c
    out = type(c)(1)
    for _ in range(abs(e)):
        out = out * acc
    return out


def rescaled(lib, bundle, rng):
    """``D1 * T(c*z) * D2`` with seeded c and diagonal D1, D2 (same type)."""
    k = bundle.rank
    scalar = lib.GaussianRational
    c = scalar(*rng.choice(_VARIABLE_SCALES))
    d1 = [scalar(*rng.choice(_FRAME_SCALES)) for _ in range(k)]
    d2 = [scalar(*rng.choice(_FRAME_SCALES)) for _ in range(k)]
    grid = [
        [
            lib.LaurentPoly({e: v * d1[i] * d2[j] * _power(c, e) for e, v in p.items()})
            for j, p in enumerate(row)
        ]
        for i, row in enumerate(bundle.transition.entries)
    ]
    return lib.VectorBundle(lib.LaurentMatrix(grid))


class InstanceMaker:
    """Builds rung instances, never a bundle in ``seen``.

    The ``structure`` stream draws one gauge per rung and ignores the
    run's seed; every later call for that rung rescales the same gauge.
    The ``scaling`` stream, keyed by the seed, draws the rescalings.
    """

    def __init__(self, lib, workload: str, seed: int, structure: str, scaling: str, seen):
        self.lib = lib
        self.base = SeedStream("base", workload, structure)
        self.rng = SeedStream(seed, workload, scaling).rng()
        self.seen = seen
        self.gauges = {}

    def copies(self, rung, n: int) -> list:
        """``n`` unequal rescalings of the rung's gauge, none of them in ``seen``."""
        kind, rank, g = rung
        label = f"{kind}{rank}g{g}"
        if rung not in self.gauges:
            self.gauges[rung] = self._build(kind, rank, g)
        base, stype = self.gauges[rung]
        out = []
        while len(out) < n:
            bundle = rescaled(self.lib, base, self.rng)
            if bundle not in self.seen:
                self.seen.add(bundle)
                out.append(Instance(label, bundle, stype))
        return out

    def _build(self, kind, rank, g):
        lib = self.lib
        if kind == "scramble":
            return lib.random_bundle(TYPES[rank], g, self.base.next()), TYPES[rank]
        if kind == "tensor":
            ta, tb = TENSOR_FACTORS[rank]
            a = lib.random_bundle(ta, g, self.base.next())
            b = lib.random_bundle(tb, g, self.base.next())
            stype = tuple(sorted((x + y for x in ta for y in tb), reverse=True))
            return a.tensor(b), stype
        if kind == "qi":
            return qi_gauge_bundle(lib, TYPES[rank], g, self.base.rng()), TYPES[rank]
        raise ValueError(f"unknown rung kind {kind!r}")


def stability_failures(lib) -> int:
    # Read by name so a later stats registry can move or drop the counter.
    return getattr(lib.cech, "STABILITY_FAILURES", 0)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


class _Workload:
    def __init__(self, lib, seed: int, workdir=None, in_process: bool = True):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process
        self.seen = set()
        self.maker = self._maker("pass", "pass")
        # Warm-up gauges are disjoint from every timed one.
        self.warm_maker = self._maker("warm", "warm")
        self.order = SeedStream("base", self.name, "order").rng()

    def _maker(self, structure, scaling):
        return InstanceMaker(self.lib, self.name, self.seed, structure, scaling, self.seen)

    def rewind(self):
        """Restart the pass sequence: the same gauges, new coefficients."""
        self.maker = self._maker("pass", "rewound")
        self.order = SeedStream("base", self.name, "order").rng()

    def close(self):
        pass


class _LibraryWorkload(_Workload):
    ladder = LADDER
    smoke_rungs = LADDER[:1]

    def make_pass(self, rungs=None):
        queries = [
            q
            for rung in (rungs or self.ladder)
            for q in self.queries(self.maker.copies(rung, self.copies))
        ]
        for slot, q in enumerate(queries):
            q.slot = slot
        # Each pass runs its slots in a new order, the same for every seed,
        # so a slot's repeats fall at different points of the run.
        self.order.shuffle(queries)
        return queries

    def warm_up(self):
        for rung in self.warm_rungs:
            for q in self.queries(self.warm_maker.copies(rung, self.copies)):
                if not q.check(q.run()):
                    raise RuntimeError(f"warm-up query {q.label} answered wrongly")
        # Fill the modular kernel's prime cache past what any rung uses.
        primes = getattr(self.lib.lmatrix, "_primes_with_i", None)
        if primes is not None:
            for _ in itertools.islice(primes(), 32):
                pass


class SplitWorkload(_LibraryWorkload):
    """grothendieck_split (with its certificate verify) then dual()."""

    name = "split"
    warm_rungs = [("scramble", 3, 1), ("tensor", 4, 1)]
    copies = 1

    def queries(self, instances):
        lib = self.lib
        (inst,) = instances

        def run():
            stype, fact = lib.splitter.grothendieck_split(inst.bundle)
            return stype, inst.bundle.dual()

        def check(out):
            stype, dual = out
            t = inst.bundle.transition
            return (
                tuple(stype) == inst.type
                and dual.rank == inst.rank
                and dual.degree == -inst.degree
                and dual.transition.transpose() * t
                == lib.LaurentMatrix.identity(inst.rank)
            )

        yield Query(inst.label, run, check)


class CohomologyWorkload(_LibraryWorkload):
    """h0_dim, h1_dim_oracle and h0_profile over a range spanning the type."""

    name = "cohomology"
    # The rank-6 tensor needs more than 2,400 cells, so the warm-up runs
    # both kernel paths.
    warm_rungs = [("scramble", 3, 1), ("tensor", 6, 1)]
    # One rescaling per query, so no query reads another's cached solves.
    copies = 3

    def queries(self, instances):
        cech = self.lib.cech
        a, b, c = (inst.bundle for inst in instances)
        inst = instances[0]
        lo, hi = inst.profile_range()
        expected_profile = [(m, inst.h0(m)) for m in range(lo, hi + 1)]
        calls = [
            ("h0", lambda: cech.h0_dim(a), inst.h0()),
            ("h1", lambda: cech.h1_dim_oracle(b), inst.h1()),
            ("profile", lambda: cech.h0_profile(c, lo, hi), expected_profile),
        ]
        for what, call, expected in calls:
            yield self._query(f"{inst.label}.{what}", call, expected)

    def _query(self, label, call, expected):
        lib = self.lib

        def run():
            before = stability_failures(lib)
            value = call()
            return value, stability_failures(lib) - before

        def check(out):
            value, new_failures = out
            return new_failures == 0 and value == expected

        return Query(label, run, check)


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------


class CliWorkload(_Workload):
    """Bundle files through ``python -m p1bundles.cli ... --json``.

    Each query is its own interpreter, so startup and the text layer are
    paid every time.  With ``in_process`` the same commands call
    ``cli.main`` directly, which is what the traced run wraps.
    """

    name = "cli"
    smoke_rungs = CLI_RUNGS[:1]

    def __init__(self, lib, seed: int, workdir, in_process: bool = False):
        super().__init__(lib, seed, workdir, in_process)
        self.bad_rng = SeedStream(seed, self.name, "bad").rng()
        self.files = 0
        src = os.path.dirname(os.path.dirname(lib.__file__))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        os.makedirs(workdir, exist_ok=True)

    def _path(self, suffix):
        self.files += 1
        return os.path.join(self.workdir, f"f{self.files}.{suffix}")

    def _write(self, text, suffix="bundle"):
        path = self._path(suffix)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _bundle_files(self, maker, rung, n=1):
        return [(inst, self._write(self.lib.format_bundle(inst.bundle)))
                for inst in maker.copies(rung, n)]

    def make_pass(self, rungs=None):
        queries = []
        first = None
        for rung in rungs or CLI_RUNGS:
            # split and verify share a file; h0, h1 and profile each get
            # their own rescaling, so an in-process run times no cache hit.
            (inst, path), (_, p0), (_, p1), (_, pp) = self._bundle_files(self.maker, rung, 4)
            first = first or (inst, path)
            cert = self._path("cert")
            lo, hi = inst.profile_range()
            expected_profile = [[m, inst.h0(m)] for m in range(lo, hi + 1)]
            split = {"rank": inst.rank, "type": list(inst.type), "deg": inst.degree,
                     "verified": True}
            queries += [
                self._query(inst.label, ["split", path, "-o", cert], 0, split),
                self._query(inst.label, ["verify", path, cert], 0, {"verified": True}),
                self._query(inst.label, ["h0", p0], 0, {"h0": inst.h0()}),
                self._query(inst.label, ["h1", p1], 0, {"h1": inst.h1()}),
                self._query(
                    inst.label,
                    ["profile", pp, "--from", str(lo), "--to", str(hi)],
                    0,
                    {"from": lo, "to": hi, "profile": expected_profile},
                ),
            ]
        inst, path = first
        ((partner, ppath),) = self._bundle_files(self.maker, CLI_PARTNER)
        out = self._path("bundle")
        queries.append(
            self._query(
                "tensor",
                ["op", "tensor", path, ppath, "-o", out],
                0,
                {
                    "rank": inst.rank * partner.rank,
                    "deg": inst.rank * partner.degree + partner.rank * inst.degree,
                    "path": out,
                },
            )
        )
        queries += self._bad_file_queries()
        for slot, q in enumerate(queries):
            q.slot = slot
        return queries

    def _bad_file_queries(self):
        rng = self.bad_rng
        a, b, c = rng.randint(-3, 3), rng.randint(1, 3), rng.randint(1, 5)
        # det = z^a * (z^b + c) is not a unit: invalid bundle, exit 1.
        invalid = self._write(f"rank: 2\nz^{a}, 0 ;\n0, z^{b} + {c}\n")
        # A stray character: parse error, exit 2.
        garbled = self._write(f"z^{a}, ${b} ; 0, 1\n")
        return [
            self._query("invalid", ["h0", invalid], 1, None),
            self._query("unparsable", ["split", garbled], 2, None),
        ]

    def _query(self, label, argv, code, result):
        argv = argv + ["--json"]

        def check(out):
            rc, stdout, stderr = out
            if rc != code or "Traceback" in stderr:
                return False
            if result is None:
                return stdout == ""
            try:
                report = json.loads(stdout)
            except ValueError:
                return False
            return report.get("command") == argv[0] and report.get("result") == result

        return Query(f"{argv[0]}.{label}", lambda: self.invoke(argv), check)

    def invoke(self, argv):
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = self.lib.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code
            return rc, out.getvalue(), err.getvalue()
        proc = subprocess.run(
            [sys.executable, "-m", "p1bundles.cli"] + argv,
            capture_output=True,
            text=True,
            env=self.env,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def warm_up(self):
        ((inst, path),) = self._bundle_files(self.warm_maker, CLI_RUNGS[0])
        rc, stdout, _ = self.invoke(["deg", path, "--json"])
        if rc != 0 or json.loads(stdout)["result"]["deg"] != inst.degree:
            raise RuntimeError("cli warm-up answered wrongly")

    def close(self):
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (SplitWorkload, CohomologyWorkload, CliWorkload)}
