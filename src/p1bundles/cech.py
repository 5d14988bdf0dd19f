"""Two-chart Cech cohomology: exact H0, H1 by Serre duality, Euler
characteristic, and twist profiles.

A global section of E is a pair of chart-holomorphic vectors agreeing on
the overlap.  In chart-0 data that is a polynomial vector f with T*f
holomorphic at infinity, i.e. with no positive exponents.  H0 is therefore
the kernel of an explicit coefficient-level linear system, assembled here
and handed to the exact kernel engine.  More generally everything below is
phrased through one primitive,

    sections_with_cutoff(E, c) = { f polynomial : T*f has exponents <= c },

which is the chart-0 model of H0(E tensor O(c)).  It depends on the
transition T alone, so the routines below read T's terms, and no bundle
is built.

Assembly.  The system is block-Toeplitz: the entry multiplying f_{j,s} in
the row for exponent t of component i is the z^(t-s) coefficient of T_ij.
It is built from a table of T's terms read once per count (_sides), each
term c*z^d of T_ij landing in the rows t = s + d above the cutoff, as
sparse Z[i] rows (lmatrix.SparseSystem), each cleared by the lcm of its
own denominators; no dense grid and no zero entry is made.  The shape is
counted first, by one linear merge per row: the rows a term z^d reaches
above cutoff c start at max(c + 1, d), so a row's terms, sorted once by d,
are in order of start at every cutoff.  A system over MAX_SYSTEM_CELLS
rows x unknowns raises SystemTooLarge.

Truncation windows.  Every count is one tail solve at cutoff c: slot s of
column j is unconstrained exactly when s <= c - M_j (M_j the top degree of
that transition column), so those slots are counted structurally and only
the tail s in [max(0, c - M_j + 1), W_j + 1] is solved, once.

Each column has its own window W_j = c + hi_j, a degree bound read off T
alone.  A section with cutoff c is f = T^-1 h with h of exponents <= c,
and component j of f reads row j of T^-1 = adj(T) / (c*z^e).  The entries
of that row are cofactors that drop column j of T and one row, so with
rowmax/colmax the top exponents of T's rows and columns,

    hi_j = min(sum(rowmax) - min(rowmax), sum(colmax) - colmax_j) - e

bounds deg f_j - c (Kailath, Linear Systems, 1980, ch. 6); no caller
chooses a window.  When every c + hi_j < 0 the section space is 0 and
nothing is solved, and a column with W_j < -1 has no unknowns.  Each
solve still asserts that the count would not change at W_j + 1: on every
column no slot past W_j is free by structure, and no kernel vector
touches a slot W_j + 1.  So a wrong bound raises WindowUnstable instead
of giving a wrong count.  h0_sections reads its basis off the same solve.

Nested cutoffs.  The section spaces S(c) = sections_with_cutoff(E, c) are
nested, and a profile over c_lo..C needs several of them.  One tail solve
at the top cutoff C gives a basis of S(C); S(c) is where the coefficients
of T*f at the exponents in (c, C] vanish, so every dim S(c) follows from
the prefix ranks of one matrix G^T (basis vectors x those coefficients, in
descending exponent), read off one certified kernel (_nested_dims).  A
run of cutoffs on one side (below) takes the chain when the cells it
builds, bounded before any solve, are no more than the separate solves';
tiny systems with a wide band of free slots, such as a profile of
O(1000) + O(-1000), keep one solve per cutoff.

H1 is an H0.  On P^1 the canonical bundle is O(-2), so h1(E) =
h0(E*(-2)) (Serre, Ann. of Math. 61, 1955), and E*(-2) has transition
S = z^2 T^-T.  A section f of E*(-2) maps to h = S*f in C[w]^k, with
f = z^-2 T^T h in C[z]^k.  Swapping the charts, g(z) = h(1/z) is a
polynomial vector with P*g = f(1/z) holomorphic at infinity, for the
Serre partner

    P(z) = z^2 * T(1/z)^T,

and every section g of P comes back from one f.  So h1(E) = h0(P): a
count at cutoff 0 on a transition read off T by negating and shifting
its exponents, with det P = c*z^(2k - e), and no inverse.  Twisting E by
O(c) twists P by O(-c), so h1(E(c)) = dim S_P(-c), and the partner of P
is T again.  On O(d), P = z^(d+2) is O(-d-2), and h0 = max(0, -d-1).

Which side is counted.  Riemann-Roch on P^1 gives every count two exact
routes: dim S_E(c) = deg E + k*(c + 1) + dim S_P(-c).  P is read as a
table, never built as a matrix: the pass over T that makes T's table makes
P's, each term c*z^d of T_ji read as c*z^(2-d) of P_ij.  The shapes of both
systems are known before any solve, and _counts counts each cutoff on the
side with the smaller system.  S_E(c) grows with c and S_P(-c) shrinks,
so a range of cutoffs is split at one crossover, chosen to minimise the
cells planned: E below it, P above it, each side one run (chain or
separate solves).  Only a band of cutoffs needs a plan at all: below
-max(hi_j of T) S_E(c) is 0, and above max(hi_j of P) S_P(-c) is 0, so
the count there is the Riemann-Roch formula with no solve.

Which route answers.  Every count is planned as above (_plan), so what is
refused is refused before either route runs.  A plan that charges more
than _CERTIFICATE_CELLS cells, a constant set from measured costs, is not
solved: the count is read off the splitting type d of
splitter.grothendieck_split, E = O(d_1) + ... + O(d_k), as
dim S(c) = sum_j max(0, d_j + c + 1) at every cutoff at once.  That type
is proven by its certificate W*T*U = D and its form checks.  A split
refused as too large falls back to the planned solves (_solve), which
answer every smaller count and stay the independent check of the
splitter.  Either route gives the same answer, so the output is unchanged.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from itertools import accumulate
from operator import itemgetter

from .bundle import VectorBundle
from .errors import RefusedArgument, SystemTooLarge, WindowUnstable
from .exact import ONE, ZERO
from .laurent import LaurentPoly, _dot, chart_contains, Chart
from .lmatrix import MAX_SYSTEM_CELLS, SparseSystem, check_size, clear_row, kernel_basis

# Counters so test harnesses can confirm stability checks actually ran.
STABILITY_CHECKS = 0
STABILITY_FAILURES = 0

# A count whose Cech plan charges more cells than this is read off the
# verified splitting type instead (:func:`_counts`).  Set from a sweep of
# 229 counts (h0, h1 and the profile over the type's range; best of 5 on
# fresh copies, the plan timed on both routes; 2-vCPU Xeon, Python 3.11):
# the 30 rungs of the benchmark ladder, 9 Q(i) shear products, 25
# random_bundle scrambles of rank 2-6 at gauge degree 0-4, 8 Kronecker
# tensors and 10 wide diagonals.  On the ladder the crossover lies between
# 1,504 cells (rank-6 tensor h0: Cech 1.17 ms, certificate 2.68 ms) and
# 2,170 (rank-5 scramble profile: 1.20 vs 0.82 ms).  Of the 33 counts above
# 2,000 cells, 24 are cheaper through the certificate, up to 5.9x (a rank-6
# tensor profile of 67,902 cells: 14.16 vs 2.41 ms); the other 9 lose at
# most 2.4 ms (a shear product's profile of 2,262 cells: 4.06 vs 6.50 ms).
# Below it, the largest loss is a wide diagonal's profile, whose cells, one
# per twist, under-read a solve's fixed cost: O(500) + O(-500) over its
# 1,002 twists takes 23.3 ms through Cech against 8.4 ms.
_CERTIFICATE_CELLS = 2_000


class Section:
    """Chart-0 data of a global section: one polynomial per component.

    A read-only value, equal to and hashed like another Section with the
    same components.
    """

    __slots__ = ("components",)

    def __init__(self, components):
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash((self.components,))

    def __repr__(self):
        return f"Section(components={self.components!r})"

    def __iter__(self):
        return iter(self.components)

    def __len__(self):
        return len(self.components)


def is_section(e: VectorBundle, s: Section) -> bool:
    """Re-substitution check: components polynomial and T*s holomorphic at
    infinity."""
    if len(s) != e.rank:
        return False
    for p in s:
        if not chart_contains(p, Chart.Z):
            return False
    t = e.transition
    for i in range(e.rank):
        if not chart_contains(_dot(zip(t.row(i), s.components)), Chart.W):
            return False
    return True


# ---------------------------------------------------------------------------
# Constraint assembly
# ---------------------------------------------------------------------------

# A transition's terms, read once per count (:func:`_sides`): per column j
# its top exponent M_j and window bound hi_j; per row its terms (j, d, c), by
# ascending d for the shape, and by column then descending d for assembly.
_Side = namedtuple("_Side", "tops his by_d rows")


def _system_shape(side: _Side, cutoff: int, col_ranges):
    """(rows, unknowns) of the Cech system, counted without building it.

    The rows of component i are the exponents above the cutoff in the union
    of the spans [lo_j + d, hi_j + d], one per term z^d of row i.  On a
    plan's ranges (:func:`_tail_plan`) lo_j = max(0, cutoff - M_j + 1), and
    each d of column j is at most M_j, so a span clipped to the rows above
    the cutoff starts at max(cutoff + 1, d): the row's terms, sorted once by
    d, are in order of start at every cutoff, and one merge counts the
    union.  On ranges with a larger lo_j the count is an upper bound.
    """
    ncols = sum(max(0, hi - lo + 1) for lo, hi in col_ranges)
    nrows = 0
    for terms in side.by_d:
        reach = cutoff  # exponents <= reach are counted or not above the cutoff
        for j, d, _ in terms:
            lo, hi = col_ranges[j]
            if lo <= hi and hi + d > reach:
                nrows += hi + d - reach if d <= reach else hi + 1
                reach = hi + d
    return nrows, ncols


def _constraint_system(side: _Side, cutoff: int, col_ranges, shape=None):
    """Rows: coefficients of (T*f)_i at exponents above the cutoff, over Z[i].

    Unknowns are the coefficients f_{j,s} for s in col_ranges[j], numbered
    column by column; the entry multiplying f_{j,s} in the row for exponent
    t of component i is the z^(t-s) coefficient of T_ij.  Each term c*z^d
    of T_ij is placed straight into the rows t = s + d > cutoff it reaches,
    so no zero entry is ever made, and each row is cleared to Gaussian
    integers by the lcm of its own denominators.  Returns the system and
    the unknowns (j, s) in column order.

    The shape, counted by :func:`_system_shape` unless the caller already
    has it, is bounded before anything is allocated: more than
    MAX_SYSTEM_CELLS rows x unknowns raises SystemTooLarge.
    """
    if shape is None:
        shape = _system_shape(side, cutoff, col_ranges)
    nrows, ncols = shape
    check_size(nrows * ncols, f"Cech system of up to {nrows} x {ncols}")
    offset, unknowns = [], []  # f_{j,s} is unknown offset[j] + s
    for j, (lo, hi) in enumerate(col_ranges):
        offset.append(len(unknowns) - lo)
        unknowns += [(j, s) for s in range(lo, hi + 1)]
    rows = []
    for terms in side.rows:
        by_exp = {}
        # Terms by column, then descending d: each row's entries come in
        # increasing column order.
        for j, d, c in terms:
            lo, hi = col_ranges[j]
            for s in range(max(lo, cutoff + 1 - d), hi + 1):
                by_exp.setdefault(s + d, []).append((offset[j] + s, c))
        rows += [clear_row(by_exp[x]) for x in sorted(by_exp)]
    return SparseSystem(rows, ncols), unknowns


def _record_stability(ok: bool, what: str):
    global STABILITY_CHECKS, STABILITY_FAILURES
    STABILITY_CHECKS += 1
    if not ok:
        STABILITY_FAILURES += 1
        raise WindowUnstable(what)


# ---------------------------------------------------------------------------
# Windows and tail solves
# ---------------------------------------------------------------------------


def _column_windows(rowmax, colmax, x: int):
    """[hi_j], hi_j bounding every exponent in row j of T^-1, for a
    transition with these row and column maxima and det c*z^x.

    (T^-1)_ji = C_ij / (c*z^x), C_ij the (i, j) cofactor: a (k-1)-minor
    with one entry from each row but row i and from each column but column
    j.  Each of its terms has top exponent at most sum(rowmax) - rowmax_i
    <= sum(rowmax) - min(rowmax), and at most sum(colmax) - colmax_j
    (Kailath, Linear Systems, 1980, ch. 6).
    """
    by_rows = sum(rowmax) - min(rowmax)
    by_cols = sum(colmax)
    return [min(by_rows, by_cols - m) - x for m in colmax]


def _sides(e: VectorBundle):
    """(T's table, its Serre partner P's table), from one pass over T's
    terms.  P is never built: each term c*z^d of T_ji is c*z^(2 - d) of
    P_ij, so the top of column j on one side is 2 minus the lowest exponent
    of row j on the other, and det P = c*z^(2k - x) for det T = c*z^x.  A
    valid transition has no zero row or column: every extreme exists."""
    k, x = e.rank, e.det_unit[1]
    rows, p_rows = [[] for _ in range(k)], [[] for _ in range(k)]
    for i, line in enumerate(e.transition.entries):
        for j in reversed(range(k)):
            for d, c in sorted(line[j].items()):
                rows[i].append((j, d, c))
                p_rows[j].append((i, 2 - d, c))
        rows[i].reverse()
    by_d, p_by_d = ([sorted(t, key=itemgetter(1)) for t in r] for r in (rows, p_rows))
    tops, p_tops = [2 - b[0][1] for b in p_by_d], [2 - b[0][1] for b in by_d]
    his = _column_windows([b[-1][1] for b in by_d], tops, x)
    p_his = _column_windows([b[-1][1] for b in p_by_d], p_tops, 2 * k - x)
    return _Side(tops, his, by_d, rows), _Side(p_tops, p_his, p_by_d, p_rows)


def _tail_plan(side: _Side, cutoff: int):
    """(cutoff, ranges, shape) of the one tail solve at this cutoff on a
    side of :func:`_sides`: column j solves the slots
    max(0, cutoff - M_j + 1) .. W_j + 1, W_j = cutoff + hi_j.  This is the
    set-up :func:`_counts` bounds before its first solve and hands on to
    the solves, so no cutoff is set up twice."""
    tops, his = side[:2]
    ranges = tuple((max(0, cutoff - m + 1), cutoff + h + 1) for m, h in zip(tops, his))
    return cutoff, ranges, _system_shape(side, cutoff, ranges)


def _cells(plan) -> int:
    """Cells of a plan's system, at least one, as every count is charged."""
    rows, cols = plan[2]
    return max(1, rows * cols)


def _tail_solve(side: _Side, plan):
    """(free slot count, kernel basis, unknowns) of the one tail solve for
    a plan of :func:`_tail_plan`.  The free slots are s <= cutoff - M_j.
    The solve is stable when on every column no slot past W_j is free and
    no kernel vector touches slot W_j + 1; it raises WindowUnstable
    otherwise.  A column with W_j < -1 has neither unknowns nor a check
    slot, so it is stable when it has no free slot."""
    cutoff, ranges, shape = plan
    system, unknowns = _constraint_system(side, cutoff, ranges, shape)
    basis = kernel_basis(system)
    top = [idx for idx, (j, s) in enumerate(unknowns) if s == ranges[j][1]]
    stable = all(lo <= max(0, hi) for lo, hi in ranges)
    stable = stable and not any(v[idx] for v in basis for idx in top)
    windows = [hi - 1 for _, hi in ranges]
    _record_stability(stable, f"count changed past the column windows {windows}")
    return sum(lo for lo, _ in ranges), basis, unknowns


def _sections_dim(side: _Side, plan) -> int:
    """dim { f : deg f_j <= W_j, T*f has exponents <= cutoff }, exactly,
    from the one tail solve of :func:`_tail_solve`."""
    free, basis, _ = _tail_solve(side, plan)
    return free + len(basis)


def _band(bottom, top):
    """Per column j, the bounds (a, b) of the slots a <= s < b that are free
    at the top plan's cutoff but not at the bottom's (s > c_lo - M_j): the
    structural monomials z^s e_j whose T*f reaches an exponent above c_lo.
    Bounds, not ranges: a band can be longer than ``len`` of a range
    takes."""
    return [(a, b) for (a, _), (b, _) in zip(bottom[1], top[1])]


def _chain_cells(bottom, top) -> int:
    """An upper bound on the cells :func:`_nested_dims` builds, known before
    any solve: the top system, and G^T of at most one row per band monomial
    (:func:`_band`) plus one per top unknown, by k*(top - c_lo) columns."""
    cols, k = top[2][1], len(top[1])
    band = sum(max(0, b - a) for a, b in _band(bottom, top))
    return _cells(top) + (band + cols) * k * (top[0] - bottom[0])


def _nested_dims(side: _Side, bottom, top):
    """[dim S(c) for c in c_lo..C], S(c) = {f : T*f has exponents <= c},
    for the plans (:func:`_tail_plan`) at c_lo and C, from one tail solve
    at C and one certified rank computation.

    For c <= C, S(c) is the subspace of S(C) on which the coefficients of
    T*f at exponents t in (c, C] vanish; C's windows bound every S(c), as
    the windows c + hi_j rise with c.  G^T has one row per basis vector of
    S(C) whose T*f reaches that band (the free slots s <= c_lo - M_j never
    do), one column per (component i, exponent t), in descending t.
    Each canonical kernel vector of G^T has 1 at its free column and 0
    after it, so its last nonzero entry marks a column that depends
    exactly (the kernel is verified) on earlier ones: the prefix rank is
    at most the pivots in the prefix.  A mod-p rank never
    exceeds the true rank, so it is also at least that.  Hence dim S(c) =
    dim S(C) - (k*(C - c) - free columns among the first k*(C - c)).
    The top solve's W_j + 1 check covers every lower cutoff: a section of
    one that touched that slot would lie in S(C).  The caller bounds the
    cells built through :func:`_chain_cells`.
    """
    free, basis, unknowns = _tail_solve(side, top)
    k, c_lo, c_top = len(side.tops), bottom[0], top[0]
    cols = [[] for _ in range(k)]  # the side's terms (i, d, a) by column
    for i, terms in enumerate(side.rows):
        for j, d, a in terms:
            cols[j].append((i, d, a))
    band = enumerate(_band(bottom, top))
    vectors = [{(j, s): ONE} for j, (a, b) in band for s in range(a, b)]
    vectors += [{u: c for u, c in zip(unknowns, v) if c} for v in basis]
    rows = []
    for vec in vectors:
        acc = {}
        for (j, s), c in vec.items():
            for i, d, a in cols[j]:
                if c_lo < s + d <= c_top:
                    col = (c_top - s - d) * k + i
                    acc[col] = acc.get(col, ZERO) + a * c
        if row := [(col, x) for col, x in sorted(acc.items()) if x]:
            rows.append(clear_row(row))
    g_t = SparseSystem(rows, k * (c_top - c_lo))
    dependent = sorted(max(i for i, x in enumerate(v) if x) for v in kernel_basis(g_t))
    dim = free + len(basis)
    return [
        dim - k * (c_top - c) + bisect_left(dependent, k * (c_top - c))
        for c in range(c_lo, c_top + 1)
    ]


def _run(side: _Side, plans):
    """[dim S(c)] over the consecutive ascending cutoffs of ``plans`` on one
    side: one chain (:func:`_nested_dims`) when, by :func:`_chain_cells`,
    it builds no more cells than the separate solves and fits the limit,
    and otherwise one solve per cutoff."""
    if len(plans) > 1:
        separate = sum(map(_cells, plans))
        if _chain_cells(plans[0], plans[-1]) <= min(separate, MAX_SYSTEM_CELLS):
            return _nested_dims(side, plans[0], plans[-1])
    return [_sections_dim(side, plan) for plan in plans]


# One count plan of :func:`_plan`: the cutoffs c_lo..c_hi, counted as 0
# below ``lo``, on E's table ``sx`` at the plans ``xs`` (cutoffs lo..), on the
# partner's table ``sy`` at the plans ``ys`` (ascending cutoff, ..hi), and by
# Riemann-Roch alone above ``hi``; ``cells`` is what the solves are charged.
_Plan = namedtuple("_Plan", "e c_lo c_hi lo hi sx xs sy ys cells")


def _plan(e: VectorBundle, c_lo: int, c_hi: int) -> _Plan:
    """The Cech plan of [dim S(c) for c in c_lo..c_hi], S(c) the sections
    of E with cutoff c, bounded before anything is solved.

    By Riemann-Roch, dim S_E(c) = deg E + k*(c + 1) + dim S_P(-c), P the
    Serre partner.  Cutoffs below -max(hi_j of T) have no section and are
    answered 0; cutoffs above max(hi_j of P) have none on P and are
    answered by the formula.  Each cutoff of the band between is planned
    on both sides (:func:`_tail_plan`), each from its table of
    :func:`_sides`, and SystemTooLarge is raised before the first solve once
    the smaller of each cutoff's two systems sum over MAX_SYSTEM_CELLS,
    every cutoff charged at least one cell.  The band is split where the
    planned cells of E below and P above are fewest, ties going to E, and
    each part is one :func:`_run` of :func:`_solve`.  The caller keeps the
    number of cutoffs within the limit.

    No top slot W_j + 1 is free by structure: the (j, j) entry of
    T^-1 * T = I needs a pair of exponents a <= hi_j (row j of T^-1) and
    b <= M_j with a + b = 0, so M_j >= -hi_j and c - M_j <= W_j.
    """
    sx, sy = _sides(e)
    lo = min(c_hi + 1, max(c_lo, -max(sx.his)))
    hi = max(lo - 1, min(c_hi, max(sy.his)))
    band = range(lo, hi + 1)
    if not band:
        return _Plan(e, c_lo, c_hi, lo, hi, sx, [], sy, [], 0)
    n = len(band)
    outside = c_hi - c_lo + 1 - n
    cells = outside
    px, py = [], []
    for c in band:
        px.append(_tail_plan(sx, c))
        py.append(_tail_plan(sy, -c))
        cells += min(_cells(px[-1]), _cells(py[-1]))
        check_size(cells, f"Cech systems at cutoffs {c_lo}..{c}")
    below = list(accumulate(map(_cells, px), initial=0))
    above = list(accumulate(map(_cells, reversed(py)), initial=0))
    split = min(range(n + 1), key=lambda s: (below[s] + above[n - s], -s))
    cells = outside + below[split] + above[n - split]
    check_size(cells, f"Cech systems at cutoffs {c_lo}..{c_hi}")
    return _Plan(e, c_lo, c_hi, lo, hi, sx, px[:split], sy, py[split:][::-1], cells)


def _solve(plan: _Plan):
    """[dim S(c) for c in c_lo..c_hi] by the Cech solves of a plan of
    :func:`_plan`: one :func:`_run` on each side of its crossover."""
    e, c_lo, c_hi, lo, hi, sx, xs, sy, ys, _ = plan
    k, deg = e.rank, e.degree
    out = [0] * (lo - c_lo) + _run(sx, xs)
    partner = _run(sy, ys)[::-1]
    mid = hi + 1 - len(partner)  # the first cutoff counted on P
    out += [deg + k * (c + 1) + h for c, h in zip(range(mid, hi + 1), partner)]
    out += [deg + k * (c + 1) for c in range(hi + 1, c_hi + 1)]
    return out


def _counts(e: VectorBundle, c_lo: int, c_hi: int):
    """[dim S(c) for c in c_lo..c_hi]: the one routine under every h0, h1
    and profile count.

    Planned by :func:`_plan`, which refuses what is too large.  A plan of
    at most _CERTIFICATE_CELLS cells is solved (:func:`_solve`); a larger
    one is read off the splitting type d of
    :func:`splitter.grothendieck_split`, whose certificate W*T*U = D was
    proven by its product and its form checks, as
    dim S(c) = sum_j max(0, d_j + c + 1).  A split refused as too large
    falls back to the solves.
    """
    plan = _plan(e, c_lo, c_hi)
    if plan.cells <= _CERTIFICATE_CELLS:
        return _solve(plan)
    from . import splitter

    try:
        degrees = splitter.grothendieck_split(e)[0]
    except SystemTooLarge:
        return _solve(plan)
    return [sum(max(0, d + c + 1) for d in degrees) for c in range(c_lo, c_hi + 1)]


def h0_sections(e: VectorBundle):
    """Exact basis of H0(E), each as a Section.

    One tail solve on E at cutoff 0 and its column windows hi_j (see the
    module docstring), with its W_j + 1 check: the free monomials z^s e_j
    (s <= -M_j) come first, then the canonical kernel basis of the
    constrained tail.  A basis with more free monomials than
    MAX_SYSTEM_CELLS is refused before the solve: a small system can
    stand for a basis too long to list, such as the 10^20 + 1 sections of
    O(10^20) + O(-10^20).
    """
    side, _ = _sides(e)
    if max(side.his) < 0:
        return []
    plan = _tail_plan(side, 0)
    free = sum(lo for lo, _ in plan[1])
    check_size(free, f"a basis of at least {free} sections")
    _, basis, unknowns = _tail_solve(side, plan)
    vectors = [{(j, s): ONE} for j, (lo, _) in enumerate(plan[1]) for s in range(lo)]
    vectors += [{u: c for u, c in zip(unknowns, v) if c} for v in basis]
    sections = []
    for vec in vectors:
        comps = [{} for _ in range(e.rank)]
        for (j, s), c in vec.items():
            comps[j][s] = c
        sections.append(Section(tuple(LaurentPoly(c) for c in comps)))
    return sections


def h0_dim(e: VectorBundle) -> int:
    """dim H0(E), exact: one count at cutoff 0, on E or, through
    Riemann-Roch, on its Serre partner, whichever system is smaller, or
    read off the splitting type when that system is large (see
    :func:`_counts`); no solve when either window is negative."""
    return _counts(e, 0, 0)[0]


def h1_dim_oracle(e: VectorBundle) -> int:
    """dim H1(E), exact: h0(E) - chi(E) by Riemann-Roch, from the one count
    of :func:`h0_dim`.  That count runs on E or on the Serre partner
    P = z^2 * T(1/z)^T, whose h0 is h1(E) (see module docstring),
    whichever system is smaller, or is read off the splitting type when
    that system is large; no solve when either window is negative.
    """
    return _counts(e, 0, 0)[0] - euler_char(e)


def euler_char(e: VectorBundle) -> int:
    """h0 - h1 = deg E + rank E, by Riemann-Roch on P^1 (genus 0); no
    count is solved.  The tests compare the two counts, each forced onto
    its own side, against it."""
    return e.degree + e.rank


def h0_profile(e: VectorBundle, m_lo: int, m_hi: int):
    """[(m, h0(E tensor O(m)))] for m in [m_lo, m_hi]; nondecreasing in m.

    The profile determines the splitting type: h0(E(m)) counts
    sum_i max(0, d_i + m + 1) over the splitting degrees d_i.  h0(E(m)) is
    the count of sections with cutoff m, so no twisted bundle is built.
    All twists are counted by one call of :func:`_counts`: 0 below the
    band read off T, the Riemann-Roch formula above it, and inside it each
    twist on E or on the Serre partner, split at one crossover, or every
    twist read off the splitting type when those systems are large.
    SystemTooLarge is raised before the first solve when the cells sum
    over the limit, every twist charged at least one cell.
    """
    if m_lo > m_hi:
        raise RefusedArgument("empty profile range")
    check_size(m_hi - m_lo + 1, f"profile over twists {m_lo}..{m_hi}")
    return list(zip(range(m_lo, m_hi + 1), _counts(e, m_lo, m_hi)))
