"""Two-chart Cech cohomology: exact H0, H1 by Serre duality, Euler
characteristic, and twist profiles.

A global section of E is a pair of chart-holomorphic vectors agreeing on
the overlap.  In chart-0 data that is a polynomial vector f with T*f
holomorphic at infinity, i.e. with no positive exponents.  H0 is therefore
the kernel of an explicit coefficient-level linear system, assembled here
and handed to the exact kernel engine.  More generally everything below is
phrased through one primitive,

    sections_with_cutoff(E, c) = { f polynomial : T*f has exponents <= c },

which is the chart-0 model of H0(E tensor O(c)).

Assembly.  The system is block-Toeplitz: the entry multiplying f_{j,s} in
the row for exponent t of component i is the z^(t-s) coefficient of T_ij.
It is built straight from the transition's sparse terms, each term c*z^d
of T_ij landing in the rows t = s + d above the cutoff, as sparse Z[i]
rows (lmatrix.SparseSystem), each cleared by the lcm of its own
denominators; no dense grid and no zero entry is made.  The shape is known
before anything is allocated, and a system over MAX_SYSTEM_CELLS
rows x unknowns raises SystemTooLarge.

Truncation windows.  Every dimension is one primitive, _sections_dim(E, c,
W): the sections with cutoff c and components of degree <= W.  Slot s of
column j is unconstrained exactly when s <= c - M_j (M_j the top degree of
that transition column), so those slots are counted structurally and only
the tail s in [max(0, c - M_j + 1), W + 1] is solved, once.

The window is a degree bound read off T alone.  With det T = c*z^e, every
entry of T^-1 = adj(T) / (c*z^e) has exponents at most

    hi = min(sum(rowmax) - min(rowmax), sum(colmax) - min(colmax)) - e,

rowmax/colmax the top exponents of T's rows and columns, since each
cofactor takes one entry from all rows but one and all columns but one
(Kailath, Linear Systems, 1980, ch. 6).  A section with cutoff c is
f = T^-1 h with h of exponents <= c, so deg f <= c + hi, and every count
runs at the window W = c + hi; no caller chooses a window.  When c + hi < 0
the section space is 0 and nothing is solved.  Each solve still asserts
that the count would not change at W + 1 (no slot W + 1 free by structure
and no kernel vector touching one), so a wrong bound raises WindowUnstable
instead of giving a wrong count.  h0_sections reads its basis off the same
solve at cutoff 0.

Nested cutoffs.  The section spaces S(c) = sections_with_cutoff(E, c) are
nested, and a profile over c_lo..C needs several of them.  One tail solve
at the top cutoff C gives a basis of S(C); S(c) is where the coefficients
of T*f at the exponents in (c, C] vanish, so every dim S(c) follows from
the prefix ranks of one matrix G^T (basis vectors x those coefficients, in
descending exponent), read off one certified kernel (_nested_dims).  One
routine (_counts) answers every h0, h1 and profile count: it sets up each
cutoff once, sums the shapes of the separate systems, each cutoff charged
at least one cell, and raises SystemTooLarge before the first solve; it
then takes the chain when the cells it builds, bounded before any solve,
are no more than the separate solves'.  Tiny systems with a wide band of
free slots, such as a long profile of a line bundle, keep one solve per
cutoff.

H1 is an H0.  On P^1 the canonical bundle is O(-2), so h1(E) =
h0(E*(-2)) (Serre, Ann. of Math. 61, 1955), and E*(-2) has transition
S = z^2 T^-T.  A section f of E*(-2) maps to h = S*f in C[w]^k, with
f = z^-2 T^T h in C[z]^k.  Swapping the charts, g(z) = h(1/z) is a
polynomial vector with P*g = f(1/z) holomorphic at infinity, for the
Serre partner

    P(z) = z^2 * T(1/z)^T,

and every section g of P comes back from one f.  So h1(E) = h0(P): one
count at cutoff 0 on a transition read off T by negating and shifting
its exponents, with det P = c*z^(2k - e), and no inverse.  On O(d),
P = z^(d+2) is O(-d-2), and h0 = max(0, -d-1).
"""

from __future__ import annotations

from bisect import bisect_left

from .bundle import VectorBundle
from .errors import RefusedArgument, WindowUnstable
from .exact import ONE, ZERO
from .laurent import LaurentPoly, _dot, _poly, chart_contains, Chart
from .lmatrix import MAX_SYSTEM_CELLS, SparseSystem, check_size  # noqa: F401
from .lmatrix import LaurentMatrix, clear_row, kernel_basis

# Counters so test harnesses can confirm stability checks actually ran.
STABILITY_CHECKS = 0
STABILITY_FAILURES = 0


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


def _tail_ranges(e: VectorBundle, cutoff: int, top: int):
    """Ranges (lo_j, top) of the unknowns f_{j,s} that meet a row above the
    cutoff: s > cutoff - M_j, M_j the top degree of transition column j
    (finite: a valid transition has no zero column)."""
    t, k = e.transition, e.rank
    tops = [max(t[i, j].degree for i in range(k) if t[i, j]) for j in range(k)]
    return [(max(0, cutoff - m + 1), top) for m in tops]


def _system_shape(e: VectorBundle, cutoff: int, col_ranges):
    """(rows, unknowns) of the Cech system, counted without building it.

    The rows of component i are the exponents above the cutoff in the union
    of the intervals [lo_j + d, hi_j + d], one per term z^d of each T_ij,
    merged in order of their start; nothing is allocated per row.
    """
    t = e.transition
    ncols = sum(max(0, hi - lo + 1) for lo, hi in col_ranges)
    nrows = 0
    for i in range(e.rank):
        spans = sorted(
            (lo + d, hi + d)
            for j, (lo, hi) in enumerate(col_ranges)
            if lo <= hi
            for d in t[i, j].support
        )
        reach = cutoff  # exponents <= reach are counted or not above the cutoff
        for a, b in spans:
            nrows += max(0, b - max(a, reach + 1) + 1)
            reach = max(reach, b)
    return nrows, ncols


def _constraint_system(e: VectorBundle, cutoff: int, col_ranges, shape=None):
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
        shape = _system_shape(e, cutoff, col_ranges)
    nrows, ncols = shape
    check_size(nrows * ncols, f"Cech system of up to {nrows} x {ncols}")
    t = e.transition
    rows = []
    for i in range(e.rank):
        by_exp = {}
        start = 0  # the column of f_{j,s} is start + s - lo
        for j, (lo, hi) in enumerate(col_ranges):
            # Descending d puts each row's entries in increasing column order.
            for d, c in sorted(t[i, j].items(), reverse=True):
                for s in range(max(lo, cutoff + 1 - d), hi + 1):
                    by_exp.setdefault(s + d, []).append((start + s - lo, c))
            start += max(0, hi - lo + 1)
        rows += [clear_row(by_exp[x]) for x in sorted(by_exp)]
    unknowns = [
        (j, s) for j, (lo, hi) in enumerate(col_ranges) for s in range(lo, hi + 1)
    ]
    return SparseSystem(rows, ncols), unknowns


def _record_stability(ok: bool, what: str):
    global STABILITY_CHECKS, STABILITY_FAILURES
    STABILITY_CHECKS += 1
    if not ok:
        STABILITY_FAILURES += 1
        raise WindowUnstable(what)


def _tail_plan(e: VectorBundle, cutoff: int, window: int):
    """(window, ranges, shape) of the one tail solve at this cutoff and
    window (>= 0): the set-up :func:`_counts` bounds before its first solve
    and hands on to the solves, so no cutoff is set up twice."""
    ranges = tuple(_tail_ranges(e, cutoff, window + 1))
    return window, ranges, _system_shape(e, cutoff, ranges)


def _tail_solve(e: VectorBundle, cutoff: int, plan):
    """(free slot count, kernel basis, unknowns) of the one tail solve for
    the (window, ranges, shape) of :func:`_tail_plan`.  The free slots are
    s <= cutoff - M_j; the solve is stable when no slot window+1 is free or
    touched by a kernel vector, and raises WindowUnstable otherwise."""
    window, ranges, shape = plan
    system, unknowns = _constraint_system(e, cutoff, ranges, shape)
    basis = kernel_basis(system)
    top = [idx for idx, (_, s) in enumerate(unknowns) if s == window + 1]
    stable = all(lo <= hi for lo, hi in ranges)
    stable = stable and not any(v[idx] for v in basis for idx in top)
    _record_stability(stable, f"count changed between window {window} and {window + 1}")
    return sum(lo for lo, _ in ranges), basis, unknowns


def _sections_dim(e: VectorBundle, cutoff: int, plan) -> int:
    """dim { f : deg f_j <= window, T*f has exponents <= cutoff }, exactly,
    from the one tail solve of :func:`_tail_solve`."""
    free, basis, _ = _tail_solve(e, cutoff, plan)
    return free + len(basis)


def _band(e: VectorBundle, c_lo: int, plan):
    """Per column j, the bounds (a, b) of the slots a <= s < b that are free
    at the plan's cutoff but not at c_lo (s > c_lo - M_j): the structural
    monomials z^s e_j whose T*f reaches an exponent above c_lo.  Bounds,
    not ranges: a band can be longer than ``len`` of a range takes."""
    window, ranges, _ = plan
    lows = _tail_ranges(e, c_lo, window)
    return [(lo_c, lo) for (lo, _), (lo_c, _) in zip(ranges, lows)]


def _chain_cells(e: VectorBundle, c_lo: int, top: int, plan) -> int:
    """An upper bound on the cells :func:`_nested_dims` builds, known before
    any solve: the top system, and G^T of at most one row per band monomial
    (:func:`_band`) plus one per top unknown, by k*(top - c_lo) columns."""
    rows, cols = plan[2]
    band = sum(max(0, b - a) for a, b in _band(e, c_lo, plan))
    return max(1, rows * cols) + (band + cols) * e.rank * (top - c_lo)


def _nested_dims(e: VectorBundle, c_lo: int, top: int, plan):
    """[dim S(c) for c in c_lo..top], S(c) = {f : T*f has exponents <= c},
    from one tail solve at the top cutoff (plan its :func:`_tail_plan`)
    and one certified rank computation.

    For c <= top, S(c) is the subspace of S(top) on which the coefficients
    of T*f at exponents t in (c, top] vanish; the top's window bounds every
    S(c), as the windows of :func:`_counts` do not fall as c grows.  G^T
    has one row per basis vector of S(top) whose T*f reaches that band
    (the free slots s <= c_lo - M_j never do), one column per (component
    i, exponent t), in descending t.
    Each canonical kernel vector of G^T has 1 at its free column and 0
    after it, so its last nonzero entry marks a column that depends
    exactly (the kernel is verified) on earlier ones: the prefix rank is
    at most the pivots in the prefix.  A mod-p rank never
    exceeds the true rank, so it is also at least that.  Hence dim S(c) =
    dim S(top) - (k*(top - c) - free columns among the first k*(top - c)).
    The top solve's window+1 check covers every lower cutoff: a section of
    one that touched that slot would lie in S(top).  The caller bounds the
    cells built through :func:`_chain_cells`.
    """
    free, basis, unknowns = _tail_solve(e, top, plan)
    t, k = e.transition, e.rank
    band = enumerate(_band(e, c_lo, plan))
    vectors = [{(j, s): ONE} for j, (a, b) in band for s in range(a, b)]
    vectors += [{u: c for u, c in zip(unknowns, v) if c} for v in basis]
    rows = []
    for vec in vectors:
        acc = {}
        for (j, s), c in vec.items():
            for i in range(k):
                for d, a in t[i, j].items():
                    if c_lo < s + d <= top:
                        col = (top - s - d) * k + i
                        acc[col] = acc.get(col, ZERO) + a * c
        if row := [(col, x) for col, x in sorted(acc.items()) if x]:
            rows.append(clear_row(row))
    g_t = SparseSystem(rows, k * (top - c_lo))
    dependent = sorted(max(i for i, x in enumerate(v) if x) for v in kernel_basis(g_t))
    dim = free + len(basis)
    return [
        dim - k * (top - c) + bisect_left(dependent, k * (top - c))
        for c in range(c_lo, top + 1)
    ]


def _inverse_top(e: VectorBundle) -> int:
    """hi, an upper bound on every exponent of every entry of T^-1, read
    off the exponents of T alone.

    (T^-1)_ij = C_ji / (c*z^e) for det T = c*z^e, C_ji the (j, i)
    cofactor: a (k-1)-minor, one entry from each row but one and from each
    column but one.  Each of its terms has top exponent at most the sum of
    the row maxima less the dropped row's, so at most
    sum(rowmax) - min(rowmax), and by columns at most sum(colmax) -
    min(colmax); hence hi = min of the two, minus e (Kailath, Linear
    Systems, 1980, ch. 6).
    """
    rows = e.transition.entries
    tops = [
        [max(p.degree for p in line if p) for line in lines]
        for lines in (rows, zip(*rows))
    ]
    return min(sum(x) - min(x) for x in tops) - e.det_unit[1]


def _counts(e: VectorBundle, c_lo: int, c_hi: int):
    """[dim S(c) for c in c_lo..c_hi], S(c) = {f : T*f has exponents <= c}:
    the one routine under every h0, h1 and profile count.

    A section with cutoff c is f = T^-1 h with h of exponents <= c, so
    deg f <= c + hi, hi the top exponent of T^-1 (:func:`_inverse_top`),
    and each cutoff is counted at the window c + hi.  The cutoffs below
    -hi have no section and no system, and are answered at once.  Every
    other cutoff is set up once (:func:`_tail_plan`), and the cells of all
    of them, each cutoff charged at least one, are checked against
    MAX_SYSTEM_CELLS before the first solve.  One chain
    (:func:`_nested_dims`) answers them when, by :func:`_chain_cells`, it
    builds no more cells than the separate solves and fits the limit;
    otherwise each cutoff is solved on its own.  The caller keeps the
    number of cutoffs within the limit.

    No top slot c + hi + 1 is free by structure: the diagonal entry of
    T^-1 * T = I at column j needs a pair of exponents a <= hi and
    b <= M_j with a + b = 0, so M_j >= -hi and c - M_j <= c + hi.
    """
    hi = _inverse_top(e)
    skip = min(c_hi - c_lo + 1, max(0, -hi - c_lo))
    cells = skip
    live = range(c_lo + skip, c_hi + 1)
    plans = []
    for c in live:
        plan = _tail_plan(e, c, c + hi)
        rows, cols = plan[2]
        cells += max(1, rows * cols)
        check_size(cells, f"Cech systems at cutoffs {c_lo}..{c}")
        plans.append(plan)
    if len(plans) > 1:
        bottom, top = live[0], live[-1]
        if _chain_cells(e, bottom, top, plans[-1]) <= min(cells - skip, MAX_SYSTEM_CELLS):
            return [0] * skip + _nested_dims(e, bottom, top, plans[-1])
    return [0] * skip + [_sections_dim(e, c, plan) for c, plan in zip(live, plans)]


def h0_sections(e: VectorBundle):
    """Exact basis of H0(E), each as a Section.

    One tail solve at cutoff 0 and its window hi (see :func:`_counts`),
    with its window + 1 check: the free monomials z^s e_j (s <= -M_j) come
    first, then the canonical kernel basis of the constrained tail.
    """
    hi = _inverse_top(e)
    if hi < 0:
        return []
    plan = _tail_plan(e, 0, hi)
    _, basis, unknowns = _tail_solve(e, 0, plan)
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
    """dim H0(E), exact.

    The tail elimination runs at the cofactor degree bound hi on the
    sections (see :func:`_counts`), and not at all when that is negative;
    the solve is asserted stable against hi + 1.
    """
    return _counts(e, 0, 0)[0]


def _serre_partner(e: VectorBundle) -> VectorBundle:
    """P = z^2 * T(1/z)^T, whose sections count H1(E) (module docstring):
    each term c*z^d of T_ji becomes c*z^(2 - d) of P_ij, with no
    arithmetic, and det P = c*z^(2k - e) for det T = c*z^e."""
    t, k = e.transition, e.rank
    c, x = e.det_unit
    grid = [
        [_poly({2 - d: a for d, a in t[j, i].items()}) for j in range(k)]
        for i in range(k)
    ]
    return VectorBundle._with_det(LaurentMatrix(grid), (c, 2 * k - x))


def h1_dim_oracle(e: VectorBundle) -> int:
    """dim H1(E) by Serre duality, exact: h0 of the Serre partner
    P = z^2 * T(1/z)^T (see module docstring), one count at P's own
    window, and no solve when that window is negative.
    """
    return h0_dim(_serre_partner(e))


def euler_char(e: VectorBundle) -> int:
    """h0 - h1; equals deg E + rank E on every bundle (genus-0 index count)."""
    return h0_dim(e) - h1_dim_oracle(e)


def h0_profile(e: VectorBundle, m_lo: int, m_hi: int):
    """[(m, h0(E tensor O(m)))] for m in [m_lo, m_hi]; nondecreasing in m.

    The profile determines the splitting type: h0(E(m)) counts
    sum_i max(0, d_i + m + 1) over the splitting degrees d_i.  h0(E(m)) is
    the count of sections with cutoff m, so no twisted bundle is built.
    All twists are counted by one call of :func:`_counts`: SystemTooLarge
    is raised before the first solve when their cells sum over the limit,
    every twist charged at least one cell, its entry in the answer, and
    the twists are answered by one nested-cutoff chain topped at m_hi when
    it builds no more cells than one solve per twist.
    """
    if m_lo > m_hi:
        raise RefusedArgument("empty profile range")
    check_size(m_hi - m_lo + 1, f"profile over twists {m_lo}..{m_hi}")
    return list(zip(range(m_lo, m_hi + 1), _counts(e, m_lo, m_hi)))
