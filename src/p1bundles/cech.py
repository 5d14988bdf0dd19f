"""Two-chart Cech cohomology: exact H0, an H1 cokernel oracle, Euler
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

Truncation windows.  The section space is recovered from polynomials of
degree at most D* = k*(N+1), where N is the largest |exponent| in T; a
column of degree s is unconstrained precisely when s <= c - (top degree of
that transition column), so low-degree unknowns are counted structurally
and only the constrained tail enters the elimination.  Every dimension is
computed at D* and D*+1 and the two must agree, otherwise WindowUnstable
is raised: an undersized window is always a loud error, never a wrong
answer.

H1 is a truncated cokernel on the overlap: Laurent tails with exponents in
[-D, D] modulo coboundaries of chart cochains, with the chart-0 cochain
window matched to the target so every image lies inside it.  Chart-1
cochains span all nonpositive exponents of the window, so the quotient
reduces to (k*D positive-exponent slots) modulo the positive parts of
T*f over the matched chart-0 cochains f; counting by rank-nullity of that
image map gives

    h1 at window D  =  k*D - dim sections_with_cutoff(E, D) + h0(E),

each term exact and window-stability-asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bundle import VectorBundle
from .errors import SystemTooLarge, WindowUnstable
from .exact import ZERO
from .laurent import LaurentPoly, chart_contains, Chart
from .lmatrix import SparseSystem, clear_row, fraction_parts, kernel_basis

# The largest constraint system (rows x unknowns) assembled; a larger one
# raises SystemTooLarge before anything is allocated.  The benchmark ladder
# peaks at 31,320 cells and the test suite at 24,178, so this leaves 9x.
MAX_SYSTEM_CELLS = 300_000

# Counters so test harnesses can confirm stability checks actually ran.
STABILITY_CHECKS = 0
STABILITY_FAILURES = 0


@dataclass(frozen=True)
class Section:
    """Chart-0 data of a global section: one polynomial per component."""

    components: tuple

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
        acc = LaurentPoly()
        for j in range(e.rank):
            acc = acc + t[i, j] * s.components[j]
        if not chart_contains(acc, Chart.W):
            return False
    return True


# ---------------------------------------------------------------------------
# Constraint assembly
# ---------------------------------------------------------------------------


def _column_top_degrees(e: VectorBundle):
    """M_j = top z-degree of transition column j (finite: columns nonzero)."""
    t = e.transition
    tops = []
    for j in range(e.rank):
        top = None
        for i in range(e.rank):
            p = t[i, j]
            if not p.is_zero():
                top = p.degree if top is None else max(top, p.degree)
        if top is None:
            raise AssertionError("valid bundle cannot have a zero transition column")
        tops.append(top)
    return tops


def _constraint_system(e: VectorBundle, cutoff: int, col_ranges):
    """Rows: coefficients of (T*f)_i at exponents above the cutoff, over Z[i].

    Unknowns are the coefficients f_{j,s} for s in col_ranges[j], numbered
    column by column; the entry multiplying f_{j,s} in the row for exponent
    t of component i is the z^(t-s) coefficient of T_ij.  Each term c*z^d
    of T_ij is placed straight into the rows t = s + d > cutoff it reaches,
    so no zero entry is ever made, and each row is cleared to Gaussian
    integers by the lcm of its own denominators.  Returns the system and
    the unknowns (j, s) in column order.

    The shape is bounded before anything is allocated: more than
    MAX_SYSTEM_CELLS rows x unknowns raises SystemTooLarge.
    """
    t = e.transition
    k = e.rank
    starts = []  # the column of f_{j,s} is starts[j] + s
    ncols = 0
    for lo, hi in col_ranges:
        starts.append(ncols - lo)
        ncols += max(0, hi - lo + 1)
    nrows = 0
    for i in range(k):
        reach = [
            (lo + t[i, j].order, hi + t[i, j].degree)
            for j, (lo, hi) in enumerate(col_ranges)
            if t[i, j] and lo <= hi
        ]
        if reach:
            first = max(cutoff + 1, min(a for a, _ in reach))
            nrows += max(0, max(b for _, b in reach) - first + 1)
    if nrows * ncols > MAX_SYSTEM_CELLS:
        raise SystemTooLarge(
            f"Cech system of up to {nrows} x {ncols} exceeds the limit of "
            f"{MAX_SYSTEM_CELLS} cells"
        )
    rows = []
    for i in range(k):
        by_exp = {}
        for j, (lo, hi) in enumerate(col_ranges):
            start = starts[j]
            # Descending d puts each row's entries in increasing column order.
            for d, c in sorted(t[i, j].items(), reverse=True):
                parts = fraction_parts(c)
                for s in range(max(lo, cutoff + 1 - d), hi + 1):
                    by_exp.setdefault(s + d, []).append((start + s, parts))
        rows += [clear_row(by_exp[x]) for x in sorted(by_exp)]
    unknowns = [
        (j, s) for j, (lo, hi) in enumerate(col_ranges) for s in range(lo, hi + 1)
    ]
    return SparseSystem(rows, ncols), unknowns


def h0_sections(e: VectorBundle, window: int):
    """Exact basis of the sections with components of degree <= window.

    The constraint system is assembled coefficientwise and solved by the
    exact kernel engine; each basis vector is returned as a Section.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    k = e.rank
    ranges = [(0, window)] * k
    system, unknowns = _constraint_system(e, 0, ranges)
    basis = kernel_basis(system)
    sections = []
    for v in basis:
        comps = [dict() for _ in range(k)]
        for coeff, (j, s) in zip(v, unknowns):
            if coeff:
                comps[j][s] = coeff
        sections.append(Section(tuple(LaurentPoly(c) for c in comps)))
    return sections


def _record_stability(ok: bool, what: str):
    global STABILITY_CHECKS, STABILITY_FAILURES
    STABILITY_CHECKS += 1
    if not ok:
        STABILITY_FAILURES += 1
        raise WindowUnstable(what)


@lru_cache(maxsize=512)
def _sections_dim_at_cutoff(e: VectorBundle, cutoff: int) -> int:
    """dim { f polynomial : T*f has exponents <= cutoff }, exactly.

    Columns of degree s <= cutoff - M_j contribute no constraints and are
    counted structurally; the rest are solved at tail window
    D* = max(0, cutoff) + k*(N+1), with the D*+1 computation required to
    agree (top-degree coefficients of every kernel vector must vanish).
    """
    k = e.rank
    n = e.max_exponent
    tops = _column_top_degrees(e)
    free = sum(max(0, cutoff - m + 1) for m in tops)
    dstar = max(0, cutoff) + k * (n + 1)
    dw = dstar + 1
    ranges = [(max(0, cutoff - tops[j] + 1), dw) for j in range(k)]
    system, unknowns = _constraint_system(e, cutoff, ranges)
    basis = kernel_basis(system)
    # Stability: a kernel vector supported on the extra degree-dw slot would
    # mean the window at dstar undercounted.
    top_idx = [idx for idx, (j, s) in enumerate(unknowns) if s == dw]
    stable = all(all(v[idx] == ZERO for idx in top_idx) for v in basis)
    _record_stability(
        stable, f"section space still growing at tail window {dstar}+1"
    )
    return free + len(basis)


def h0_dim(e: VectorBundle, window: int | None = None) -> int:
    """dim H0(E), exact.

    With the default window the tail elimination runs at D* = k*(N+1) and
    the result is stability-asserted against D*+1.  An explicit window
    computes the section count among degree-<=window polynomials, again
    asserted stable against window+1.
    """
    if window is None:
        return _sections_dim_at_cutoff(e, 0)
    a = len(h0_sections(e, window))
    b = len(h0_sections(e, window + 1))
    _record_stability(
        a == b, f"h0 changed between window {window} and {window + 1}"
    )
    return a


def h1_dim_oracle(e: VectorBundle, window: int | None = None) -> int:
    """dim H1(E) via the truncated-cokernel oracle, exact.

    Computed independently of any splitting: overlap tails with exponents
    in [-D, D] are quotiented by the coboundary images of matched chart
    cochains, counted through rank-nullity of the image map (see module
    docstring).  Stability-asserted between D and D+1.
    """
    k = e.rank
    d = window if window is not None else k * (e.max_exponent + 1)
    if d < 0:
        raise ValueError("window must be >= 0")
    h0 = _sections_dim_at_cutoff(e, 0)
    vals = []
    for w in (d, d + 1):
        vals.append(k * w - _sections_dim_at_cutoff(e, w) + h0)
    _record_stability(
        vals[0] == vals[1], f"h1 changed between window {d} and {d + 1}"
    )
    return vals[0]


def euler_char(e: VectorBundle, window: int | None = None) -> int:
    """h0 - h1; equals deg E + rank E on every bundle (genus-0 index count)."""
    return h0_dim(e, window=window) - h1_dim_oracle(e, window=window)


def h0_profile(e: VectorBundle, m_lo: int, m_hi: int, window: int | None = None):
    """[(m, h0(E tensor O(m)))] for m in [m_lo, m_hi]; nondecreasing in m.

    The profile determines the splitting type: h0(E(m)) counts
    sum_i max(0, d_i + m + 1) over the splitting degrees d_i.
    """
    if m_lo > m_hi:
        raise ValueError("empty profile range")
    if window is None:
        return [(m, _sections_dim_at_cutoff(e, m)) for m in range(m_lo, m_hi + 1)]
    return [(m, h0_dim(e.twist(m), window=window)) for m in range(m_lo, m_hi + 1)]
