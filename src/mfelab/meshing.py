"""Graded one-dimensional meshes with finite-difference and quadrature rules.

All radial operators in this package are assembled in the compressed
variable t = r**beta.  Profiles of interest are even in t, so derivative
stencils near the origin see the even extension through t = 0 and the
resulting matrices are valid only when applied to even profiles.

Derivative operators are handed out as row bands: row i of an
(n, 2*bw + 1) band holds the entries of columns i - bw .. i + bw, where bw
is the mesh bandwidth.  A mesh keeps only each row's 2*HALFWIDTH + 1
stencil slots of those bands and expands them on demand, with the same
bits.  ``band_matvec`` multiplies a row band into a vector in
O(n * (2*bw + 1)), and ``RadialMesh.diagonal_ordered`` packs one into LAPACK
``gbtrf`` storage.  ``RadialMesh.band_solver`` owns the band LU and the
Sherman-Morrison step for a band plus a rank-one term, the form of both
Newton's Jacobian and the linearized mode operators, so this is the only
module that calls LAPACK.  ``RadialMesh.slab_matvec`` multiplies a band
into a vector with the bits of the dense BLAS product, by one matvec per
block of rows; Newton's residual needs those bits.  ``RadialMesh.dense``
builds the dense matrix of a band, with the same entries; it serves only
``RadialMesh.lap_rows`` and the tests, which compare against it.  The
stencil weights of all rows come from one pass of Fornberg's recursion
whose scalar operations run elementwise over the rows, so every row is
bit-for-bit the one-row result.  The recursion is
vectorised rather than replaced: a batched Vandermonde solve lands a few
ulps off it, and Newton, the fold-pair root finding and the shift-invert
spectra amplify that well past their reference tolerances.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import MfelabError


def scipy_extension(name: str):
    """scipy's compiled module ``name``, loaded without its packages.

    ``import scipy.linalg`` runs the package initialisers of scipy, which
    pull in ``scipy._lib.array_api_compat``, ``numpy.testing`` and
    ``numpy.f2py``: about 0.3 s in every process, for the few compiled
    routines this package calls.  So the extension file is located under
    scipy's directory (``find_spec`` of a top-level package imports
    nothing), loaded with ``ExtensionFileLoader`` and registered in
    ``sys.modules`` under its own name.  A later ``import scipy.linalg``
    then finds that module, and its functions are the very objects scipy
    re-exports.  That import does not bind the module as an attribute of
    its parent package, so ``hasattr(scipy.linalg, "_flapack")`` reads
    False; ``from scipy.linalg import _flapack`` and ``import_module``
    still return it, since both fall back to ``sys.modules``.  Without
    the file, or when loading it raises ImportError, the module is
    imported the usual way; a failed load leaves nothing in
    ``sys.modules``.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec("scipy")
    roots = spec.submodule_search_locations if spec is not None else None
    for root in roots or ():
        stem = os.path.join(root, *name.split(".")[1:])
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            if os.path.isfile(stem + suffix):
                loader = importlib.machinery.ExtensionFileLoader(name, stem + suffix)
                try:
                    module = importlib.util.module_from_spec(
                        importlib.util.spec_from_loader(name, loader, origin=stem + suffix)
                    )
                    sys.modules[name] = module
                    loader.exec_module(module)
                except ImportError:
                    sys.modules.pop(name, None)
                    return importlib.import_module(name)
                return module
    return importlib.import_module(name)


# loaded inside the one-thread OpenBLAS scope of the package ``__init__``
_flapack = scipy_extension("scipy.linalg._flapack")
dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs

#: nodes per quadrature cell stencil (design order 6)
QUAD_POINTS = 6

#: derivative stencils span 2 * HALFWIDTH + 1 nodes (design order 6), so
#: the derivative bands have bandwidth 2 * HALFWIDTH
HALFWIDTH = 3

#: rows per slab of ``RadialMesh.slab_matvec``, and the column multiple on
#: which each slab's window starts and ends
SLAB_ROWS = 64
SLAB_ALIGN = 16


def _fornberg(z: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """Fornberg's recursion for many stencils at once.

    ``z`` has shape (rows,) and ``x`` shape (rows, p); returns weights of
    shape (m + 1, p, rows).  Each operation is the scalar recursion's,
    applied elementwise over the rows.
    """
    x = x.T
    p = x.shape[0]
    c = np.zeros((m + 1, p, z.size))
    c1 = 1.0
    c4 = x[0] - z
    c[0, 0] = 1.0
    for i in range(1, p):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - z
        for j in range(i):
            c3 = x[i] - x[j]
            c2 = c2 * c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[k, i] = c1 * (k * c[k - 1, i - 1] - c5 * c[k, i - 1]) / c2
                c[0, i] = -c1 * c5 * c[0, i - 1] / c2
            for k in range(mn, 0, -1):
                c[k, j] = (c4 * c[k, j] - k * c[k - 1, j]) / c3
            c[0, j] = c4 * c[0, j] / c3
        c1 = c2
    return c


def fd_weights(z: float, x: np.ndarray, m: int) -> np.ndarray:
    """Finite-difference weights at point ``z`` for derivatives 0..m.

    Fornberg's recursion on arbitrary distinct nodes ``x``.  Returns an
    array of shape ``(m + 1, len(x))``; row ``d`` holds the weights of the
    d-th derivative, exact on polynomials of degree ``len(x) - 1``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        raise MfelabError("fd_weights needs at least one node")
    if m < 0 or m >= n:
        raise MfelabError(f"cannot form derivative {m} from {n} nodes")
    return _fornberg(np.array([z], dtype=float), x[None, :], m)[:, :, 0]


def band_matvec(band: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Product of an (n, 2*bw + 1) row band with a vector of length n.

    Row i meets x[i - bw .. i + bw] as one window of x zero-padded by bw on
    both sides, so the slots of the first and last rows that fall outside
    the matrix multiply zeros.  The sums run in another order than a dense
    BLAS matvec, so results agree with ``dense(band) @ x`` to round-off.
    """
    bw = band.shape[1] // 2
    padded = np.concatenate([np.zeros(bw), x, np.zeros(bw)])
    windows = np.lib.stride_tricks.sliding_window_view(padded, band.shape[1])
    return np.einsum("ij,ij->i", band, windows)


def _powers(y: np.ndarray, p: int) -> np.ndarray:
    """y**0, ..., y**(p - 1) along a new last axis.

    pow(y, 0) and pow(y, 1) are exact, so those two are set directly and
    only the higher exponents go through ``**``: the same bits in less time.
    """
    out = np.empty(y.shape + (p,))
    out[..., 0] = 1.0
    out[..., 1] = y
    out[..., 2:] = y[..., None] ** np.arange(2, p)
    return out


def _interval_weights(nodes: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Weights integrating the interpolating polynomial over [a, b].

    One interval per row: ``nodes`` has shape (intervals, p), ``a`` and
    ``b`` shape (intervals,).  Monomial moments about each interval
    midpoint keep the small Vandermonde solves well conditioned on graded
    meshes; all of them go to LAPACK in one batched call.
    """
    p = nodes.shape[1]
    c = 0.5 * (a + b)
    V = _powers(nodes - c[:, None], p).swapaxes(1, 2)
    mom = (_powers(b - c, p + 1)[:, 1:] - _powers(a - c, p + 1)[:, 1:]) / np.arange(1, p + 1)
    return np.linalg.solve(V, mom[:, :, None])[:, :, 0]


def _interval_starts(n: int, points: int) -> np.ndarray:
    """First stencil node of each interval: the lead cell [0, t[0]], then
    the cells [t[j], t[j+1]]."""
    back = (points - 2) // 2
    return np.clip(np.arange(n) - 1 - back, 0, n - points)


def _interval_table(t: np.ndarray, points: int) -> np.ndarray:
    """Weights of every interval of the full rule over [0, t[-1]], shape (n, points)."""
    stencils = t[_interval_starts(t.size, points)[:, None] + np.arange(points)]
    return _interval_weights(stencils, np.concatenate([[0.0], t[:-1]]), t)


def _check_end(t: np.ndarray, t_end: float) -> float:
    if not 0.0 < t_end <= t[-1] * (1.0 + 1e-12):
        raise MfelabError(f"t_end={t_end!r} outside (0, {t[-1]!r}]")
    return min(t_end, float(t[-1]))


def _sum_intervals(t: np.ndarray, t_end: float, table: np.ndarray) -> np.ndarray:
    """Composite weights over [0, t_end]: the full intervals of ``table``
    below t_end plus the one that t_end cuts, summed in interval order."""
    n, points = table.shape
    last = int(np.searchsorted(t, t_end))
    starts = _interval_starts(n, points)[: last + 1]
    weights = table[: last + 1]
    if t_end < t[last]:
        lo = np.array([t[last - 1] if last else 0.0])
        cut = _interval_weights(t[None, starts[-1] : starts[-1] + points], lo, np.array([t_end]))
        weights = np.concatenate([weights[:-1], cut])
    q = np.zeros(n)
    np.add.at(q, (starts[:, None] + np.arange(points)).ravel(), weights.ravel())
    return q


def _windows(t: np.ndarray, rows: np.ndarray):
    """Stencil columns and (possibly reflected) node abscissae, one row each.

    A window that would start left of the first node reaches into t < 0;
    its virtual column -k - 1 stands for node k reflected to -t[k].
    """
    w = HALFWIDTH
    start = np.minimum(rows - w, t.size - 2 * w - 1)
    virtual = start[:, None] + np.arange(2 * w + 1)
    cols = np.where(virtual < 0, -virtual - 1, virtual)
    nodes = np.where(virtual < 0, -t[cols], t[cols])
    return cols, nodes


def derivative_bands(t: np.ndarray):
    """The d/dt and d^2/dt^2 row bands of ``RadialMesh`` on the nodes ``t``.

    The mesh builds its stencils here.  A caller that needs the derivative
    operators alone, such as the tests' entire-plane operator, gets them
    without the mesh's quadrature, on nodes checked as the mesh checks
    them.  Both bands come from one vectorised Fornberg pass; reflected
    rows hit some columns twice, and ``np.add.at`` sums those duplicates
    in stencil order, row by row.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < 2 * HALFWIDTH + 2:
        raise MfelabError(f"mesh needs at least {2 * HALFWIDTH + 2} nodes")
    if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
        raise MfelabError("nodes must be strictly increasing and positive")
    n, bw = t.size, 2 * HALFWIDTH
    rows = np.arange(n)
    cols, nodes = _windows(t, rows)
    c = _fornberg(t, nodes, 2)
    where = (np.repeat(rows, cols.shape[1]), (cols - rows[:, None] + bw).ravel())
    bands = []
    for d in (1, 2):
        band = np.zeros((n, 2 * bw + 1))
        np.add.at(band, where, c[d].T.ravel())
        bands.append(band)
    return bands


class RadialMesh:
    """Nodes, banded derivative operators and quadrature on (0, t[-1]].

    The origin is not a node.  Stencils whose window would cross t = 0 are
    folded back onto the positive axis (even extension), and the last rows
    use left-shifted windows, so both derivative operators have bandwidth
    at most ``2 * HALFWIDTH``.  A row's stencil spans only 2 * HALFWIDTH + 1
    of the 2 * bandwidth + 1 slots of its band row: slots HALFWIDTH ..
    3 * HALFWIDTH, and for the last HALFWIDTH rows slots HALFWIDTH - 1, ...,
    0 onward.  The mesh keeps those stencil rows of d/dt and d^2/dt^2 as one
    write-locked (2, n, 2 * HALFWIDTH + 1) array, 112 bytes a node where two
    bands took 208; with its nodes, radii and quadrature a mesh holds 184
    bytes a node.  ``d1_band`` and ``d2_band`` expand them into read-only
    row bands of shape (n, 2 * bandwidth + 1), and ``lap_band`` combines
    the stencil rows before it expands; every slot off the stencil is +0.0,
    so each band has the bits of ``derivative_bands``.  ``band_solver``
    factors a band (plus a rank-one term) with LAPACK's band LU,
    ``slab_matvec`` multiplies one into a vector, and ``dense`` builds the
    dense matrix of a band on demand.  The stencils come from Fornberg's
    recursion run over all rows at once, which keeps every entry
    bit-identical to the scalar recursion (a Vandermonde solve would not;
    see the module docstring).

    ``quad`` holds composite interpolatory weights over [0, t[-1]]: each
    cell between consecutive nodes integrates the degree-5 interpolant
    through the ``QUAD_POINTS`` = 6 nearest nodes, and the leading cell
    [0, t[0]] uses one-sided extrapolation, so no parity of the integrand
    is assumed.  The per-cell weights are kept too, so ``quad_to`` only
    solves for the one cell that t_end cuts.  The final
    node carries a stencil row like any other; boundary conditions are
    imposed by whoever assembles the system.
    """

    def __init__(self, t: np.ndarray, beta: float):
        t = np.array(t, dtype=float)
        bands = derivative_bands(t)
        if not beta > 0.0:
            raise MfelabError("beta must be positive")
        self.t = t
        self.beta = float(beta)
        self.r = t ** (1.0 / beta)
        self.n = t.size
        self.bandwidth = 2 * HALFWIDTH
        rows = np.arange(self.n)[:, None]
        slots = np.minimum(HALFWIDTH, self.n - 1 - rows) + np.arange(2 * HALFWIDTH + 1)
        self._stencils = np.stack([band[rows, slots] for band in bands])
        self._intervals = _interval_table(t, QUAD_POINTS)
        self.quad = _sum_intervals(t, float(t[-1]), self._intervals)
        for arr in (self.t, self.r, self._stencils, self._intervals, self.quad):
            arr.setflags(write=False)

    @classmethod
    def graded(cls, n: int, beta: float, strength: float) -> "RadialMesh":
        """Sinh-graded mesh with ``n`` nodes on (0, 1], clustered toward
        the origin.

        ``strength`` must be positive; larger values push nodes toward
        t = 0 roughly like exp(-strength) for the first node.
        """
        if not strength > 0.0:
            raise MfelabError("grading strength must be positive")
        i = np.arange(1, n + 1, dtype=float)
        return cls(np.sinh(strength * i / n) / np.sinh(strength), beta)

    def _expand(self, stencils: np.ndarray, write: bool = True) -> np.ndarray:
        """The (n, 2 * bandwidth + 1) row band of (n, 2 * HALFWIDTH + 1)
        stencil rows, +0.0 off the stencils."""
        n, width = stencils.shape
        w = width // 2
        band = np.zeros((n, 2 * self.bandwidth + 1))
        band[: n - w, w : w + width] = stencils[: n - w]
        for i in range(n - w, n):
            band[i, n - 1 - i : n - 1 - i + width] = stencils[i]
        band.setflags(write=write)
        return band

    @property
    def d1_band(self) -> np.ndarray:
        """The read-only row band of d/dt, expanded from the stencil rows."""
        return self._expand(self._stencils[0], write=False)

    @property
    def d2_band(self) -> np.ndarray:
        """The read-only row band of d^2/dt^2, expanded from the stencil rows."""
        return self._expand(self._stencils[1], write=False)

    def band_triplets(self, band: np.ndarray):
        """(rows, cols, values) of the in-range entries of a row band, row by row.

        An m-row band stands for an m x m matrix, so the first m rows of a
        mesh band give the leading m x m block; slots outside it are dropped.
        """
        bw = self.bandwidth
        m = band.shape[0]
        rows = np.repeat(np.arange(m), 2 * bw + 1)
        cols = rows + np.tile(np.arange(-bw, bw + 1), m)
        inside = (cols >= 0) & (cols < m)
        return rows[inside], cols[inside], band.ravel()[inside]

    def dense(self, band: np.ndarray) -> np.ndarray:
        """Dense m x m matrix of an (m, 2 * bandwidth + 1) row band.

        Above 2048 columns the bits of its BLAS product ``dense(band) @ x``
        depend on OpenBLAS's thread count (seen between 1 and 2 threads with
        numpy's OpenBLAS 0.3.31); ``slab_matvec`` gives the one-thread bits
        at any count.
        """
        rows, cols, vals = self.band_triplets(band)
        m = band.shape[0]
        out = np.zeros((m, m))
        out[rows, cols] = vals
        return out

    def slab_matvec(self, band: np.ndarray):
        """The map x -> dense(band) @ x, with the same bits, for finite x.

        The rows go in slabs of SLAB_ROWS, and each slab is one BLAS matvec
        on the window of columns its entries reach, widened to start and end
        on multiples of SLAB_ALIGN (the last window ends at n).  OpenBLAS's
        dgemv sums each row in lanes by column index, and the zero columns
        a window drops add exact zeros to their lanes, so an aligned window
        sums every row as the dense product does; unaligned windows did not
        (measured with numpy's OpenBLAS 0.3.31).  That holds up to 2048
        columns.  On wider rows the dense dgemv sums in blocks, and at 2049
        its bits depend on its thread count; the slabs gave its one-thread
        bits there.  A slab is too small for BLAS to thread, so the map's
        bits never depend on the thread count.  The slabs live in one
        (n, width) array, width at most SLAB_ROWS + 2 * (bandwidth +
        SLAB_ALIGN), in place of the n x n matrix.
        """
        n, bw = band.shape[0], self.bandwidth
        lo = np.arange(0, n, SLAB_ROWS)
        hi = np.minimum(lo + SLAB_ROWS, n)
        first = np.maximum(lo - bw, 0) // SLAB_ALIGN * SLAB_ALIGN
        end = np.minimum(-(-(hi + bw) // SLAB_ALIGN) * SLAB_ALIGN, n)
        rows, cols, vals = self.band_triplets(band)
        slabs = np.zeros((n, int(np.max(end - first))))
        slabs[rows, cols - np.repeat(first, hi - lo)[rows]] = vals
        blocks = [(a, b, slabs[a:b, : d - c], c, d)
                  for a, b, c, d in zip(lo.tolist(), hi.tolist(), first.tolist(), end.tolist())]

        def matvec(x):
            out = np.empty(n)
            for a, b, slab, c, d in blocks:
                out[a:b] = slab @ x[c:d]
            return out

        return matvec

    def diagonal_ordered(self, band: np.ndarray) -> np.ndarray:
        """A row band in LAPACK ``gbtrf`` storage, kl = ku = bandwidth.

        Shape (3 * bandwidth + 1, m) for an m-row band, which stands for
        the m x m matrix as in ``dense``: matrix entry (i, j) sits at
        [2 * bandwidth + i - j, j], and the top ``bandwidth`` rows are zero
        room for the fill-in of the LU factors (LAPACK Users' Guide,
        3rd ed., sec. 5.3.3).  Each diagonal is one slice copy of a band
        column.
        """
        n, bw = band.shape[0], self.bandwidth
        ab = np.zeros((3 * bw + 1, n), order="F")
        for k in range(2 * bw + 1):
            # band column k holds the entries (i, i + k - bw)
            lo, hi = max(0, bw - k), min(n, n + bw - k)
            ab[3 * bw - k, lo + k - bw : hi + k - bw] = band[lo:hi, k]
        return ab

    def band_solver(self, band: np.ndarray, rank_one=None):
        """Solver for dense(band) + outer(u, v) by one LAPACK band LU.

        Factors the m-row ``band`` once with plain ``dgbtrf`` (partial
        pivoting, no scaling) and returns ``(solve, denom, info)``.
        ``solve`` maps x to (dense(band) + u v^T)^-1 x: one ``dgbtrs``
        solve, then for ``rank_one = (u, v)`` the Sherman-Morrison step with
        ``denom = 1 + v . B^-1 u`` (Golub & Van Loan, Matrix Computations,
        4th ed., sec. 2.1.4); without a rank-one pair ``denom`` is 1.  The
        caller judges ``denom``, which must not be zero for ``solve`` to be
        used.  x may be one vector or an (m, c) stack of columns, solved in
        one ``dgbtrs`` call; each column gets its own ``v . y`` dot, so it is
        bit for bit the one-vector solve.  ``info`` is LAPACK's: i > 0 means
        U(i, i) is exactly zero.  A band with a non-finite entry is not
        factored and gets info = -5, LAPACK's code for a bad fifth argument
        (the band).  ``solve`` is None whenever info is not 0.
        """
        bw = self.bandwidth
        ab = self.diagonal_ordered(band)
        if not np.all(np.isfinite(ab)):
            return None, np.nan, -5
        lu, piv, info = dgbtrf(ab, bw, bw, overwrite_ab=1)
        if info != 0:
            return None, np.nan, int(info)

        def band_solve(x):
            return dgbtrs(lu, bw, bw, x, piv)[0]

        if rank_one is None:
            return band_solve, 1.0, 0
        u, v = rank_one
        binv_u = band_solve(u)
        with np.errstate(over="ignore", invalid="ignore"):
            # an overflow shows as a non-finite denom, which the caller judges
            denom = 1.0 + float(v @ binv_u)

        def correct(y):
            return y - binv_u * ((v @ y) / denom)

        def solve(x):
            y = band_solve(x)
            if y.ndim == 1:
                return correct(y)
            # stacked as rows and transposed, so each column is contiguous
            return np.array([correct(col) for col in y.T]).T

        return solve, denom, 0

    def point_rows(self, t_star: float, m: int = 0) -> np.ndarray:
        """Rows evaluating derivatives 0..m at an arbitrary point.

        Returns shape ``(m + 1, n)``; valid for even profiles, including
        t_star = 0 and points between nodes.
        """
        if not 0.0 <= t_star <= self.t[-1] * (1.0 + 1e-12):
            raise MfelabError(f"point {t_star!r} outside [0, {self.t[-1]!r}]")
        i = int(np.argmin(np.abs(self.t - t_star)))
        cols, nodes = _windows(self.t, np.array([i]))
        c = fd_weights(float(t_star), nodes[0], m)
        rows = np.zeros((m + 1, self.n))
        for d in range(m + 1):
            np.add.at(rows[d], cols[0], c[d])
        return rows

    def quad_to(self, t_end: float) -> np.ndarray:
        """Weights for the partial integral over [0, t_end]."""
        return _sum_intervals(self.t, _check_end(self.t, t_end), self._intervals)

    def lap_band(self, coef: np.ndarray | float) -> np.ndarray:
        """Row band of g -> g'' + (coef / t) g' on the even extension.

        Combined on the stencil rows and expanded once; for finite coef
        every slot off the stencils is +0.0, as d2 + (coef / t) d1 gives on
        the full bands.
        """
        c = np.broadcast_to(np.asarray(coef, dtype=float), (self.n,))
        d1, d2 = self._stencils
        return self._expand(d2 + (c / self.t)[:, None] * d1)

    def lap_rows(self, coef: np.ndarray | float) -> np.ndarray:
        """Dense rows of g -> g'' + (coef / t) g' on the even extension."""
        return self.dense(self.lap_band(coef))
