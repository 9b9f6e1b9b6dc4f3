"""Adjacency-tensor contractions and H-eigenvalue solvers.

The adjacency tensor of a k-uniform hypergraph acts on a vertex vector
through its edges only, so no order-k array is ever materialized.  For even
k the least H-eigenvalue is the minimum of the degree-k form over the unit
k-norm sphere; unless the fast path below applies, it is found by
multi-restart projected gradient descent and cross-checked elsewhere by
brute-force sampling.  Each descent row tries its Barzilai-Borwein step
(BB1 and BB2 in turn, clipped to ``BB_CLIP``) and halves it until an Armijo
test passes against the largest of its last ``NONMONOTONE_MEMORY`` accepted
form values, the nonmonotone search of Grippo, Lampariello & Lucidi, which
Raydan (SIAM J. Optim. 7, 1997) pairs with BB steps and Chang, Chen & Qi
(SIAM J. Sci. Comput. 38, 2016) use on hypergraph tensors.  The spectral
radius of a connected graph comes from a power iteration on
A(G) x^{k-1} + x^{k-1} (shift 1), which converges linearly.  It stops when
the Collatz-Wielandt bracket [lo, hi] of its iterate closes, and hands over
to Newton-Noda steps (Liu, Guo & Lin, Numer. Math. 137, 2017) once a step
fails to shrink the gap hi - lo by ``HANDOVER_RATE`` while the gap is below
``HANDOVER_GAP`` of hi.  Each step solves B w = x^{[k-1]} with
B = (k-1) lam diag(x^{k-2}) - M, lam = hi - 1 the upper bound on rho and M
the Jacobian of A x^{k-1}: a symmetric nonsingular M-matrix, so w > 0 and
the updated x stays positive.  MINRES solves it Jacobi-scaled, to the
inexact-Newton forcing term min(0.1, gap / lam).  The steps converge
quadratically, and a positive eigenvector belongs to rho (Chang, Pearson &
Zhang, Commun. Math. Sci. 6, 2008).  ``iterations`` counts power and
Newton-Noda steps together.

A connected graph with even k has lambda_min = -rho exactly when it is
odd-bipartite (Shao, Shan & Wu, Linear Multilinear Algebra 63, 2015), and
then the Perron vector with its sign flipped on the odd
side is a least eigenvector.  ``least_h_eigenvalue`` takes this fast path
whenever ``find_odd_bipartition`` returns a witness, and descends otherwise;
``method="descent"`` forces descent, for checks that compare lambda_min with
-rho.  Each result's ``method`` says which solver ran: "power" or "descent".

Descent stops once its incumbent is certified.  At iterations 25, 50, 100,
... (doubling from ``FIRST_CHECK``, at most ``max_iters``) the best row is
polished by the SS-HOPM-style fixed-point map, and the polish certifies
when its residual is at most ``CERTIFY_TOLERANCE``.  The descent stops at
the first certified check whose eigenvalue is at most the least row value
plus ``EIGENVALUE_TOLERANCE`` and whose tangent curvature, the least
eigenvalue of the Hessian of the Lagrangian on the sphere's tangent space,
is at least ``EIGENVALUE_TOLERANCE``: the second-order condition for a
strict local minimum (Absil, Mahony & Sepulchre 2008, ch. 5-6).  A
curvature near zero leaves the test open, as at eigenvectors with exact
zero entries, where other rows can still descend lower.  Lanczos with full
reorthogonalization on the kernel's Hessian products gives the tridiagonal,
and bisection on its Sturm counts the least eigenvalue (Parlett, The
Symmetric Eigenvalue Problem, 1998), in O(n^3) time, so only for n up to
``CURVATURE_MAX_N``.  Otherwise the descent stops when two certified checks
in a row agree on the eigenvalue to ``CERTIFY_TOLERANCE`` relative, or runs
until every row has frozen or the iteration cap is reached, and the final
incumbent is polished.  A polish that does not certify tries one more
candidate, with the entries below ``SNAP`` of the largest set to zero.  The
power path runs the fixed-point map and the Newton band only: a connected
graph's Perron vector is strictly positive (Chang, Pearson & Zhang,
Commun. Math. Sci. 6, 2008), so snapping could only pull it toward another
eigenpair.

The fixed-point map can stall just above ``CERTIFY_TOLERANCE``.  So a
polish candidate whose residual lies strictly between ``CERTIFY_TOLERANCE``
and ``RESIDUAL_TOLERANCE`` (a pair already counted as converged) is
finished by up to ``NEWTON_STEPS`` Newton steps on the bordered system
[A x^{k-1} - lam x^{[k-1]} = 0, (sum x^k - 1)/k = 0] (Absil, Mahony &
Sepulchre, Optimization Algorithms on Matrix Manifolds, 2008), each kept
only while the residual falls and none taken once it is at rounding level.
Each step, like each Newton-Noda step, is solved by MINRES on
Hessian-vector products from the kernel's gathers, O(m*k^2) per product, so
no n-by-n array is built.

One batched O(m*k) kernel serves every contraction: a batch is gathered
position-major, one contiguous (rows, m) block per edge position, edge
products are block multiplies, and the scatter onto vertices is one
bincount.  The caller builds a batch's index and passes it in, so the
kernel keeps no state between calls.  Descent keeps its live rows' state
contiguous, and rows leave it at one block at the end of an iteration in
which a row is done, a check is due or the cap is reached.  It tries the
halvings of the rows still backtracking stacked in one form call; each row
takes exactly the steps it would take alone.  One descent runs several
start groups at once (``descend``): a group is one graph's starts, every
graph in the call has the same (n, m, k), and each row reads its own
graph's edges.  A group keeps its own incumbent, checks, stop and
iteration count, and leaves the batch at that same block, so it returns
the bits of its lone solve.  A single solve is the one-group case.
Integer powers are repeated multiplications, and inner products and the
oracle's sign scores are elementwise sums.  No function here makes a BLAS
call, so no result depends on the BLAS build or its thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph, find_odd_bipartition, is_connected

RESIDUAL_TOLERANCE = 1e-8
EIGENVALUE_TOLERANCE = 1e-6
# The descent's first certification check; later checks double it.
FIRST_CHECK = 25
# Residual at which a polished incumbent counts as certified, and the
# relative agreement two certified checks in a row must show to stop.
CERTIFY_TOLERANCE = 1e-12
# Max-norm of the projected gradient below which a descent row freezes.
GRADIENT_TOLERANCE = 1e-10
# Range a descent row's Barzilai-Borwein trial step is clipped to, and how
# many of its accepted form values the nonmonotone Armijo test looks back on.
BB_CLIP = (1e-12, 10.0)
NONMONOTONE_MEMORY = 8
# Halvings a still-searching descent row tries stacked in one form call.
HALVINGS = 4
# Fixed-point rounds per polish candidate, and the share of the largest
# entry below which the descent's snapped candidate zeroes an entry.
POLISH_ROUNDS = 40
SNAP = 0.1
# Newton steps that finish a polish candidate, the relative residual at
# which MINRES stops solving for one step, and the rounding-level residual,
# per unit of max|A x^{k-1}|, at which the steps stop.
NEWTON_STEPS = 3
MINRES_TOLERANCE = 1e-10
NEWTON_FLOOR = 64 * np.finfo(np.float64).eps
# The power iteration hands over to Newton-Noda steps once a step fails to
# shrink the Collatz-Wielandt gap hi - lo by this factor while the gap is
# below HANDOVER_GAP of hi.
HANDOVER_RATE = 0.5
HANDOVER_GAP = 0.1
# Both stop once the gap hi - lo is below this share of max(1, hi): the
# bracket on rho + 1 is then closed to rounding.
BRACKET_TOLERANCE = 1e-13
# Best sampled starts brute_force_min descends from; 8 missed the minimum.
ORACLE_STARTS = 16
# Largest n at which a certified check can end a descent group on its
# tangent curvature: the curvature's Lanczos keeps an n-by-n basis and takes
# O(n^3) time.
CURVATURE_MAX_N = 64


class UnsupportedUniformityError(ValueError):
    """Raised for odd k: the sphere-minimum characterization needs even k."""


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 32
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class EigenResult:
    eigenvalue: float
    vector: np.ndarray
    residual: float
    iterations: int  # descent iterations, or power plus Newton-Noda steps
    converged: bool
    method: str  # "power" or "descent"

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.eigenvalue,
            "vector": [float(v) for v in self.vector],
            "residual": self.residual,
            "converged": self.converged,
            "iterations": self.iterations,
            "method": self.method,
        }


def _as_vector(g: Hypergraph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({g.n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    return x


def _ipow(x: np.ndarray, p: int) -> np.ndarray:
    """x ** p for an integer p >= 1, by repeated multiplication: libm pow on
    signed arrays costs far more than the multiplies."""
    if p == 1:
        return x
    out = x * x
    for _ in range(p - 2):
        out *= x
    return out


def knorm(x: np.ndarray, k: int) -> float:
    return float(np.sum(_ipow(np.abs(x), k)) ** (1.0 / k))


def _normalized(x: np.ndarray, k: int) -> np.ndarray:
    s = knorm(x, k)
    if s == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return x / s


class _Kernel:
    """Contractions of A(G) with a batch of vectors, one vector per row.

    A batch is gathered position-major, shape (k, rows, m), so each edge
    position is one contiguous (rows, m) block and the prefix and suffix
    products of ``apply`` run on whole blocks.  One flat index,
    ``row * n + cols[p, owner[row], e]`` in (p, row, e) order, serves both
    the gather (a take from the flattened rows) and the scatter (one
    bincount).  Each bin receives its terms in (position, edge) order, as
    the row-major layout gave them, so the sums are the same bits.

    A kernel holds one or more graphs of one shape (n, m, k), and ``cols``
    has shape (k, graphs, m).  A batch names the graph of each row by
    ``owner``.  Each bin receives only its own row's terms, so a row's
    contraction has the bits of a batch of that row alone.

    A kernel serves batches of up to ``rows`` rows.  The caller owns a
    batch's index: ``index(owner)`` builds it, and ``form`` and ``apply``
    read the index they are passed, or, without one, a one-row index of
    graph 0 built with the kernel.  No index is kept between calls; only
    the gather and product buffers are reused.
    """

    def __init__(self, g: Hypergraph | list[Hypergraph], rows: int = 1):
        graphs = g if isinstance(g, list) else [g]
        g = graphs[0]
        self.n, self.k, self.m, self.rows = g.n, g.k, g.m, rows
        self.cols = np.stack([h.edge_array.T for h in graphs], axis=1)
        self._one_row = self.index(np.zeros(1, dtype=np.intp))
        self._ex = np.empty(g.k * rows * g.m)
        self._contrib = np.empty(g.k * rows * g.m)

    def index(self, owner: np.ndarray) -> np.ndarray:
        """The flat index of a batch whose row r reads graph ``owner[r]``,
        one broadcast per maximal run of rows with one owner: a descent
        batch has one run per group."""
        index = np.empty((self.k, len(owner), self.m), dtype=np.intp)
        bounds = [0, *((owner[1:] != owner[:-1]).nonzero()[0] + 1).tolist(), len(owner)] if len(owner) else []
        for lo, hi in zip(bounds, bounds[1:]):
            np.add(np.arange(lo, hi)[:, None] * self.n, self.cols[:, owner[lo], None, :], out=index[:, lo:hi])
        return index.reshape(-1)

    def _gather(self, xs: np.ndarray, index: np.ndarray) -> np.ndarray:
        # every index is an entry of xs; mode="clip" only stops take from
        # buffering its output
        ex = self._ex[: index.size]
        xs.reshape(-1).take(index, out=ex, mode="clip")
        return ex.reshape(self.k, len(xs), self.m)

    def form(self, xs: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
        """The degree-k form of each row."""
        ex = self._gather(xs, self._one_row if index is None else index)
        prod = ex[0] * ex[1]
        for j in range(2, self.k):
            prod *= ex[j]
        return self.k * prod.sum(axis=1)

    def apply(self, xs: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
        """(A(G) x^{k-1}) of each row: per edge and position, the product of
        the other k-1 entries, from prefix and suffix products."""
        k, rows = self.k, len(xs)
        index = self._one_row if index is None else index
        ex = self._gather(xs, index)
        contrib = self._contrib[: index.size].reshape(k, rows, self.m)
        contrib[1] = ex[0]
        for j in range(2, k):
            np.multiply(contrib[j - 1], ex[j - 1], out=contrib[j])
        # contrib[0] holds the suffix products until it is the last of them
        contrib[0] = ex[k - 1]
        for j in range(k - 2, 0, -1):
            contrib[j] *= contrib[0]
            contrib[0] *= ex[j]
        out = np.bincount(index, weights=contrib.reshape(-1), minlength=rows * self.n)
        return out.reshape(rows, self.n)

    def pair_products(self, x: np.ndarray) -> np.ndarray:
        """Per edge and ordered pair of positions i != j, the product of the
        other k-2 entries of one vector x; zero for i == j.  Shape (k, k, m)."""
        ex = x[self.cols[:, 0]]
        pairs = np.zeros((self.k, self.k, ex.shape[1]))
        for i in range(self.k):
            for j in range(i + 1, self.k):
                others = [r for r in range(self.k) if r not in (i, j)]
                pairs[i, j] = pairs[j, i] = np.prod(ex[others], axis=0)
        return pairs

    def hessian_apply(self, pairs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """M v, where M_uv = sum over edges at u and v of the product of the
        other k-2 entries: the Jacobian of A x^{k-1} at the x of ``pairs``."""
        contrib = (pairs * v[self.cols[:, 0]][None, :, :]).sum(axis=1)
        return np.bincount(self.cols[:, 0].reshape(-1), weights=contrib.ravel(), minlength=self.n)


def tensor_apply(g: Hypergraph, x) -> np.ndarray:
    """(A(G) x^{k-1})_v: sum over edges at v of the product of x off v."""
    x = _as_vector(g, x)
    if g.m == 0:
        return np.zeros(g.n)  # bincount of no weights would give ints
    return _Kernel(g).apply(x[None, :])[0]


def rayleigh(g: Hypergraph, x) -> float:
    """The degree-k form A(G) x^k = k times the sum of edge products."""
    x = _as_vector(g, x)
    return float(_Kernel(g).form(x[None, :])[0])


def residual(g: Hypergraph, lam: float, x) -> float:
    """Max-norm violation of the eigen equation at (lam, x)."""
    x = _as_vector(g, x)
    return float(np.max(np.abs(tensor_apply(g, x) - lam * _ipow(x, g.k - 1))))


def _normalized_rows(xs: np.ndarray, k: int) -> np.ndarray:
    """Rows scaled to unit k-norm, for even k: a product's rounding depends
    only on its factors' magnitudes, so x^k is |x|^k bit for bit."""
    norms = _ipow(xs, k).sum(axis=1) ** (1.0 / k)
    return xs / norms[:, None]


def _descend_batch(graphs: list[Hypergraph], starts: list[np.ndarray], max_iters: int) -> list[EigenResult]:
    """Projected normalized-gradient descent on the unit k-norm sphere,
    run on several start groups at once.  A group is one graph's starts,
    and every graph has the same (n, m, k).  Every row follows exactly its
    own trajectory; rows freeze once their projected gradient drops below
    tolerance or their line search stops making progress.

    A row's first trial step is its Barzilai-Borwein step, BB1 and BB2 in
    turn, clipped to ``BB_CLIP``, or its last accepted step where no finite
    positive BB value exists.  Trials halve, at most 60 times, until one
    passes Armijo against the largest of the row's last
    ``NONMONOTONE_MEMORY`` accepted form values.

    Each group keeps its own incumbent, its own checks and its own
    iteration count.  It leaves the batch once its last live row freezes
    or runs out of trials, once a check certifies its incumbent as the
    least of its rows' values and a strict minimum by its tangent
    curvature (for n up to ``CURVATURE_MAX_N``), once two certified checks
    in a row agree, or at ``max_iters``.  Each test reads only the group's
    own rows and graph, so each group's result has the bits of a call with
    that group alone.

    The live rows' state (x, form value, recent values, step, last x,
    projected gradient and group) is kept contiguous.  Rows and groups
    leave it at one block, at the end of an iteration in which a row is
    done, a check is due or the cap is reached: ``xs`` and ``fs`` get every
    row's latest point and value, the best row of each group with no live
    row left or due a check is polished once, a group that leaves gets its
    result there, and the live rows are compacted once.  After the first
    trial of every row, the rows still searching try their next
    ``HALVINGS`` halvings stacked in one form call, within the kernel's
    rows, and each takes its first passing trial: the same step the
    one-at-a-time search accepts.

    Returns, per group, the ``EigenResult`` of its best row's polished
    eigenpair, with the number of iterations the group ran."""
    k = graphs[0].k
    bounds = np.cumsum([0] + [len(s) for s in starts])
    xs = _normalized_rows(np.concatenate(starts).astype(np.float64, copy=False), k)
    kernel = _Kernel(graphs, len(xs))
    polishers = [_Kernel(g) for g in graphs]
    own = np.repeat(np.arange(len(graphs)), np.diff(bounds))  # the group of each live row
    index = kernel.index(own)
    fs = kernel.form(xs, index)
    # copies: a write-back to xs must not reach the last point prev_x
    ids, x, f = np.arange(len(xs)), xs.copy(), fs.copy()
    recent = np.repeat(fs[:, None], NONMONOTONE_MEMORY, axis=1)
    steps = np.ones(len(xs))
    # dx = 0 at iteration 1: no BB value is finite and positive, so every row tries its step of 1
    prev_x, prev_g = x, 0.0
    halvings = 0.5 ** np.arange(1, 60)  # exact, as repeated halving is
    check, certified = FIRST_CHECK, [None] * len(graphs)
    alive, results = np.ones(len(graphs), dtype=bool), [None] * len(graphs)
    iterations = 0
    while len(ids):
        iterations += 1
        grad = kernel.apply(x, index)
        grad *= k
        normal = _ipow(x, k - 1)  # gradient of the constraint, up to the factor k
        coef = (grad * normal).sum(axis=1) / (normal * normal).sum(axis=1)
        gproj = grad - coef[:, None] * normal
        done = np.abs(gproj).max(axis=1) < GRADIENT_TOLERANCE  # frozen
        gnorm = np.sqrt((gproj * gproj).sum(axis=1))
        with np.errstate(divide="ignore", invalid="ignore"):
            d = gproj / -gnorm[:, None]  # IEEE division is sign-symmetric; 0/0 only in a frozen row
            dx, dg = x - prev_x, gproj - prev_g
            dxg = np.abs((dx * dg).sum(axis=1))
            bb = gnorm * ((dx * dx).sum(axis=1) / dxg if iterations % 2 == 0 else dxg / (dg * dg).sum(axis=1))
            t = np.where(np.isfinite(bb) & (bb > 0.0), bb.clip(*BB_CLIP), steps)
        reference = recent.max(axis=1)
        # the first trial of every row; xt and ft become the rows' new state
        xt = _normalized_rows(x + t[:, None] * d, k)
        ft = kernel.form(xt, index)
        searching = (~(ft <= reference - 1e-4 * t * gnorm) & ~done).nonzero()[0]
        tried = 1
        while len(searching) and tried < 60:
            s = searching
            stack = min(HALVINGS, kernel.rows // len(s), 60 - tried)
            ts = t[s, None] * halvings[tried - 1 : tried - 1 + stack]
            trials = _normalized_rows((x[s, None, :] + ts[:, :, None] * d[s, None, :]).reshape(-1, kernel.n), k)
            fts = kernel.form(trials, kernel.index(own[s].repeat(stack))).reshape(len(s), stack)
            ok = fts <= reference[s, None] - 1e-4 * ts * gnorm[s, None]
            hit, first = ok.any(axis=1), ok.argmax(axis=1)
            rows, first = s[hit], first[hit]
            xt[rows] = trials.reshape(len(s), stack, kernel.n)[hit, first]
            ft[rows], t[rows] = fts[hit, first], ts[hit, first]
            searching, tried = s[~hit], tried + stack
        done[searching] = True
        due = iterations == check
        if done.any() or due or iterations == max_iters:
            # frozen rows, and rows whose decrease fell below float
            # resolution, keep their point
            xt[done], ft[done] = x[done], f[done]
            xs[ids], fs[ids] = xt, ft
            live = ~done & (iterations < max_iters)
            emptied = np.bincount(own[live], minlength=len(graphs)) == 0
            if due:
                check *= 2
            for j in np.flatnonzero(alive & (emptied | due)):
                best = bounds[j] + int(np.argmin(fs[bounds[j] : bounds[j + 1]]))
                # a copy: a result must not hold a view of the whole batch
                lam, vec, res = _polish(polishers[j], xs[best].copy())
                last, certified[j] = certified[j], lam if res <= CERTIFY_TOLERANCE else None
                # two certified checks in a row with the same eigenvalue end the group
                same = None not in (last, certified[j]) and abs(lam - last) <= CERTIFY_TOLERANCE * abs(last)
                # so does one, if it is the group's least value and a strict
                # minimum on the sphere; a flat direction leaves that open
                if emptied[j] or same or (
                    certified[j] is not None
                    and kernel.n <= CURVATURE_MAX_N
                    and lam <= fs[best] + EIGENVALUE_TOLERANCE
                    and _tangent_curvature(polishers[j], lam, vec) >= EIGENVALUE_TOLERANCE
                ):
                    results[j], alive[j] = _result(lam, vec, res, iterations, "descent"), False
            live &= alive[own]
            ids, own, x, gproj, xt, ft, t, recent = (a[live] for a in (ids, own, x, gproj, xt, ft, t, recent))
            index = kernel.index(own)
        recent[:, iterations % NONMONOTONE_MEMORY] = ft
        prev_x, prev_g, x, f, steps = x, gproj, xt, ft, t
    return results


def _eigen_terms(kernel: _Kernel, x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """rayleigh, tensor_apply and residual of one vector, from one kernel."""
    row = x[None, :]
    lam = float(kernel.form(row)[0])
    ax = kernel.apply(row)[0]
    return lam, ax, float(np.max(np.abs(ax - lam * _ipow(x, kernel.k - 1))))


def _polish_once(kernel: _Kernel, x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Fixed-point refinement of a near-eigenpair, kept only while the
    residual improves.  k-1 is odd for even k, so signed roots are exact."""
    k = kernel.k
    lam, ax, res = _eigen_terms(kernel, x)
    best = (lam, x, res)
    for _ in range(POLISH_ROUNDS):
        if abs(lam) < 1e-12:
            break
        z = ax / lam
        try:
            cur = _normalized(np.sign(z) * np.abs(z) ** (1.0 / (k - 1)), k)
        except ValueError:
            break
        lam, ax, res = _eigen_terms(kernel, cur)
        if res < best[2]:
            best = (lam, cur, res)
        else:
            break
    return best


def _minres(op, b: np.ndarray, iters: int, tol: float = MINRES_TOLERANCE) -> np.ndarray:
    """MINRES (Paige & Saunders, SIAM J. Numer. Anal. 12, 1975) for op(z) = b
    with op symmetric, possibly indefinite, from z = 0, until the residual
    is at most tol relative to b.  Inner products are elementwise sums, so
    no BLAS call is made."""
    beta1 = float(np.sqrt(np.sum(b * b)))
    z = np.zeros_like(b)
    if beta1 == 0.0:
        return z
    r1 = r2 = y = b
    w = w2 = z
    oldb, beta, dbar, epsln, phibar, cs, sn = 0.0, beta1, 0.0, 0.0, beta1, -1.0, 0.0
    for it in range(iters):
        v = y / beta
        y = op(v)
        if it:
            y = y - (beta / oldb) * r1
        alfa = float(np.sum(v * y))
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        oldb, beta = beta, float(np.sqrt(np.sum(y * y)))
        # rotate the new tridiagonal column by the previous rotation, then
        # make the next one
        oldeps = epsln
        delta, gbar = cs * dbar + sn * alfa, sn * dbar - cs * alfa
        epsln, dbar = sn * beta, -cs * beta
        gamma = float(np.hypot(gbar, beta))
        if gamma == 0.0:
            break  # singular and the Krylov space exhausted
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) / gamma
        z = z + phi * w
        if phibar <= tol * beta1 or beta == 0.0:
            break
    return z


def _lanczos(op, b: np.ndarray, steps: int) -> tuple[list[float], list[float]]:
    """The diagonal and off-diagonal of the tridiagonal that ``steps``
    Lanczos steps on the symmetric op build from b.  Each new vector is
    orthogonalized against every earlier one, twice, by classical
    Gram-Schmidt with elementwise sums, so the basis stays orthonormal to
    rounding and no BLAS call is made.  A near-breakdown then restarts the
    recurrence on an orthogonal direction; only an exact one ends it early."""
    basis = np.empty((steps, len(b)))
    q = b / np.sqrt((b * b).sum())
    alpha: list[float] = []
    beta: list[float] = []
    for j in range(steps):
        basis[j] = q
        w = op(q)
        alpha.append(float((q * w).sum()))
        if j + 1 == steps:
            break
        done = basis[: j + 1]
        for _ in range(2):
            w = w - ((done * w).sum(axis=1)[:, None] * done).sum(axis=0)
        norm = float(np.sqrt((w * w).sum()))
        if norm == 0.0:
            break
        beta.append(norm)
        q = w / norm
    return alpha, beta


def _least_ritz_value(alpha: list[float], beta: list[float]) -> float:
    """The least eigenvalue of the symmetric tridiagonal T with diagonal
    alpha and off-diagonal beta, by bisection on Sturm counts (Parlett, The
    Symmetric Eigenvalue Problem, 1998): T - s I has a pivot <= 0 in its
    LDL^T factorization exactly when an eigenvalue is at most s.  The
    bisection starts on the Gershgorin interval and stops once it is
    narrower than eps times the interval's largest magnitude."""
    radius = [abs(left) + abs(right) for left, right in zip([0.0, *beta], [*beta, 0.0])]
    lo = min(a - r for a, r in zip(alpha, radius))
    hi = max(a + r for a, r in zip(alpha, radius))
    floor = np.finfo(np.float64).eps * max(abs(lo), abs(hi))
    squares = [0.0, *(b * b for b in beta)]
    while hi - lo > floor:
        mid = 0.5 * (lo + hi)
        d = 1.0
        for a, b2 in zip(alpha, squares):
            d = a - mid - b2 / d
            if d <= 0.0:
                hi = mid
                break
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _tangent_curvature(kernel: _Kernel, lam: float, x: np.ndarray) -> float:
    """The least eigenvalue of P (M - (k-1) lam diag(x^{k-2})) P on the
    tangent space of the unit k-norm sphere at x, P projecting off
    x^{[k-1]} and M the Jacobian of A x^{k-1}: the Hessian of the
    Lagrangian there, up to the factor k.  At a minimum of the form on the
    sphere it is >= 0, and > 0 makes a critical point a strict local
    minimum (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix
    Manifolds, 2008, ch. 5-6).

    A Householder reflection maps the tangent space onto the first n - 1
    coordinates, so Lanczos runs in R^{n-1} and its n - 1 steps span the
    whole space.  It starts from a fixed vector with distinct entries, so
    the result is deterministic and sees the directions antisymmetric on
    a pair of twins, which a symmetric start would miss."""
    k, n = kernel.k, kernel.n
    normal = _ipow(x, k - 1)
    v = normal / np.sqrt((normal * normal).sum())
    v[-1] += 1.0 if v[-1] >= 0.0 else -1.0
    scale = 2.0 / (v * v).sum()
    diag = (k - 1) * lam * (_ipow(x, k - 2) if k > 2 else 1.0)
    pairs = kernel.pair_products(x)
    padded = np.zeros(n)

    def reflect(z: np.ndarray) -> np.ndarray:
        return z - (scale * (v * z).sum()) * v

    def tangent(y: np.ndarray) -> np.ndarray:
        padded[:-1] = y
        z = reflect(padded)
        return reflect(kernel.hessian_apply(pairs, z) - diag * z)[:-1]

    start = np.random.default_rng(0).uniform(-1.0, 1.0, n - 1)
    return _least_ritz_value(*_lanczos(tangent, start, n - 1))


def _newton_finish(kernel: _Kernel, lam: float, x: np.ndarray, res: float) -> tuple[float, np.ndarray, float]:
    """Newton steps on the bordered eigen-equation
    [A x^{k-1} - lam x^{[k-1]} = 0, (sum x^k - 1)/k = 0], kept only while
    the residual falls.  Each step solves the symmetric system

        [M - (k-1) lam diag(x^{k-2})   -x^{[k-1]}] [dx  ]   [lam x^{[k-1]} - A x^{k-1}]
        [-x^{[k-1]}^T                   0        ] [dlam] = [(sum x^k - 1)/k          ]

    by MINRES on the kernel's Hessian products, so no n-by-n array is
    built.  The step's x is renormalized and lam recomputed from the form.
    The steps stop once the residual is at rounding level.
    """
    k, n = kernel.k, kernel.n
    ax = kernel.apply(x[None, :])[0]
    for _ in range(NEWTON_STEPS):
        if res <= NEWTON_FLOOR * np.max(np.abs(ax)):
            break
        normal = _ipow(x, k - 1)
        diag = (k - 1) * lam * (_ipow(x, k - 2) if k > 2 else 1.0)
        pairs = kernel.pair_products(x)

        def bordered(z: np.ndarray) -> np.ndarray:
            dx = z[:n]
            out = np.empty(n + 1)
            out[:n] = kernel.hessian_apply(pairs, dx) - diag * dx - z[n] * normal
            out[n] = -np.sum(normal * dx)
            return out

        rhs = np.append(lam * normal - ax, (np.sum(normal * x) - 1.0) / k)
        # floating-point Lanczos can need more than the n + 1 steps of
        # exact arithmetic
        cur = _normalized(x + _minres(bordered, rhs, 2 * (n + 1))[:n], k)
        cur_lam, cur_ax, cur_res = _eigen_terms(kernel, cur)
        if not cur_res < res:  # also rejects a NaN residual
            break
        lam, x, res, ax = cur_lam, cur, cur_res, cur_ax
    return lam, x, res


def _polish(kernel: _Kernel, x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Descent's eigenpair certificate near x: refine x itself and, if that
    does not certify, x with its entries below ``SNAP`` of the largest
    snapped to exact zero.

    A minimizer supported on a sub-hypergraph leaves the off-support
    coordinates coupled only at higher order, where gradient steps and the
    fixed-point map both stall at small nonzero values; snapping reaches the
    exact zero-extended eigenpair.

    The plain candidate is Newton-finished when its residual lies in the
    finish band; the snapped one replaces it only with a lower residual,
    and is then finished the same way.
    """
    plain = _finished(kernel, _polish_once(kernel, x))
    if plain[2] <= CERTIFY_TOLERANCE:
        return plain
    mask = np.abs(x) < SNAP * np.max(np.abs(x))
    if not mask.any():
        return plain
    snapped = _polish_once(kernel, _normalized(np.where(mask, 0.0, x), kernel.k))
    return _finished(kernel, snapped) if snapped[2] < plain[2] else plain


def _finished(kernel: _Kernel, cand: tuple[float, np.ndarray, float]) -> tuple[float, np.ndarray, float]:
    """cand, Newton-finished when its residual lies strictly between
    CERTIFY_TOLERANCE and RESIDUAL_TOLERANCE."""
    if CERTIFY_TOLERANCE < cand[2] < RESIDUAL_TOLERANCE:
        return _newton_finish(kernel, *cand)
    return cand


def _result(lam: float, x: np.ndarray, res: float, iterations: int, method: str) -> EigenResult:
    """An eigenpair counts as converged when its residual is below
    RESIDUAL_TOLERANCE, whichever solver found it."""
    return EigenResult(lam, x, res, iterations, res < RESIDUAL_TOLERANCE, method)


def _check_solvable(g: Hypergraph) -> None:
    if g.k % 2:
        raise UnsupportedUniformityError(
            f"least H-eigenvalue computation requires even uniformity, got k={g.k}; "
            "the sphere-minimum characterization fails for odd k"
        )
    if g.m == 0:
        raise ValueError("graph has no edges")


def least_h_eigenvalue(g: Hypergraph, cfg: SolverConfig = SolverConfig(), method: str = "auto") -> EigenResult:
    """The least H-eigenpair.

    With ``method="auto"`` a connected graph with an odd bipartition gets
    -rho and the Perron vector signed by the witness, an exact least
    eigenpair.  Any other graph, and every graph under ``method="descent"``,
    gets the best local minimum of the degree-k form over the unit sphere
    across seeded random restarts: an upper bound on the least
    H-eigenvalue, whose tightness is established against oracles in tests.
    """
    if method not in ("auto", "descent"):
        raise ValueError(f"unknown method {method!r}, expected 'auto' or 'descent'")
    fast = _fast_path(g, cfg) if method == "auto" else None
    if fast is not None:
        return fast
    return descend([(g, _restart_starts(g, cfg))], cfg.max_iters)[0]


def _fast_path(g: Hypergraph, cfg: SolverConfig) -> EigenResult | None:
    """``least_h_eigenvalue``'s power path: -rho and the Perron vector
    signed by an odd bipartition of a connected g; None without a witness."""
    _check_solvable(g)
    bip = find_odd_bipartition(g) if is_connected(g) else None
    if bip is None:
        return None
    kernel = _Kernel(g)
    _, perron, _, iterations = _perron(kernel, cfg.max_iters)
    x = np.where(np.array(bip.side) == 1, -perron, perron)
    # each edge has an odd number of flipped entries, so lam = -rho
    lam, _, res = _eigen_terms(kernel, x)
    return _result(lam, x, res, iterations, "power")


def _restart_starts(g: Hypergraph, cfg: SolverConfig) -> np.ndarray:
    """``least_h_eigenvalue``'s descent starts: ``cfg.restarts`` seeded
    uniform rows, with an all-zero row replaced by 0.5."""
    starts = np.random.default_rng(cfg.seed).uniform(-1.0, 1.0, (cfg.restarts, g.n))
    starts[~np.any(starts, axis=1)] = 0.5
    return starts


def descend(jobs: list[tuple[Hypergraph, np.ndarray]], max_iters: int) -> list[EigenResult]:
    """Descent from each job's starts, a job being (graph, starts).  The
    jobs whose graphs share a shape (n, m, k) run as the start groups of
    one ``_descend_batch`` call, and each result has the bits of a descent
    of its job alone."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    shapes: dict[tuple[int, int, int], list[int]] = {}
    for i, (g, _) in enumerate(jobs):
        _check_solvable(g)
        shapes.setdefault((g.n, g.m, g.k), []).append(i)
    results: list = [None] * len(jobs)
    for members in shapes.values():
        solved = _descend_batch([jobs[i][0] for i in members], [jobs[i][1] for i in members], max_iters)
        for i, r in zip(members, solved):
            results[i] = r
    return results


def spectral_radius(g: Hypergraph, cfg: SolverConfig = SolverConfig()) -> EigenResult:
    """Largest H-eigenvalue of the nonnegative adjacency tensor.

    Power iteration on A(G) x^{k-1} + x^{k-1} from the all-ones direction.
    Any shift >= 0 keeps the map order-preserving, so the ratio bounds close
    in on the shifted eigenvalue monotonically, and any shift > 0 makes the
    iteration converge on a connected graph (Friedland, Gaubert & Han,
    LAA 438, 2013).  A large shift slows it: with 1 + max degree,
    hyperstar(496, 4) ran 2000 steps; with 1 it takes 15.

    Once the iteration stalls, with its Collatz-Wielandt gap below
    ``HANDOVER_GAP`` of the bound and shrinking by less than
    ``HANDOVER_RATE`` a step, Newton-Noda steps finish it quadratically
    (see ``_newton_noda``); they keep x positive, so the result is the
    Perron pair.  ``iterations`` counts both kinds of step, and
    ``cfg.max_iters`` caps their sum.

    The iterate is refined by the fixed-point map and the Newton band, not
    by descent's snapped polish: a Perron vector has no zero entry.
    """
    _check_solvable(g)
    if not is_connected(g):
        raise ValueError("spectral radius iteration requires a connected graph")
    lam, x, res, iterations = _perron(_Kernel(g), cfg.max_iters)
    return _result(lam, x, res, iterations, "power")


def _perron(kernel: _Kernel, max_iters: int) -> tuple[float, np.ndarray, float, int]:
    """``spectral_radius``'s iteration and finish on the kernel of a
    connected graph, which the caller has checked: (rho, Perron vector,
    residual, steps).

    Shifted power steps run until the Collatz-Wielandt bracket [lo, hi] of
    the iterate closes, or until a step fails to shrink its gap hi - lo by
    ``HANDOVER_RATE`` while the gap is below ``HANDOVER_GAP`` of hi; then
    ``_newton_noda`` takes over.  The steps returned count both kinds, and
    ``max_iters`` caps their sum."""
    k = kernel.k
    x = _normalized(np.ones(kernel.n), k)
    gap = np.inf
    for iterations in range(1, max_iters + 1):
        lo, hi, y = _bracket(kernel, x)
        x = _normalized(y ** (1.0 / (k - 1)), k)
        if hi - lo < BRACKET_TOLERANCE * max(1.0, hi):
            break
        if HANDOVER_GAP * hi > hi - lo > HANDOVER_RATE * gap:
            x, iterations = _newton_noda(kernel, x, iterations, max_iters)
            break
        gap = hi - lo
    lam, x, res = _finished(kernel, _polish_once(kernel, x))
    return lam, x, res, iterations


def _bracket(kernel: _Kernel, x: np.ndarray) -> tuple[float, float, np.ndarray]:
    """The Collatz-Wielandt bounds of the shifted map at a positive x, the
    least and largest y / x^{[k-1]} for y = A x^{k-1} + x^{[k-1]}, which
    bracket rho + 1; and y: (lo, hi, y)."""
    xp = _ipow(x, kernel.k - 1)
    y = kernel.apply(x[None, :])[0] + xp
    ratios = y / xp
    return float(ratios.min()), float(ratios.max()), y


def _newton_noda(kernel: _Kernel, x: np.ndarray, iterations: int, max_iters: int) -> tuple[np.ndarray, int]:
    """Newton-Noda steps (Liu, Guo & Lin, Numer. Math. 137, 2017) from the
    positive power iterate x, while the bracket stays open and the steps
    number at most ``max_iters`` in all: (x, steps).

    With lam = hi - 1, the upper bound on rho, a step solves B w =
    x^{[k-1]} for B = (k-1) lam diag(x^{k-2}) - M, M the Jacobian of
    A x^{k-1}.  B x = (k-1)(lam x^{[k-1]} - A x^{k-1}) >= 0, so B is a
    symmetric nonsingular M-matrix: positive definite, with w > 0.  MINRES
    solves it Jacobi-scaled, D^{-1/2} B D^{-1/2} for D = diag(B), to the
    inexact-Newton forcing term min(0.1, gap / lam), at least 1e-12.  The
    new x is ((k-2) x + w / <x^{[k-1]}, w>) / (k-1), normalized; for k = 2
    this is Noda's step.  A step is kept only if x stays positive and the
    gap shrinks; a failed step is solved once more to 1e-12, and a second
    failure ends the steps."""
    k = kernel.k
    lo, hi, _ = _bracket(kernel, x)
    while iterations < max_iters and hi - lo >= BRACKET_TOLERANCE * max(1.0, hi):
        lam, gap = hi - 1.0, hi - lo
        xp = _ipow(x, k - 1)
        scale = 1.0 / np.sqrt((k - 1) * lam * (_ipow(x, k - 2) if k > 2 else 1.0))
        pairs = kernel.pair_products(x)

        def scaled(z: np.ndarray) -> np.ndarray:
            return z - scale * kernel.hessian_apply(pairs, scale * z)

        forcing = max(min(0.1, gap / lam), 1e-12)
        for tol in (forcing, 1e-12) if forcing > 1e-12 else (1e-12,):
            w = scale * _minres(scaled, scale * xp, 2 * kernel.n, tol)
            dot = float(np.sum(xp * w))
            cur = ((k - 2) * x + w / dot) / (k - 1)
            if dot > 0.0 and np.all(cur > 0.0):
                cur = _normalized(cur, k)
                cur_lo, cur_hi, _ = _bracket(kernel, cur)
                if cur_hi - cur_lo < gap:
                    break
        else:
            break  # no kept step at either tolerance
        x, lo, hi = cur, cur_lo, cur_hi
        iterations += 1
    return x, iterations


def brute_force_min(g: Hypergraph, samples: int = 512, refine_iters: int = 2000, seed: int = 0) -> EigenResult:
    """Independent oracle: exhaustive sign patterns on sampled magnitude
    profiles, best candidates polished by the same descent (see
    ``_oracle_starts``)."""
    return descend([(g, _oracle_starts(g, samples, seed))], refine_iters)[0]


def _oracle_starts(g: Hypergraph, samples: int, seed: int) -> np.ndarray:
    """``brute_force_min``'s descent starts: the ``ORACLE_STARTS`` best
    signed magnitude profiles.

    For each sampled magnitude profile the form is linear in the edge signs,
    so all 2^n sign choices are scored at once, as sums of the exact terms
    w_e * (+-1) in edge order: no BLAS call, so no build-dependent rounding.
    """
    _check_solvable(g)
    if g.n > 16:
        raise ValueError(f"sign enumeration is capped at n <= 16, got n={g.n}")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    rng = np.random.default_rng(seed)
    n, k = g.n, g.k
    edge = g.edge_array
    patterns = 1 << n
    bits = ((np.arange(patterns, dtype=np.uint32)[None, :] >> np.arange(n, dtype=np.uint32)[:, None]) & 1).astype(np.int8)
    parity = np.zeros((g.m, patterns), dtype=np.int8)
    for j, e in enumerate(g.edges):
        parity[j] = np.bitwise_xor.reduce(bits[list(e)], axis=0)
    edge_signs = (1 - 2 * parity).astype(np.float64)

    profiles = np.vstack([np.ones(n), rng.uniform(0.05, 1.0, (samples - 1, n))])
    # each k-th root is a scalar power, as np.power over the array rounds
    # some roots differently, which can change the chosen starts
    norms = [float(s ** (1.0 / k)) for s in _ipow(profiles, k).sum(axis=1)]
    profiles /= np.array(norms)[:, None]
    weights = np.prod(profiles[:, edge], axis=2)
    best, signs = np.empty(samples), np.empty(samples, dtype=np.int64)
    for i, w in enumerate(weights):
        scores = np.zeros(patterns)
        for wj, row in zip(w, edge_signs):  # edge by edge: no (m, 2^n) temporary
            scores += wj * row
        scores *= k
        signs[i] = np.argmin(scores)
        best[i] = scores[signs[i]]
    # descend from the several best starts; a single start can stall in a
    # local minimum even when the sampled value itself is the lowest
    order = np.argsort(best, kind="stable")[:ORACLE_STARTS]
    return profiles[order] * (1 - 2 * bits[:, signs[order]]).T
