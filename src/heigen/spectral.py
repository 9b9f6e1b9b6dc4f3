"""Adjacency-tensor contractions and H-eigenvalue solvers.

The adjacency tensor of a k-uniform hypergraph acts on a vertex vector
through its edges only, so no order-k array is ever materialized.  For even
k the least H-eigenvalue is the minimum of the degree-k form over the unit
k-norm sphere; it is found by multi-restart projected gradient descent and
cross-checked elsewhere by brute-force sampling.  The spectral radius of a
connected graph comes from a shifted nonnegative power iteration.

Descent stops once its incumbent is certified.  At iterations 25, 50, 100,
... (doubling from ``FIRST_CHECK``, at most ``max_iters``) the best row is
polished by the SS-HOPM-style fixed-point map; the descent stops when the
polished residual is at most ``CERTIFY_TOLERANCE`` and its eigenvalue
equals the previous check's certified eigenvalue to that relative
tolerance.  Otherwise it runs until every row has frozen or the iteration
cap is reached, and the final incumbent is polished.

One batched O(m*k) kernel serves every contraction: edge products by
column multiplies, and the scatter onto vertices by one bincount.  Integer
powers are repeated multiplications.  Contraction, descent, polish and
power iteration make no BLAS call, so their results do not depend on the
BLAS build or its thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph
from .constructions import Relocation

RESIDUAL_TOLERANCE = 1e-8
EIGENVALUE_TOLERANCE = 1e-6
# The descent's first certification check; later checks double it.
FIRST_CHECK = 25
# Residual at which a polished incumbent counts as certified, and the
# relative agreement two certified checks in a row must show to stop.
CERTIFY_TOLERANCE = 1e-12


class UnsupportedUniformityError(ValueError):
    """Raised for odd k: the sphere-minimum characterization needs even k."""


@dataclass(frozen=True)
class SolverConfig:
    restarts: int = 32
    max_iters: int = 2000
    gradient_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be positive")

    def to_json_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "max_iters": self.max_iters,
            "gradient_tolerance": self.gradient_tolerance,
            "seed": self.seed,
        }


@dataclass(frozen=True, eq=False)
class EigenResult:
    eigenvalue: float
    vector: np.ndarray
    residual: float
    iterations: int  # descent iterations, or power-iteration steps for the radius
    converged: bool

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.eigenvalue,
            "vector": [float(v) for v in self.vector],
            "residual": self.residual,
            "converged": self.converged,
            "iterations": self.iterations,
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

    The edges are stored column-major, shape (k, m), so gathering a batch
    gives one (rows, m) block per edge position.  ``index`` offsets each
    vertex by its row, ``row * n + vertex``, so one bincount scatters the
    whole batch.  A kernel serves batches of up to ``rows`` rows and reuses
    its gather and product buffers across calls.
    """

    def __init__(self, g: Hypergraph, rows: int = 1):
        self.n, self.k = g.n, g.k
        self.cols = np.ascontiguousarray(g.edge_array.T)
        self.index = (np.arange(rows)[:, None] * g.n + self.cols.ravel()).ravel()
        self._ex = np.empty((rows, g.k, g.m))
        self._contrib = np.empty((rows, g.k, g.m))

    def _gather(self, xs: np.ndarray) -> np.ndarray:
        # every index is a vertex of g; mode="clip" only stops take from
        # buffering its output
        return np.take(xs, self.cols, axis=1, out=self._ex[: len(xs)], mode="clip")

    def form(self, xs: np.ndarray) -> np.ndarray:
        """The degree-k form of each row."""
        ex = self._gather(xs)
        prod = ex[:, 0] * ex[:, 1]
        for j in range(2, self.k):
            prod *= ex[:, j]
        return self.k * prod.sum(axis=1)

    def apply(self, xs: np.ndarray) -> np.ndarray:
        """(A(G) x^{k-1}) of each row: per edge and position, the product of
        the other k-1 entries, from prefix and suffix products."""
        k, rows = self.k, len(xs)
        ex = self._gather(xs)
        contrib = self._contrib[:rows]
        contrib[:, 1] = ex[:, 0]
        for j in range(2, k):
            np.multiply(contrib[:, j - 1], ex[:, j - 1], out=contrib[:, j])
        suffix = ex[:, k - 1].copy()
        for j in range(k - 2, 0, -1):
            contrib[:, j] *= suffix
            suffix *= ex[:, j]
        contrib[:, 0] = suffix
        out = np.bincount(self.index[: contrib.size], weights=contrib.ravel(), minlength=rows * self.n)
        return out.reshape(rows, self.n)


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
    norms = np.sum(_ipow(np.abs(xs), k), axis=1) ** (1.0 / k)
    return xs / norms[:, None]


def _descend_batch(g: Hypergraph, x0: np.ndarray, max_iters: int, gtol: float) -> tuple[float, np.ndarray, float, int]:
    """Projected normalized-gradient descent on the unit k-norm sphere,
    run on a batch of starts at once.  Every row follows exactly its own
    backtracking trajectory; rows freeze once their projected gradient
    drops below tolerance or their line search stops making progress.

    Returns the polished eigenpair of the best row, as (lambda, vector,
    residual), and the number of iterations run: fewer than ``max_iters``
    when every row froze or a check certified the incumbent."""
    k = g.k
    xs = _normalized_rows(np.atleast_2d(np.asarray(x0, dtype=np.float64)), k)
    kernel = _Kernel(g, len(xs))
    fs = kernel.form(xs)
    steps = np.ones(len(xs))
    active = np.ones(len(xs), dtype=bool)
    check, certified = FIRST_CHECK, None
    iterations = 0
    while iterations < max_iters and active.any():
        iterations += 1
        rows = np.nonzero(active)[0]
        x = xs[rows]
        grad = k * kernel.apply(x)
        normal = _ipow(x, k - 1)  # gradient of the constraint, up to the factor k
        coef = np.sum(grad * normal, axis=1) / np.sum(normal * normal, axis=1)
        gproj = grad - coef[:, None] * normal
        converged = np.max(np.abs(gproj), axis=1) < gtol
        active[rows[converged]] = False
        live = ~converged
        if not live.any():
            continue  # every active row froze, so the loop ends
        rows = rows[live]
        x = x[live]
        gnorm = np.linalg.norm(gproj[live], axis=1)
        d = -gproj[live] / gnorm[:, None]
        t = steps[rows].copy()
        searching = np.ones(len(rows), dtype=bool)
        for _ in range(60):
            if not searching.any():
                break
            s = np.nonzero(searching)[0]
            xt = _normalized_rows(x[s] + t[s, None] * d[s], k)
            ft = kernel.form(xt)
            ok = ft <= fs[rows[s]] - 1e-4 * t[s] * gnorm[s]
            hit = s[ok]
            xs[rows[hit]] = xt[ok]
            fs[rows[hit]] = ft[ok]
            steps[rows[hit]] = np.minimum(1.0, 2.0 * t[hit])
            searching[hit] = False
            t[s[~ok]] *= 0.5
        # rows whose decrease fell below float resolution are done
        active[rows[searching]] = False
        if iterations == check:
            check *= 2
            # a copy: a row of xs is overwritten as descent goes on
            lam, vec, res = _polish(g, xs[int(np.argmin(fs))].copy())
            if res > CERTIFY_TOLERANCE:
                certified = None
            elif certified is not None and abs(lam - certified) <= CERTIFY_TOLERANCE * abs(certified):
                return lam, vec, res, iterations
            else:
                certified = lam
    lam, vec, res = _polish(g, xs[int(np.argmin(fs))].copy())
    return lam, vec, res, iterations


def _eigen_terms(kernel: _Kernel, x: np.ndarray) -> tuple[float, np.ndarray, float]:
    """rayleigh, tensor_apply and residual of one vector, from one kernel."""
    row = x[None, :]
    lam = float(kernel.form(row)[0])
    ax = kernel.apply(row)[0]
    return lam, ax, float(np.max(np.abs(ax - lam * _ipow(x, kernel.k - 1))))


def _polish_once(kernel: _Kernel, x: np.ndarray, rounds: int) -> tuple[float, np.ndarray, float]:
    """Fixed-point refinement of a near-eigenpair, kept only while the
    residual improves.  k-1 is odd for even k, so signed roots are exact."""
    k = kernel.k
    lam, ax, res = _eigen_terms(kernel, x)
    best = (lam, x, res)
    for _ in range(rounds):
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


def _polish(g: Hypergraph, x: np.ndarray, rounds: int = 40) -> tuple[float, np.ndarray, float]:
    """Best eigenpair certificate near x: refine x itself, and also variants
    with near-zero entries snapped to exact zero.

    A minimizer supported on a sub-hypergraph leaves the off-support
    coordinates coupled only at higher order, where gradient steps and the
    fixed-point map both stall at small nonzero values; snapping reaches the
    exact zero-extended eigenpair.  Candidates compete on residual only.
    """
    kernel = _Kernel(g)
    best = _polish_once(kernel, x, rounds)
    if best[2] <= CERTIFY_TOLERANCE:
        return best
    scale = float(np.max(np.abs(x)))
    tried = set()
    for rel in (0.1, 0.03, 0.01, 0.003):
        mask = np.abs(x) < rel * scale
        key = mask.tobytes()
        if not mask.any() or mask.all() or key in tried:
            continue
        tried.add(key)
        snapped = np.where(mask, 0.0, x)
        cand = _polish_once(kernel, _normalized(snapped, g.k), rounds)
        if cand[2] < best[2]:
            best = cand
    return best


def _check_solvable(g: Hypergraph) -> None:
    if g.k % 2:
        raise UnsupportedUniformityError(
            f"least H-eigenvalue computation requires even uniformity, got k={g.k}; "
            "the sphere-minimum characterization fails for odd k"
        )
    if g.m == 0:
        raise ValueError("graph has no edges")


def least_h_eigenvalue(g: Hypergraph, cfg: SolverConfig | None = None) -> EigenResult:
    """Best local minimum of the degree-k form over the unit sphere,
    across seeded random restarts.  The result is an upper bound on the
    least H-eigenvalue; tightness is established against oracles in tests."""
    cfg = cfg or SolverConfig()
    _check_solvable(g)
    rng = np.random.default_rng(cfg.seed)
    starts = rng.uniform(-1.0, 1.0, (cfg.restarts, g.n))
    starts[~np.any(starts, axis=1)] = 0.5
    lam, x, res, iterations = _descend_batch(g, starts, cfg.max_iters, cfg.gradient_tolerance)
    return EigenResult(
        eigenvalue=lam,
        vector=x,
        residual=res,
        iterations=iterations,
        converged=res < RESIDUAL_TOLERANCE,
    )


def spectral_radius(g: Hypergraph, cfg: SolverConfig | None = None) -> EigenResult:
    """Largest H-eigenvalue of the nonnegative adjacency tensor.

    Shifted nonnegative power iteration from the all-ones direction; the
    shift 1 + max degree keeps the iteration map order-preserving, so the
    ratio bounds close in on the shifted eigenvalue monotonically.
    """
    from .hypergraph import is_connected

    cfg = cfg or SolverConfig()
    _check_solvable(g)
    if not is_connected(g):
        raise ValueError("spectral radius iteration requires a connected graph")
    k = g.k
    kernel = _Kernel(g)
    shift = 1.0 + max(g.degree(v) for v in range(g.n))
    x = _normalized(np.ones(g.n), k)
    for iterations in range(1, cfg.max_iters + 1):
        xp = _ipow(x, k - 1)
        y = kernel.apply(x[None, :])[0] + shift * xp
        ratios = y / xp
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        x = _normalized(y ** (1.0 / (k - 1)), k)
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    lam, x, res = _polish(g, x)
    return EigenResult(
        eigenvalue=lam,
        vector=x,
        residual=res,
        iterations=iterations,
        converged=res < RESIDUAL_TOLERANCE,
    )


def brute_force_min(g: Hypergraph, samples: int = 512, refine_iters: int = 2000, seed: int = 0) -> EigenResult:
    """Independent oracle: exhaustive sign patterns on sampled magnitude
    profiles, best candidate polished by the same descent.

    For each sampled magnitude profile the form is linear in the edge signs,
    so all 2^n sign choices are scored exactly in one matrix product.
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

    candidates = []
    profiles = [np.ones(n)] + [rng.uniform(0.05, 1.0, n) for _ in range(samples - 1)]
    for mag in profiles:
        mag = _normalized(mag, k)
        w = np.prod(mag[edge], axis=1)
        scores = k * (w @ edge_signs)
        t = int(np.argmin(scores))
        candidates.append((float(scores[t]), mag * (1 - 2 * bits[:, t])))
    # descend from the several best starts; a single start can stall in a
    # local minimum even when the sampled value itself is the lowest
    candidates.sort(key=lambda pair: pair[0])
    starts = np.stack([x for _, x in candidates[:8]])
    lam, x, res, iterations = _descend_batch(g, starts, refine_iters, 1e-10)
    return EigenResult(
        eigenvalue=lam,
        vector=x,
        residual=res,
        iterations=iterations,
        converged=res < RESIDUAL_TOLERANCE,
    )


def branch_contribution(g: Hypergraph, x, branch_edges, root: int) -> float:
    """Sum of the full vertex products x^e over branch edges through root.

    For a first eigenvector of a graph glued from a host and a branch this
    quantity is nonpositive; tests rely on that sign.
    """
    x = _as_vector(g, x)
    edge_set = set(g.edges)
    total = 0.0
    for e in branch_edges:
        t = tuple(sorted(int(v) for v in e))
        if t not in edge_set:
            raise ValueError(f"{t} is not an edge of the graph")
        if root not in t:
            raise ValueError(f"edge {t} does not contain the root {root}")
        total += float(np.prod(x[list(t)]))
    return total


@dataclass(frozen=True, eq=False)
class TransportResult:
    """A candidate vector carried across a relocation, with the bookkeeping
    the comparison argument needs."""

    vector: np.ndarray
    case: str
    scale: float
    host_contribution: float


def transport_vector(x, relo: Relocation, case: str | None = None) -> TransportResult:
    """Carry a vector on the before-graph to the after-graph of a relocation.

    With s = |x_{v1}/x_{v2}| (requires |x_{v1}| >= |x_{v2}|), the branch part
    is scaled by s when x_{v2} > 0 ("positive"), copied unchanged when
    x_{v2} = 0 ("zero"), and scaled by -s when x_{v2} < 0 ("negative"), after
    flipping the whole vector to make x_{v1} nonnegative if needed (k is
    even, so the flip changes nothing measurable).  Also reports the sum of
    host-edge products at the detachment vertex.
    """
    g = relo.before
    x = _as_vector(g, x)
    xv1, xv2 = float(x[relo.v1]), float(x[relo.v2])
    if abs(xv1) < abs(xv2):
        raise ValueError(
            f"transport requires |x[v1]| >= |x[v2]|, got |{xv1}| < |{xv2}|"
        )
    if xv1 < 0.0:
        x = -x
        xv1, xv2 = -xv1, -xv2
    detected = "positive" if xv2 > 0.0 else ("negative" if xv2 < 0.0 else "zero")
    if case is None:
        case = detected
    elif case not in ("positive", "zero", "negative"):
        raise ValueError(f"unknown case {case!r}")
    elif case != detected:
        raise ValueError(f"requested case {case!r} but x[v2] makes it {detected!r}")
    out = x.copy()
    branch = list(relo.branch_vertices)
    if case == "positive":
        scale = xv1 / xv2
        out[branch] = scale * x[branch]
    elif case == "negative":
        scale = -xv1 / xv2
        out[branch] = -scale * x[branch]
    else:
        scale = 1.0
    host_sum = 0.0
    for e in relo.host_root_edges_before():
        host_sum += float(np.prod(x[list(e)]))
    return TransportResult(vector=out, case=case, scale=scale, host_contribution=host_sum)
