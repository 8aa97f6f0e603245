"""Bounded maximization of predicted recovery.

Three search strategies run under one budget handler, which evaluates
through a budgeted, trace-recording objective wrapper until the budget
is spent: particle swarm (inertia plus cognitive and social pulls with
fresh uniform diagonal matrices every iteration), differential evolution
(rand/1 mutation, per-dimension crossover, strictly greedy selection),
and Bayesian optimization (Matern-5/2 Gaussian process surrogate with
expected improvement; its likelihood fit and its acquisition polish
follow analytic gradients through one in-house bounded quasi-Newton
minimizer, on numpy alone). All candidates are clamped to the search box
before evaluation, and the wrapper asserts feasibility, counts
evaluations against the budget, and keeps the best-so-far record.

The Bayesian searches of several wells run in lockstep: each step fits
the likelihoods of all of them in one minimizer call and polishes their
acquisitions in another, which shares the numpy call overhead that
dominates small surrogates. Every search keeps its bits: the rows of the
minimizer never mix, and the products with a well's own targets are
taken over that well's rows alone. A lockstep group's likelihood arrays,
starts x n x n, stay within max(4 n^2, _LOCKSTEP_CELLS) cells, so at
large budgets the searches go one at a time and need no more memory
than one search alone.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field

import numpy as np

from welloop.data import INTEGER_FACTORS, WellTable
from welloop.trees import _BLOCK_CELLS, as_predictor
from welloop.utils import fmt, is_number, raise_first, range_problems, subseed_rng, write_rows

_PSO_TAG = 51
_DE_TAG = 52
_BO_TAG = 53
_SWARM_SIZE = 10
_DE_SIZE = 10
_DE_AMPLIFICATION = 0.8
_DE_CROSSOVER = 0.7
_BO_INIT = 8  # Latin-hypercube points before the surrogate takes over
_GP_NOISE = 1e-6
_JITTERS = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)
_LML_STARTS = 4  # likelihood starts per surrogate fit
# the cells a lockstep group's likelihood stack may hold; from n = 46 on, one
# search's 4 n^2 is more, and the searches go one at a time
_LOCKSTEP_CELLS = _BLOCK_CELLS // 2
_BLOCK = 32  # triangular factors up to this order are inverted in one LAPACK call
_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class SurrogateError(RuntimeError):
    """The Gaussian process Gram matrix stayed non-positive-definite even
    after jitter escalation."""


class BudgetExhausted(Exception):
    """Internal signal: the evaluation budget ran out mid-search."""


@dataclass(frozen=True)
class BoundedVariable:
    name: str
    lower: float
    upper: float

    def __post_init__(self):
        raise_first(range_problems(self.lower, self.upper, self.name))


@dataclass
class SearchProblem:
    """A bounded maximization problem with an evaluation budget."""

    objective: object
    variables: tuple
    budget: int

    def __post_init__(self):
        self.variables = tuple(self.variables)
        if not self.variables:
            raise ValueError("need at least one variable")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    @property
    def dim(self) -> int:
        return len(self.variables)

    @property
    def lower(self) -> np.ndarray:
        return np.array([v.lower for v in self.variables])

    @property
    def upper(self) -> np.ndarray:
        return np.array([v.upper for v in self.variables])


@dataclass
class TraceEntry:
    index: int
    point: np.ndarray
    value: float


@dataclass
class Trace:
    """Complete evaluation record of one search run."""

    entries: list = field(default_factory=list)
    truncated: bool = False
    iteration_log: list = field(default_factory=list)

    @property
    def values(self) -> np.ndarray:
        return np.array([e.value for e in self.entries])

    def best_so_far(self) -> np.ndarray:
        return np.maximum.accumulate(self.values)

    def best(self) -> TraceEntry:
        if not self.entries:
            raise ValueError("trace is empty")
        values = self.values
        return self.entries[int(np.argmax(values))]

    def write_csv(self, path, variable_names) -> None:
        rows = (
            [e.index] + [fmt(v) for v in e.point] + [fmt(e.value), fmt(b)]
            for e, b in zip(self.entries, self.best_so_far())
        )
        write_rows(path, ["evaluation", *variable_names, "value", "best_so_far"], rows)


class _Evaluator:
    """Budgeted objective wrapper; every call is checked (a finite point
    inside the bounds, a finite value), recorded, and counted. Raising
    BudgetExhausted stops the surrounding search."""

    def __init__(self, problem: SearchProblem):
        self.problem = problem
        self.lower = problem.lower
        self.upper = problem.upper
        self.trace = Trace()

    def __call__(self, u) -> float:
        if len(self.trace.entries) >= self.problem.budget:
            self.trace.truncated = True
            raise BudgetExhausted
        u = np.asarray(u, dtype=float).reshape(-1)
        # NaN compares false both ways, so it is refused before the bounds
        if not np.all(np.isfinite(u)):
            raise ValueError(f"evaluation point {u} is not finite")
        if np.any(u < self.lower) or np.any(u > self.upper):
            raise ValueError(f"evaluation point {u} violates the bounds")
        value = float(self.problem.objective(u))
        if not math.isfinite(value):
            raise ValueError(f"objective value {value} at evaluation point {u} is not finite")
        self.trace.entries.append(
            TraceEntry(index=len(self.trace.entries), point=u.copy(), value=value)
        )
        return value


def _search(problems, start, step):
    """The budget handler every search runs under, over one problem or
    several in lockstep: `start(i, ev)` evaluates problem i's initial
    design, `ev` being its budgeted objective, then `step(evs)`, which
    evaluates at least once for every problem, repeats until the budgets,
    all equal, are spent. A budget that runs out mid-start or mid-step
    marks that trace truncated. Returns (best point, trace) per problem."""
    evs = [_Evaluator(p) for p in problems]
    for i, ev in enumerate(evs):
        with contextlib.suppress(BudgetExhausted):
            start(i, ev)
    with contextlib.suppress(BudgetExhausted):
        while len(evs[0].trace.entries) < evs[0].problem.budget:
            step(evs)
    return [(ev.trace.best().point.copy(), ev.trace) for ev in evs]


def _start_population(rng, problem: SearchProblem, size: int, initial):
    """`size` uniform points in the box; `initial`, when given, pins the
    first point, clamped to the box."""
    lower, upper = problem.lower, problem.upper
    points = lower + rng.random((size, problem.dim)) * (upper - lower)
    if initial is not None:
        points[0] = np.clip(np.asarray(initial, dtype=float), lower, upper)
    return points


# --- particle swarm ------------------------------------------------------------


@dataclass
class SwarmState:
    positions: np.ndarray
    velocities: np.ndarray
    personal_best_positions: np.ndarray
    personal_best_values: np.ndarray
    global_best_position: np.ndarray
    global_best_value: float
    inertia: float = 0.729
    cognitive: float = 1.494
    social: float = 1.494


def pso_move(state: SwarmState, lower, upper, rng) -> None:
    """One velocity-and-position update of the whole swarm, in place.

    Each particle blends its previous velocity (inertia) with pulls
    toward its personal best and the global best, both scaled by fresh
    per-dimension standard-uniform draws, then moves and is clamped to
    the box. No objective evaluation happens here.
    """
    p_count, dim = state.positions.shape
    for p in range(p_count):
        d1 = rng.random(dim)
        d2 = rng.random(dim)
        state.velocities[p] = (
            state.inertia * state.velocities[p]
            + state.cognitive * d1 * (state.personal_best_positions[p] - state.positions[p])
            + state.social * d2 * (state.global_best_position - state.positions[p])
        )
        state.positions[p] = np.clip(
            state.positions[p] + state.velocities[p], lower, upper
        )


def pso(problem: SearchProblem, seed: int = 0, initial=None):
    """Particle swarm maximization with _SWARM_SIZE particles and
    SwarmState's coefficients; returns (best point, trace).

    `initial` may pin the first particle. Personal and global bests only
    move on strict improvement, so the global best value never decreases.
    """
    rng = subseed_rng(seed, _PSO_TAG)
    lower, upper = problem.lower, problem.upper

    positions = _start_population(rng, problem, _SWARM_SIZE, initial)
    state = SwarmState(
        positions=positions,
        velocities=np.zeros((_SWARM_SIZE, problem.dim)),
        personal_best_positions=positions.copy(),
        personal_best_values=np.full(_SWARM_SIZE, -np.inf),
        global_best_position=positions[0].copy(),
        global_best_value=-np.inf,
    )

    def evaluate_swarm(ev):
        for p in range(_SWARM_SIZE):
            value = ev(state.positions[p])
            if value > state.personal_best_values[p]:
                state.personal_best_values[p] = value
                state.personal_best_positions[p] = state.positions[p].copy()
        best = int(np.argmax(state.personal_best_values))
        if state.personal_best_values[best] > state.global_best_value:
            state.global_best_value = float(state.personal_best_values[best])
            state.global_best_position = state.personal_best_positions[best].copy()

    def step(ev):
        pso_move(state, lower, upper, rng)
        evaluate_swarm(ev)
        ev.trace.iteration_log.append(
            {
                "personal_best_values": state.personal_best_values.copy(),
                "global_best_value": state.global_best_value,
            }
        )

    return _search([problem], lambda _, ev: evaluate_swarm(ev), lambda evs: step(*evs))[0]


# --- differential evolution -----------------------------------------------------


def de_trial(population, p, amplification, crossover_rate, lower, upper, rng):
    """Build member p's trial vector: three distinct donors (never p)
    form the clamped mutant, then each dimension takes the mutant value
    when a uniform draw does not exceed the crossover rate."""
    pop = np.asarray(population, dtype=float)
    count, dim = pop.shape
    candidates = np.array([i for i in range(count) if i != p])
    p1, p2, p3 = rng.choice(candidates, size=3, replace=False)
    mutant = pop[p1] + amplification * (pop[p2] - pop[p3])
    mutant = np.clip(mutant, lower, upper)
    cross = rng.random(dim) <= crossover_rate
    return np.where(cross, mutant, pop[p])


def de(problem: SearchProblem, seed: int = 0, initial=None):
    """Differential evolution maximization with _DE_SIZE members,
    amplification _DE_AMPLIFICATION and crossover rate _DE_CROSSOVER;
    returns (best point, trace).

    `initial` may pin the first member. Selection is strictly greedy: a
    trial replaces its parent only when it scores strictly higher, so
    each member's value never decreases.
    """
    rng = subseed_rng(seed, _DE_TAG)
    lower, upper = problem.lower, problem.upper

    population = _start_population(rng, problem, _DE_SIZE, initial)
    fitness = np.full(_DE_SIZE, -np.inf)

    def start(ev):
        for p in range(_DE_SIZE):
            fitness[p] = ev(population[p])

    def step(ev):
        # every trial of a generation draws its donors from the generation
        # before; a member's own fitness is read only by its own trial
        parents = population.copy()
        for p in range(_DE_SIZE):
            trial = de_trial(parents, p, _DE_AMPLIFICATION, _DE_CROSSOVER, lower, upper, rng)
            value = ev(trial)
            if value > fitness[p]:
                population[p] = trial
                fitness[p] = value
        ev.trace.iteration_log.append({"member_values": fitness.copy()})

    return _search([problem], lambda _, ev: start(ev), lambda evs: step(*evs))[0]


# --- Bayesian optimization --------------------------------------------------------


def _chol(a):
    """Lower Cholesky factor of the symmetric matrix a, or of each matrix
    of a stack (..., n, n), from one np.linalg.cholesky call. A matrix
    that is not positive definite raises np.linalg.LinAlgError; in a
    stack, any one such matrix makes the whole call raise."""
    return np.linalg.cholesky(a)


def _inv_lower(low):
    """Inverse of the lower-triangular matrix low, or of each matrix of a
    stack. numpy has no triangular inverse, and its general one does
    several times the work, so a matrix of more than _BLOCK rows is split
    in halves: [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]."""
    n = low.shape[-1]
    if n <= _BLOCK:
        return np.linalg.inv(low)
    h = n // 2
    a_inv = _inv_lower(low[..., :h, :h])
    d_inv = _inv_lower(low[..., h:, h:])
    inv = np.zeros_like(low)
    inv[..., :h, :h] = a_inv
    inv[..., h:, h:] = d_inv
    inv[..., h:, :h] = -(d_inv @ low[..., h:, :h]) @ a_inv
    return inv


def _inverse(low):
    """K^-1 = L^-T L^-1 from the lower Cholesky factor low of K, or from
    each factor of a stack (..., n, n)."""
    inv_low = _inv_lower(low)
    return np.swapaxes(inv_low, -1, -2) @ inv_low


def _chol_each(grams):
    """Lower Cholesky factors of a stack of symmetric matrices, and the
    mask of those that are positive definite; each of the others gets the
    identity in place of a factor. One call factors the whole stack; only
    when that raises is each matrix factored alone."""
    try:
        return _chol(grams), np.ones(len(grams), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    lows = np.empty_like(grams)
    ok = np.ones(len(grams), dtype=bool)
    for i, gram in enumerate(grams):
        try:
            lows[i] = _chol(gram)
        except np.linalg.LinAlgError:
            lows[i], ok[i] = np.eye(len(gram)), False
    return lows, ok


# The stopping rules of L-BFGS-B at scipy's defaults: a projected gradient of
# at most _PGTOL, or a step that lowers the value by at most _FTOL relative
# to it (factr 1e7 times the machine epsilon).
_PGTOL = 1e-5
_FTOL = 2.2e-9
_MAX_ITER = 200
_ARMIJO = 1e-4  # sufficient-decrease constant of the backtracking search
_MAX_HALVINGS = 40
_TINY = float(np.finfo(float).tiny)


def _minimize_box(fun, starts, lower, upper):
    """Minimize fun over the box [lower, upper] from each row of starts by
    projected quasi-Newton steps (Nocedal & Wright, Numerical
    Optimization, 2nd ed., 16.7). Each row keeps its own BFGS Hessian
    estimate B, moves only the variables whose projected gradient is
    nonzero, by the Newton step of B restricted to them, and halves that
    step along the projected path until the Armijo condition holds. B
    takes a damped update (N & W, procedure 18.2), so it stays positive
    definite without a curvature condition on the step. A row stops on
    its own: at a projected gradient of at most _PGTOL, after a step that
    lowers its value by at most _FTOL relative to it, when neither the
    full step nor any of its _MAX_HALVINGS halvings decreases its value,
    or after _MAX_ITER steps.

    The rows move in lockstep: fun(x, rows) maps an (m, d) array of
    points, the rows of starts numbered `rows` came from, to their m
    values and (m, d) gradients. It is called once per step and halving
    with the rows still moving, in the order of starts, and a row's value
    and gradient must not depend on the other rows. Returns the final
    points and their values."""
    x = np.minimum(np.maximum(np.array(starts, dtype=float), lower), upper)
    count, dim = x.shape
    eye = np.eye(dim)
    rows = np.arange(count)  # the start each moving row came from
    f, g = fun(x, rows)
    final_x, final_f = x.copy(), f.copy()
    # the first step of each row is at most of unit length; B is rescaled
    # to the measured curvature before its first update (N & W eq. 6.20)
    b = eye * np.maximum(1.0, np.sqrt((g * g).sum(axis=1)))[:, None, None]
    scaled = np.zeros(count, dtype=bool)
    done = np.zeros(count, dtype=bool)
    for _ in range(_MAX_ITER):
        gap = np.minimum(np.maximum(x - g, lower), upper) - x
        going = (np.abs(gap).max(axis=1) > _PGTOL) & ~done
        if not going.all():
            final_x[rows], final_f[rows] = x, f
            x, f, g, gap, b, scaled, rows = (
                v[going] for v in (x, f, g, gap, b, scaled, rows)
            )
            if not len(rows):
                break
        # B on the free variables and the identity on the others, whose
        # step is then zero
        free = gap != 0.0
        reduced = np.where(free[:, :, None] & free[:, None, :], b, eye)
        step = np.linalg.solve(reduced, np.where(free, -g, 0.0)[:, :, None])[:, :, 0]
        x1, f1, g1 = _line_search(fun, x, f, g, step, rows, lower, upper)
        done = (f - f1) <= _FTOL * np.maximum(np.maximum(np.abs(f), np.abs(f1)), 1.0)
        s, y = x1 - x, g1 - g
        sy = (s * y).sum(axis=1)
        first = ~scaled & (sy > 0.0)
        if first.any():
            b[first] = eye * ((y * y).sum(axis=1)[first] / sy[first])[:, None, None]
            scaled |= first
        # the denominators are floored for the rows that did not move
        bs = (b @ s[:, :, None])[:, :, 0]
        sbs = np.maximum((s * bs).sum(axis=1), _TINY)
        damp = (0.8 * sbs / np.maximum(sbs - sy, 0.8 * sbs))[:, None]
        r = damp * y + (1.0 - damp) * bs
        sr = np.maximum((s * r).sum(axis=1), _TINY)
        b += (
            r[:, :, None] * r[:, None, :] / sr[:, None, None]
            - bs[:, :, None] * bs[:, None, :] / sbs[:, None, None]
        )
        x, f, g = x1, f1, g1
    final_x[rows], final_f[rows] = x, f
    return final_x, final_f


def _line_search(fun, x, f, g, step, rows, lower, upper, t=1.0):
    """Armijo backtracking along the projected path from each row of x,
    which came from the start numbered in `rows`, in lockstep: one fun
    call takes every row's trial point x + t step, clamped to the box; a
    row whose value drops enough keeps it, and the others try again at
    half of t. From the full step (t = 1), a row that finds no decrease
    in _MAX_HALVINGS halvings keeps its point. Returns the rows' new
    points, values and gradients, written into the arrays of the first
    trial."""
    trial = np.minimum(np.maximum(x + t * step, lower), upper)
    ft, gt = fun(trial, rows)
    ok = ft <= f + _ARMIJO * np.minimum(((trial - x) * g).sum(axis=1), 0.0)
    if not ok.all():
        short = ~ok
        if t > 0.5**_MAX_HALVINGS:
            back = _line_search(
                fun, x[short], f[short], g[short], step[short], rows[short], lower, upper, 0.5 * t
            )
        else:
            back = x[short], f[short], g[short]
        trial[short], ft[short], gt[short] = back
    return trial, ft, gt


def _improvement(mu, sigma, best):
    """Expected improvement over the incumbent best, for maximization,
    with the weights of its gradient: returns (ei, cdf, pdf) such that
    d ei = cdf * d mu + pdf * d sigma, where cdf = Phi(g), pdf = phi(g)
    and g = (mu - best) / sigma, Phi(g) being erfc(-g / sqrt 2) / 2. Where
    sigma vanishes, ei is max(mu - best, 0), cdf is its slope in mu and
    pdf is 0."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    out = np.array(np.maximum(mu - best, 0.0), dtype=float)
    cdf = np.array(mu > best, dtype=float)
    pdf = np.zeros_like(out)
    live = sigma > 1e-12
    if np.any(live):
        g = (mu[live] - best) / sigma[live]
        cdf[live] = [0.5 * math.erfc(-z / _SQRT_2) for z in g.tolist()]
        pdf[live] = np.exp(-g**2 / 2.0) / _SQRT_2PI
        out[live] = sigma[live] * (g * cdf[live] + pdf[live])
    return out, cdf, pdf


def _latin_hypercube(rng, n, d):
    """n points of a scrambled Latin hypercube in [0, 1)^d, bit for bit
    those of scipy.stats.qmc.LatinHypercube(d=d, seed=rng).random(n): one
    child generator spawned from rng draws the offsets within each cell,
    then shuffles the cells of each dimension. rng itself does not advance."""
    child = rng.spawn(1)[0]
    u = child.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for cells in perms:
        child.shuffle(cells)
    return (perms.T - u) / n


def _matern52(dists, length_scale, signal_var):
    a = math.sqrt(5.0) * dists / length_scale
    return signal_var * (1.0 + a + a * a / 3.0) * np.exp(-a)


def _distances(a, b):
    """Euclidean distances between the rows of a and the rows of b."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _chol_with_jitter(gram):
    for jitter in _JITTERS:
        try:
            return _chol(gram + jitter * np.eye(gram.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise SurrogateError("surrogate ill-conditioned")


class _GaussianProcess:
    """Matern-5/2 GPs, one per well, on inputs scaled to the unit box;
    outputs are standardized internally and the noise variance is pinned
    at 1e-6. Each well's length scale and signal variance maximize its log
    marginal likelihood from _LML_STARTS seeded starts.

    A leading wells axis: x01 is (wells, n, d) and y is (wells, n), every
    well holding n points, with one generator per well. The starts of all
    wells descend in one lockstep minimizer, and every number a well gets
    is the one it gets when fitted alone."""

    def __init__(self, x01, y, rngs):
        self.x = np.asarray(x01, dtype=float)
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ValueError("surrogate targets must be finite")
        # each well's scalars as a float, as one well alone computes them
        self.y_mean = [float(v.mean()) for v in y]
        self.y_sd = [float(v.std()) or 1.0 for v in y]
        self.yn = (y - np.array(self.y_mean)[:, None]) / np.array(self.y_sd)[:, None]
        self.dists = np.array([_distances(x, x) for x in self.x])
        # the likelihood's fixed terms, computed once for all its calls
        self._root5_dists = math.sqrt(5.0) * self.dists
        self._noise = _GP_NOISE * np.eye(y.shape[1])
        self._fit(rngs)

    def _neg_lml(self, log_params, wells):
        """Negative log marginal likelihood of well wells[i] at row i of
        (log length scale, log signal variance), and its gradient
        0.5 tr((K^-1 - alpha alpha^T) dK) per parameter, alpha = K^-1 y
        (Rasmussen & Williams 2006, eq. 5.9). With a = sqrt(5) d / l,
        dK / dlog l is s2 a^2 (1 + a) / 3 exp(-a) and dK / dlog s2 the
        signal part of K. `wells` does not decrease: a well's rows are
        adjacent, and the wells in order.

        An (m, 2) stack of parameters gives m values and (m, 2)
        gradients from one factorization of the m Gram matrices. Where K
        does not factor, the value is 1e12 and the gradient zero: a flat
        wall the minimizer backs off from. The products with a well's y
        are taken over that well's rows alone, as BLAS gives a row other
        last bits when more rows share the call."""
        ell, sig2 = np.exp(log_params).T
        n = self.yn.shape[1]
        # the (m, n, n) terms are made in place, and those the gradient
        # does not need are let go before the factorization
        a = self._root5_dists[wells]
        a /= ell[:, None, None]
        decay = np.negative(a)
        np.exp(decay, out=decay)
        decay *= sig2[:, None, None]  # s2 exp(-a)
        one_a = 1.0 + a
        a *= a
        a /= 3.0  # a^2 / 3
        signal = one_a + a
        signal *= decay
        d_log_ell = decay * a
        d_log_ell *= one_a
        del a, decay, one_a
        low, ok = _chol_each(signal + self._noise)
        k_inv = _inverse(low)
        alpha = np.empty((len(ell), n))
        fit = np.empty(len(ell))
        ends = np.searchsorted(wells, np.arange(len(self.yn) + 1)).tolist()
        for yn, start, end in zip(self.yn, ends, ends[1:]):
            if start < end:
                alpha[start:end] = k_inv[start:end] @ yn
                fit[start:end] = alpha[start:end] @ yn
        values = (
            0.5 * fit
            + np.log(low.diagonal(axis1=1, axis2=2)).sum(axis=1)
            + 0.5 * n * math.log(2.0 * math.pi)
        )
        inner = alpha[:, :, None] * alpha[:, None, :]
        np.subtract(k_inv, inner, out=inner)
        inner *= 0.5
        grads = np.empty((len(ell), 2))
        grads[:, 0] = np.einsum("mij,mij->m", inner, d_log_ell)
        grads[:, 1] = np.einsum("mij,mij->m", inner, signal)
        values[~ok], grads[~ok] = 1e12, 0.0
        return values, grads

    def _fit(self, rngs):
        lower = np.array([math.log(0.02), math.log(0.05)])
        upper = np.array([math.log(10.0), math.log(50.0)])
        starts = []
        for rng in rngs:
            starts.append([math.log(0.5), 0.0])
            for _ in range(_LML_STARTS - 1):
                starts.append([rng.uniform(lo, hi) for lo, hi in zip(lower, upper)])
        # the starts descend in lockstep; a tie goes to a well's earliest start
        points, values = _minimize_box(
            lambda p, rows: self._neg_lml(p, rows // _LML_STARTS), starts, lower, upper
        )
        self.length_scale, self.signal_var, self._k_inv, self._alpha = [], [], [], []
        for w, dists in enumerate(self.dists):
            mine = slice(w * _LML_STARTS, (w + 1) * _LML_STARTS)
            ell, sig2 = np.exp(points[mine][np.argmin(values[mine])])
            gram = _matern52(dists, ell, sig2)
            k_inv = _inverse(_chol_with_jitter(gram + self._noise))
            self.length_scale.append(ell)
            self.signal_var.append(sig2)
            self._k_inv.append(k_inv)
            self._alpha.append(k_inv @ self.yn[w])

    def _posterior(self, w, q):
        """Well w's posterior mean and sd at the rows of q, with the
        distances to the data and v = K^-1 k that the gradient reuses."""
        dists = _distances(q, self.x[w])
        cross = _matern52(dists, self.length_scale[w], self.signal_var[w])
        mu_n = cross @ self._alpha[w]
        v = self._k_inv[w] @ cross.T
        var = self.signal_var[w] - np.einsum("ij,ji->i", cross, v)
        var = np.clip(var, 0.0, None)
        mu = mu_n * self.y_sd[w] + self.y_mean[w]
        sigma = np.sqrt(var) * self.y_sd[w]
        return mu, sigma, dists, v

    def predict_gradient(self, w, q01):
        """Well w's posterior mean and sd at one point, each with its
        gradient in q01. With a = sqrt(5) d / l, dk_i / dq is
        -s2 5 / (3 l^2) (1 + a_i) exp(-a_i) (q - x_i); then
        dmu = y_sd alpha^T dk and, as sigma = y_sd sqrt(var),
        dsigma = -y_sd^2 v^T dk / sigma, taken as 0 where sigma is 0."""
        q = np.asarray(q01, dtype=float).reshape(1, -1)
        mu, sigma, dists, v = self._posterior(w, q)
        ell, sig2, y_sd = self.length_scale[w], self.signal_var[w], self.y_sd[w]
        a = math.sqrt(5.0) * dists[0] / ell
        slope = -sig2 * 5.0 / (3.0 * ell**2) * (1.0 + a) * np.exp(-a)
        d_cross = slope[:, None] * (q - self.x[w])
        d_mu = y_sd * (self._alpha[w] @ d_cross)
        d_sigma = np.zeros(q.shape[1])
        if sigma[0] > 0.0:
            d_sigma = -y_sd**2 * (v[:, 0] @ d_cross) / sigma[0]
        return mu[0], sigma[0], d_mu, d_sigma


def bayes_opt(problems, seeds, initials=None):
    """Gaussian-process maximization of each of `problems`, seeded by the
    matching entry of `seeds`; returns one (best point, trace) per problem.

    Each search starts from a Latin hypercube design of _BO_INIT points
    (its first point pinned to the matching entry of `initials` when that
    is given and not None), then repeatedly fits the surrogate and
    evaluates the point that maximizes expected improvement, found by
    seeded random multistart plus a local bounded polish.

    The searches run in lockstep, so they must share a budget and a
    dimension: each step fits the likelihoods of a group of searches in
    one minimizer call and polishes their candidates in another. A group
    takes as many searches as keep its likelihood stack, starts x n x n
    for n evaluated points, within _LOCKSTEP_CELLS cells, and at least
    one. Every search's trace is bit for bit the one it gets alone.
    """
    problems = list(problems)
    seeds = list(seeds)
    initials = [None] * len(problems) if initials is None else list(initials)
    if not problems:
        raise ValueError("need at least one problem")
    if not len(problems) == len(seeds) == len(initials):
        raise ValueError("need one seed, and one initial point if any, per problem")
    if len({(p.budget, p.dim) for p in problems}) > 1:
        raise ValueError("lockstep searches need equal budgets and dimensions")
    dim = problems[0].dim
    rngs = [subseed_rng(seed, _BO_TAG) for seed in seeds]
    designs = []  # each search's initial unit-box design
    for problem, rng, initial in zip(problems, rngs, initials):
        points01 = _latin_hypercube(rng, _BO_INIT, dim)
        if initial is not None:
            initial = np.asarray(initial, dtype=float).reshape(-1)
            span = problem.upper - problem.lower
            points01[0] = np.clip((initial - problem.lower) / span, 0.0, 1.0)
        designs.append(points01)
    x01 = [[] for _ in problems]  # the unit-box points evaluated, in trace order

    def evaluate01(i, ev, q01):
        lower, upper = ev.lower, ev.upper
        ev(np.clip(lower + np.asarray(q01) * (upper - lower), lower, upper))
        x01[i].append(np.asarray(q01, dtype=float))

    def start(i, ev):
        for q in designs[i]:
            evaluate01(i, ev, q)

    def step_group(evs, group):
        ys = [evs[i].trace.values for i in group]
        gp = _GaussianProcess([x01[i] for i in group], ys, [rngs[i] for i in group])
        best = [y.max() for y in ys]
        screened, screen_best = [], []
        for w, i in enumerate(group):
            candidates = rngs[i].random((256, dim))
            mu, sigma, _, _ = gp._posterior(w, candidates)
            ei = _improvement(mu, sigma, best[w])[0]
            screened.append(candidates[int(np.argmax(ei))])
            screen_best.append(max(ei.max(), 0.0))

        def neg_ei(q, rows):
            values, grads = np.empty(len(q)), np.empty(q.shape)
            for k, w in enumerate(rows):
                mu, sigma, d_mu, d_sigma = gp.predict_gradient(w, q[k])
                ei, cdf, pdf = _improvement(mu, sigma, best[w])
                values[k], grads[k] = -ei, -(cdf * d_mu + pdf * d_sigma)
            return values, grads

        polished, values = _minimize_box(neg_ei, screened, np.zeros(dim), np.ones(dim))
        for w, i in enumerate(group):
            pick = polished[w] if values[w] <= -screen_best[w] else screened[w]
            evaluate01(i, evs[i], np.clip(pick, 0.0, 1.0))

    def step(evs):
        n = len(x01[0])
        size = max(1, _LOCKSTEP_CELLS // (_LML_STARTS * n * n))
        for first in range(0, len(evs), size):
            step_group(evs, range(first, min(first + size, len(evs))))

    return _search(problems, start, step)


# --- closed-loop well optimization -------------------------------------------------


@dataclass
class WellOptimization:
    """Outcome of re-optimizing one well's engineering parameters."""

    variable_names: tuple
    original: np.ndarray
    optimized: np.ndarray
    original_eur: float
    optimized_eur: float
    method: str
    trace: Trace
    bounds: dict  # variable -> (lower, upper) the search ran within

    def to_json(self) -> dict:
        """The result record; `radar` gives each variable's original and
        optimized values scaled to the bounds the search ran within."""
        radar = []
        for name, orig, opt in zip(self.variable_names, self.original, self.optimized):
            lo, hi = self.bounds[name]
            radar.append(
                {
                    "variable": name,
                    "original_norm": float((orig - lo) / (hi - lo)),
                    "optimized_norm": float((opt - lo) / (hi - lo)),
                }
            )
        return {
            "method": self.method,
            "variables": list(self.variable_names),
            "original": [float(v) for v in self.original],
            "optimized": [float(v) for v in self.optimized],
            "original_eur": float(self.original_eur),
            "optimized_eur": float(self.optimized_eur),
            "evaluations": len(self.trace.entries),
            "truncated": self.trace.truncated,
            "radar": radar,
        }


# method -> name of its search function, looked up at each call so that a
# wrapper set on the module attribute (loopbench's tracing probes) sees it
_SEARCHES = {"pso": "pso", "de": "de", "bayes": "bayes_opt"}
METHODS = tuple(_SEARCHES)


def design_problems(factors, variables, bounds, where="") -> list[str]:
    """The problems of a design search's variables and bounds: each
    variable must be flagged optimizable, each bound must be on a
    variable the search varies, and each must be a pair [lower, upper]
    that _bound_problems passes. `factors` maps the names of the factors a
    search may name to their FactorSpec; names outside it are the
    caller's to report, and their pairs are still checked. Each problem
    is placed at `where`, the path of the section that holds `variables`
    and `bounds`, or at their own names when it is empty."""
    at = f"{where}." if where else ""
    problems = [
        f"{at}variables: {name!r} is not flagged optimizable"
        for name in variables
        if isinstance(name, str) and name in factors and not factors[name].optimizable
    ]
    for name, pair in bounds.items():
        if name in factors and name not in variables:
            problems.append(f"{at}bounds: {name!r} is not searched")
        problems += [f"{at}bounds.{name}: {problem}" for problem in _bound_problems(name, pair)]
    return problems


def _bound_problems(name, pair) -> list[str]:
    """The problems of searching `name` between the two ends of `pair`:
    two finite numbers over a range that range_problems passes, with two
    whole numbers between them for one of INTEGER_FACTORS, which is
    searched between the outermost integers inside its bounds."""
    if not (isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(is_number, pair))):
        return ["expected [lower, upper]"]
    lower, upper = map(float, pair)
    problems = range_problems(lower, upper)
    if not problems and name in INTEGER_FACTORS and not math.ceil(lower) < math.floor(upper):
        problems.append("needs two whole numbers between lower and upper")
    return problems


def optimize_wells(
    model,
    table: WellTable,
    rows,
    variables,
    method: str = "pso",
    budget: int = 400,
    bounds: dict | None = None,
    seeds=None,
) -> list[WellOptimization]:
    """Search the given engineering parameters of each well in `rows`,
    seeded by the matching entry of `seeds` (0 for every well by default),
    for the design the model rates best, holding every other factor at
    the well's values; returns one WellOptimization per row.

    Only factors flagged optimizable may be varied. Bounds default to each
    variable's observed range. INTEGER_FACTORS are searched continuously
    between the outermost integers inside their bounds, rounded at every
    evaluation, and reported rounded. Each well's own design is always
    evaluated first, so the optimized value can never fall below the
    original. The Bayesian searches of all the wells run in lockstep
    (bayes_opt); each well's outcome is the one it gets alone.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    variables = list(variables)
    if not variables:
        raise ValueError("need at least one variable to optimize")
    bounds = dict(bounds or {})
    feature_names = list(table.feature_names)
    unknown = [v for v in [*variables, *bounds] if v not in feature_names]
    if unknown:
        raise ValueError(f"not model features: {unknown}")
    raise_first(design_problems({s.name: s for s in table.feature_specs}, variables, bounds))
    rows = list(rows)
    seeds = [0] * len(rows) if seeds is None else list(seeds)
    if not rows:
        raise ValueError("need at least one well")
    if len(seeds) != len(rows):
        raise ValueError("need one seed per well")
    for row in rows:
        if not 0 <= row < table.n_rows:
            raise IndexError(f"row {row} outside the table")

    predictor = as_predictor(model)
    table.check_feature_names(model)

    features = table.feature_matrix()
    for row in rows:
        if np.isnan(features[row]).any():
            raise ValueError(f"row {row} still contains missing values")
    col = {name: feature_names.index(name) for name in variables}

    resolved = {}
    for name in variables:
        if name in bounds:
            lo, hi = float(bounds[name][0]), float(bounds[name][1])
        else:
            column = features[:, col[name]]
            lo, hi = float(np.min(column)), float(np.max(column))
        if name in INTEGER_FACTORS:  # the integers inside the bounds
            lo, hi = float(math.ceil(lo)), float(math.floor(hi))
        if not lo < hi:  # an observed range: design_problems passed the given bounds
            raise ValueError(f"degenerate bounds for {name!r}")
        resolved[name] = (lo, hi)
    box = tuple(BoundedVariable(name, *resolved[name]) for name in variables)

    int_mask = np.array([name in INTEGER_FACTORS for name in variables])
    var_cols = np.array([col[name] for name in variables])

    def rounded(u):
        z = np.array(u, dtype=float)
        z[int_mask] = np.round(z[int_mask])
        return z

    def objective_at(x0):
        def objective(u):
            point = np.array(x0)
            point[var_cols] = rounded(u)
            return float(np.asarray(predictor(point[None, :]), dtype=float)[0])

        return objective

    problems = [SearchProblem(objective_at(features[row]), box, budget) for row in rows]
    starts = [np.clip(features[row][var_cols], p.lower, p.upper) for row, p in zip(rows, problems)]
    search = globals()[_SEARCHES[method]]
    if method == "bayes":  # the one search that runs its wells in lockstep
        outcomes = search(problems, seeds, starts)
    else:
        outcomes = [search(p, seed=s, initial=u) for p, s, u in zip(problems, seeds, starts)]
    results = []
    for u0, (_, trace) in zip(starts, outcomes):
        best = trace.best()
        results.append(
            WellOptimization(
                variable_names=tuple(variables),
                original=rounded(u0),
                optimized=rounded(best.point),
                original_eur=float(trace.entries[0].value),
                optimized_eur=float(best.value),
                method=method,
                trace=trace,
                bounds=dict(resolved),
            )
        )
    return results


def optimize_well(
    model,
    table: WellTable,
    row: int,
    variables,
    method: str = "pso",
    budget: int = 400,
    bounds: dict | None = None,
    seed: int = 0,
) -> WellOptimization:
    """optimize_wells for the one well `row`, seeded by `seed`."""
    (result,) = optimize_wells(model, table, [row], variables, method, budget, bounds, [seed])
    return result
