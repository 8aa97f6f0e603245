import csv
import hashlib

import numpy as np
import pytest

import welloop.optimize
from welloop.data import FactorSpec, WellTable, ground_truth_eur, synthesize
from welloop.optimize import (
    METHODS,
    BoundedVariable,
    SearchProblem,
    SurrogateError,
    SwarmState,
    Trace,
    TraceEntry,
    _chol,
    _chol_with_jitter,
    _Evaluator,
    _GaussianProcess,
    _improvement,
    _inverse,
    _latin_hypercube,
    _minimize_box,
    bayes_opt,
    de,
    de_trial,
    design_problems,
    optimize_well,
    optimize_wells,
    pso,
    pso_move,
)
from welloop.trees import HyperParams, fit_rf


def quad_problem(budget=60, center=3.0):
    return SearchProblem(
        objective=lambda u: -float((u[0] - center) ** 2),
        variables=(BoundedVariable("u", 0.0, 6.0),),
        budget=budget,
    )


def sphere_problem(budget=120):
    return SearchProblem(
        objective=lambda u: -float(np.sum((u - 1.0) ** 2)),
        variables=(
            BoundedVariable("a", -4.0, 4.0),
            BoundedVariable("b", -4.0, 4.0),
        ),
        budget=budget,
    )


class OnesRng:
    """Stub generator whose uniform draws are always 1."""

    def random(self, size=None):
        return np.ones(size) if size is not None else 1.0


# --- problem and trace plumbing --------------------------------------------------


def test_problem_and_variable_validation():
    with pytest.raises(ValueError, match="lower must be < upper for 'u'"):
        BoundedVariable("u", 2.0, 1.0)
    for lower, upper in [(-np.inf, 1.0), (0.0, np.inf), (0.0, np.nan)]:
        with pytest.raises(ValueError, match="lower and upper must be finite numbers for 'u'"):
            BoundedVariable("u", lower, upper)
    with pytest.raises(ValueError, match="upper - lower overflows a float for 'u'"):
        BoundedVariable("u", -1.7e308, 1.7e308)
    with pytest.raises(ValueError):
        SearchProblem(lambda u: 0.0, (), budget=5)
    with pytest.raises(ValueError):
        SearchProblem(lambda u: 0.0, (BoundedVariable("u", 0.0, 1.0),), budget=0)
    p = sphere_problem()
    assert p.dim == 2
    assert p.lower.tolist() == [-4.0, -4.0]
    assert p.upper.tolist() == [4.0, 4.0]


def test_evaluator_refuses_non_finite_points_and_values():
    """NaN passes both halves of a bounds test, and Trace.best would then
    return it, as np.argmax stops at the first NaN: a non-finite point or
    value is refused and nothing is recorded."""
    values = iter([float("nan"), float("-inf")])
    problem = SearchProblem(
        objective=lambda u: next(values),
        variables=(BoundedVariable("a", 0.0, 1.0), BoundedVariable("b", 0.0, 1.0)),
        budget=10,
    )
    ev = _Evaluator(problem)
    for point in ([np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5]):
        with pytest.raises(ValueError, match="is not finite"):
            ev(point)
    with pytest.raises(ValueError, match="violates the bounds"):
        ev([1.5, 0.5])
    for _ in range(2):
        with pytest.raises(ValueError, match=r"objective value -?(nan|inf) at .* is not finite"):
            ev([0.5, 0.5])
    assert ev.trace.entries == []


def test_trace_accessors_and_csv(tmp_path):
    trace = Trace(
        entries=[
            TraceEntry(0, np.array([1.0]), 5.0),
            TraceEntry(1, np.array([2.0]), 3.0),
            TraceEntry(2, np.array([0.5]), 7.0),
        ]
    )
    assert trace.values.tolist() == [5.0, 3.0, 7.0]
    assert trace.best_so_far().tolist() == [5.0, 5.0, 7.0]
    assert trace.best().index == 2
    path = tmp_path / "trace.csv"
    trace.write_csv(path, variable_names=["depth"])
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["evaluation", "depth", "value", "best_so_far"]
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert float(rows[2][3]) == 5.0
    assert Trace().truncated is False
    with pytest.raises(ValueError):
        Trace().best()


# --- particle swarm ------------------------------------------------------------


def test_pso_move_hand_step():
    state = SwarmState(
        positions=np.array([[2.0], [0.0]]),
        velocities=np.array([[1.0], [0.0]]),
        personal_best_positions=np.array([[3.0], [0.0]]),
        personal_best_values=np.array([0.0, 0.0]),
        global_best_position=np.array([5.0]),
        global_best_value=0.0,
        inertia=0.5,
        cognitive=1.0,
        social=1.0,
    )
    pso_move(state, np.array([0.0]), np.array([6.0]), OnesRng())
    # particle 0: v = 0.5*1 + (3-2) + (5-2) = 4.5, x = 6.5 clamped to 6
    assert state.velocities[0, 0] == 4.5
    assert state.positions[0, 0] == 6.0
    # particle 1: v = (5-0) = 5, x = 5
    assert state.velocities[1, 0] == 5.0
    assert state.positions[1, 0] == 5.0


def test_pso_global_best_never_decreases():
    _, trace = pso(sphere_problem(), seed=3)
    log = [it["global_best_value"] for it in trace.iteration_log]
    assert all(b >= a for a, b in zip(log, log[1:]))
    for it in trace.iteration_log:
        assert it["personal_best_values"].shape == (10,)


def test_pso_personal_bests_never_decrease():
    _, trace = pso(sphere_problem(), seed=4)
    per = np.array([it["personal_best_values"] for it in trace.iteration_log])
    assert np.all(np.diff(per, axis=0) >= 0)


def test_pso_converges_on_a_quadratic():
    best, trace = pso(quad_problem(budget=200), seed=0)
    assert abs(best[0] - 3.0) <= 1e-2
    assert not trace.truncated


def test_pso_initial_point_is_evaluated_first():
    _, trace = pso(quad_problem(), seed=1, initial=np.array([9.0]))
    assert trace.entries[0].point[0] == 6.0  # clamped into the box
    with pytest.raises(ValueError):
        pso(quad_problem(), initial=np.zeros((3, 1)))


# --- differential evolution ------------------------------------------------------


class DeStubRng:
    def __init__(self, donors, dim_draws):
        self.donors = np.array(donors)
        self.dim_draws = np.array(dim_draws)

    def choice(self, candidates, size, replace):
        assert size == 3 and not replace
        return self.donors

    def random(self, size=None):
        return self.dim_draws


def test_de_trial_hand_step():
    population = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    rng = DeStubRng(donors=[1, 2, 3], dim_draws=[0.0, 1.0])
    trial = de_trial(
        population,
        p=0,
        amplification=0.5,
        crossover_rate=0.7,
        lower=np.array([0.0, 0.0]),
        upper=np.array([3.0, 3.0]),
        rng=rng,
    )
    # mutant = [1,1] + 0.5*([2,2]-[3,3]) = [0.5, 0.5]; dim 0 crosses
    # (0.0 <= 0.7), dim 1 keeps the parent (1.0 > 0.7)
    assert trial.tolist() == [0.5, 0.0]


def test_de_trial_clamps_the_mutant():
    population = np.array([[0.0], [9.0], [9.0], [0.0]])
    rng = DeStubRng(donors=[1, 2, 3], dim_draws=[0.0])
    trial = de_trial(
        population, 0, 2.0, 1.0, np.array([0.0]), np.array([10.0]), rng
    )
    # mutant = 9 + 2*(9-0) = 27, clamped to 10
    assert trial.tolist() == [10.0]


def test_de_trial_never_picks_the_parent(rng):
    population = rng.normal(size=(6, 2))
    seen_parent = False
    for _ in range(50):

        class Probe:
            def choice(self, candidates, size, replace):
                nonlocal seen_parent
                seen_parent = seen_parent or (2 in candidates)
                return np.asarray(candidates)[:3]

            def random(self, size=None):
                return np.zeros(size)

        de_trial(population, 2, 0.5, 0.5, -np.ones(2) * 9, np.ones(2) * 9, Probe())
    assert not seen_parent


def test_de_member_values_never_decrease():
    _, trace = de(sphere_problem(), seed=5)
    per = np.array([it["member_values"] for it in trace.iteration_log])
    assert np.all(np.diff(per, axis=0) >= 0)


def test_de_converges_on_a_quadratic():
    best, trace = de(quad_problem(budget=200), seed=0)
    assert abs(best[0] - 3.0) <= 1e-2


def test_de_initial_and_validation():
    _, trace = de(quad_problem(), seed=1, initial=np.array([-2.0]))
    assert trace.entries[0].point[0] == 0.0  # clamped
    with pytest.raises(ValueError):
        de(quad_problem(), initial=np.zeros((2, 1)))


# --- Bayesian optimization --------------------------------------------------------


def test_expected_improvement_hand_values():
    # gamma = 1: EI = sigma * (Phi(1) + phi(1))
    want = 0.8413447460685429 + 0.24197072451914337
    got = _improvement(np.array([1.0]), np.array([1.0]), 0.0)[0]
    assert got[0] == pytest.approx(want, abs=1e-12)
    # vanishing sigma degenerates to max(mu - best, 0)
    flat = _improvement(np.array([1.0, -1.0]), np.array([0.0, 0.0]), 0.0)[0]
    assert flat.tolist() == [1.0, 0.0]
    mixed = _improvement(
        np.array([1.0, 2.0]), np.array([0.0, 0.5]), 0.0
    )[0]
    assert mixed[0] == 1.0
    assert mixed[1] > 2.0 - 1e-9  # positive sigma only adds value


def test_expected_improvement_matches_the_scipy_normal_formula():
    """The normal cdf is erfc(-g / sqrt 2) / 2 from the math module, not
    scipy's ndtr; the two differ in the last bits at about half of these
    points, by 6.7e-16 at most."""
    from scipy.stats import norm

    mu = np.linspace(-9.0, 9.0, 100_001)
    sigma = np.full_like(mu, 0.7)
    g = (mu - 0.3) / sigma
    want = sigma * (g * norm.cdf(g) + norm.pdf(g))
    np.testing.assert_allclose(_improvement(mu, sigma, 0.3)[0], want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n, d", [(8, 4), (2, 1), (13, 3)])
def test_latin_hypercube_is_scipys_bit_for_bit(n, d):
    from scipy.stats import qmc

    for seed in range(20):
        ours = np.random.default_rng([seed, 53])
        want = qmc.LatinHypercube(d=d, seed=np.random.default_rng([seed, 53])).random(n)
        assert np.array_equal(_latin_hypercube(ours, n, d), want)
        # the design comes from a spawned child; the caller's stream is untouched
        fresh = np.random.default_rng([seed, 53])
        assert ours.bit_generator.state == fresh.bit_generator.state


def test_gaussian_process_reproduces_training_points(rng):
    x01 = np.linspace(0.0, 1.0, 9)[:, None]
    y = np.sin(3.0 * x01[:, 0]) * 2.0 + 1.0
    gp = _GaussianProcess(x01[None], y[None], [rng])
    mu, sigma = gp._posterior(0, x01)[:2]
    assert np.max(np.abs(mu - y)) <= 0.02
    assert np.max(sigma) <= 0.1
    # uncertainty grows away from the data
    far_mu, far_sigma = gp._posterior(0, np.array([[0.055]]))[:2]
    assert far_sigma[0] >= 0.0


def _surrogate(n=12, dim=3, seed=3):
    rng = np.random.default_rng(seed)
    x01 = rng.random((n, dim))
    y = np.sin(4.0 * x01[:, 0]) + x01[:, 1] ** 2 - x01[:, 2]
    return _GaussianProcess(x01[None], y[None], [np.random.default_rng(1)]), x01, y


def _central_difference(f, x, h=1e-6):
    return np.array([(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(x.size)])


@pytest.mark.parametrize("length_scale", [0.02, 0.5, 10.0])
@pytest.mark.parametrize("signal_var", [0.05, 1.0, 50.0])
def test_neg_lml_gradient_matches_central_differences(length_scale, signal_var):
    gp, _, _ = _surrogate()
    at = np.log([length_scale, signal_var])
    values, grads = gp._neg_lml(at[None], [0])
    value, grad = values[0], grads[0]
    assert np.isfinite(value) and grad.shape == (2,)
    want = _central_difference(lambda p: gp._neg_lml(p[None], [0])[0][0], at)
    # at l = 10 the Gram matrix is nearly singular and the differences
    # carry its rounding, so the tolerance is relative to the gradient
    assert np.max(np.abs(grad - want)) <= 1e-4 * max(1.0, np.max(np.abs(want)))


def test_neg_lml_reports_a_failed_factorization_as_a_flat_wall(monkeypatch):
    gp, _, _ = _surrogate()

    def refuse(*args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(welloop.optimize, "_chol", refuse)
    value, grad = gp._neg_lml(np.zeros(2)[None], [0])
    assert value[0] == 1e12
    assert grad[0].tolist() == [0.0, 0.0]


def test_ei_gradient_matches_central_differences_and_the_screen():
    gp, _, y = _surrogate()
    best = float(y.max())

    def ei_at(q):
        mu, sigma = gp._posterior(0, q[None])[:2]
        return _improvement(mu, sigma, best)[0][0]

    for q in np.random.default_rng(7).random((6, 3)):
        mu, sigma, d_mu, d_sigma = gp.predict_gradient(0, q)
        ei, cdf, pdf = _improvement(mu, sigma, best)
        assert ei == ei_at(q)
        grad = cdf * d_mu + pdf * d_sigma
        want = _central_difference(ei_at, q)
        assert np.max(np.abs(grad - want)) <= 1e-6 * max(1.0, np.max(np.abs(want)))


def test_ei_gradient_where_sigma_vanishes_is_that_of_the_plain_improvement():
    mu = np.array([1.0, -1.0])
    ei, cdf, pdf = _improvement(mu, np.zeros(2), 0.0)
    assert ei.tolist() == [1.0, 0.0]
    assert pdf.tolist() == [0.0, 0.0]
    slope = _central_difference(lambda m: _improvement(m, np.zeros(2), 0.0)[0].sum(), mu)
    assert cdf == pytest.approx(slope, abs=1e-9)
    # a surrogate whose posterior variance clips to zero at a data point
    # (its signal variance inflated after the fit) gives sigma 0 and a
    # finite, zero sigma gradient
    gp, x01, _ = _surrogate()
    gp.signal_var[0] *= 2.0
    mu, sigma, d_mu, d_sigma = gp.predict_gradient(0, x01[0])
    assert sigma == 0.0
    assert d_sigma.tolist() == [0.0, 0.0, 0.0]
    assert np.all(np.isfinite(d_mu))
    # mu - (mu - 1.0) is 1.0 only up to the rounding of mu, which goes
    # through BLAS, so compare with the improvement the branch computes
    best = mu - 1.0
    ei, cdf, pdf = _improvement(mu, sigma, best)
    assert ei == mu - best and cdf == 1.0 and pdf == 0.0


def test_chol_and_inverse_match_scipys_cholesky_and_cho_solve():
    """numpy's factor, and K^-1 from it, against scipy's LAPACK factor and
    solves: over these 33 sizes (the last three past one inversion block)
    the largest differences measured are 1.3e-16 (factor) and 8.1e-16
    (solves) of the largest entry, so 2e-15 leaves a margin."""
    from scipy.linalg import cho_solve, cholesky

    rng = np.random.default_rng(18)
    for n in [*range(1, 31), 33, 64, 101]:
        root = rng.normal(size=(n, n))
        gram = root @ root.T + n * np.eye(n)
        low = _chol(gram)
        want = cholesky(gram, lower=True, check_finite=False)
        np.testing.assert_allclose(low, want, rtol=0, atol=2e-15 * np.max(np.abs(want)))
        kept = low.copy()
        k_inv = _inverse(low)
        assert np.array_equal(low, kept)  # the factor is not overwritten
        cross = rng.normal(size=(4, n))
        for rhs in (rng.normal(size=n), np.eye(n), cross.T):
            want = cho_solve((low, True), rhs, check_finite=False)
            np.testing.assert_allclose(k_inv @ rhs, want, rtol=0, atol=2e-15 * np.max(np.abs(want)))


def test_chol_refuses_a_matrix_that_is_not_positive_definite():
    with pytest.raises(np.linalg.LinAlgError):
        _chol(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _trace_digest(trace):
    rows = np.array([[e.index, *e.point, e.value] for e in trace.entries])
    return hashlib.sha256(rows.tobytes()).hexdigest()


def test_bayes_opt_traces_are_pinned():
    """Every float of two Bayesian searches, as computed through numpy's
    Cholesky factor and inverse and the in-house bounded minimizer. The
    last bits follow the BLAS kernel: under OPENBLAS_CORETYPE=Prescott the
    first digest differs."""
    problem = SearchProblem(
        objective=lambda u: -float((u[0] - 3.0) ** 2 + (u[1] - 1.0) ** 2),
        variables=(BoundedVariable("u", 0.0, 6.0), BoundedVariable("v", -2.0, 2.0)),
        budget=12,
    )
    [(_, trace)] = bayes_opt([problem], [4])
    assert _trace_digest(trace) == (
        "7fef4987fe9b276f5fbf1e4d6c8cb629f6d8adbf7f6649b6e8a074eff7ccbfc1"
    )
    table = synthesize(seed=11, n=40, noise_sd=0.0)
    variables = engineering_vars(table)
    assert len(variables) == 6
    out = optimize_well(ground_truth_eur, table, 6, variables, "bayes", budget=25, seed=8)
    assert _trace_digest(out.trace) == (
        "3b074bfa83e099e1a7067a50d2baab832528bca3fd2f1aa30d8df2e31f93aa1d"
    )


def _box_quadratic(rng, dim):
    """A convex quadratic 0.5 (x - c)^T A (x - c) over a box, with its
    centre c drawn partly outside the box so that some bounds bind, and
    the value and gradient of each row of an (m, d) array."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    a = q @ np.diag(rng.uniform(0.5, 20.0, dim)) @ q.T
    lower = rng.uniform(-2.0, 0.0, dim)
    upper = lower + rng.uniform(0.5, 3.0, dim)
    centre = rng.uniform(lower - 1.5, upper + 1.5)

    def fun(x, rows=None):
        diff = x - centre
        return 0.5 * np.einsum("mi,ij,mj->m", diff, a, diff), diff @ a

    return fun, lower, upper


def test_minimize_box_reaches_scipys_l_bfgs_b_optimum_on_box_quadratics():
    """From the same starts, the in-house projected quasi-Newton search
    ends within 1e-6 of the value scipy's L-BFGS-B reaches, on convex
    quadratics in 1 to 6 dimensions, many with bounds binding at the
    optimum; three starts per problem run in one lockstep call."""
    from scipy.optimize import minimize

    rng = np.random.default_rng(21)
    binding = 0
    for trial in range(60):
        dim = 1 + trial % 6
        fun, lower, upper = _box_quadratic(rng, dim)
        starts = rng.uniform(lower, upper, size=(3, dim))
        points, values = _minimize_box(fun, starts, lower, upper)
        assert points.shape == (3, dim) and values.shape == (3,)
        assert np.all(points >= lower) and np.all(points <= upper)
        for start, point, value in zip(starts, points, values):
            assert value == pytest.approx(fun(point[None, :])[0][0], rel=1e-12)
            want = minimize(
                lambda x: tuple(v[0] for v in fun(x[None, :])),
                start,
                jac=True,
                bounds=list(zip(lower, upper)),
                method="L-BFGS-B",
            )
            assert abs(value - want.fun) <= 1e-6 * max(1.0, abs(want.fun))
            binding += np.any((want.x <= lower) | (want.x >= upper))
    assert 120 <= binding < 180  # of the 180 searches: 162 bind, 18 end inside


def test_minimize_box_stops_each_start_on_its_own():
    """A start already at the optimum is never moved, and the lockstep
    rows give what each start gives alone."""
    rng = np.random.default_rng(4)
    fun, lower, upper = _box_quadratic(rng, 3)
    starts = rng.uniform(lower, upper, size=(4, 3))
    together, values = _minimize_box(fun, starts, lower, upper)
    for k in range(4):
        alone, value = _minimize_box(fun, starts[k : k + 1], lower, upper)
        assert np.array_equal(alone[0], together[k]) and value[0] == values[k]
    again, _ = _minimize_box(fun, together[:1], lower, upper)
    assert np.array_equal(again, together[:1])


def _rippled_quadratic(rng, dim):
    """A box quadratic plus a cosine ripple: non-convex, so full steps
    overshoot and the line search halves them."""
    quad, lower, upper = _box_quadratic(rng, dim)
    amp = rng.uniform(1.0, 5.0, dim)
    freq = rng.uniform(4.0, 12.0, dim)

    def fun(x, rows=None):
        value, grad = quad(x)
        return value + (amp * np.cos(freq * x)).sum(axis=1), grad - amp * freq * np.sin(freq * x)

    return fun, lower, upper


def test_minimize_box_call_sequence_and_points_are_pinned():
    """The row count of every call the minimizer makes, and the bytes of
    the points and values it returns, on 48 drawn box problems (1 to 4
    starts, 1 to 6 dimensions): convex quadratics, rippled ones whose
    steps are halved, and quadratics with an ascent direction for a
    gradient, whose rows find no decrease in any halving and keep their
    points. The last bits follow the BLAS kernel, as for the traces
    pinned above."""
    rng = np.random.default_rng(29)
    families = (_box_quadratic, _rippled_quadratic, _box_quadratic)
    calls, out = [], []
    for trial in range(48):
        dim, count = 1 + trial % 6, 1 + trial // 6 % 4
        fun, lower, upper = families[trial % 3](rng, dim)
        sign = -1.0 if trial % 3 == 2 else 1.0

        def counted(x, rows, fun=fun, sign=sign):
            calls.append(len(x))
            value, grad = fun(x)
            return value, sign * grad

        points, values = _minimize_box(counted, rng.uniform(lower, upper, (count, dim)), lower, upper)
        out.append(points.tobytes() + values.tobytes())
    assert (len(calls), sum(calls)) == (1019, 2382)
    assert hashlib.sha256(np.array(calls).tobytes()).hexdigest() == (
        "cbc7896cfd65636dde2e183d95a216a765c7c0158dfb90e81f948f6912f9ca64"
    )
    assert hashlib.sha256(b"".join(out)).hexdigest() == (
        "d589b70f7690e531f684cb5c40e3f974847994cc5533e6db70cb378be68f8399"
    )


@pytest.mark.parametrize("n", [12, 70])
def test_batched_neg_lml_equals_each_start_alone(monkeypatch, n):
    """One (m, 2) call gives each start's value and gradient as its own
    (1, 2) call does, within 1e-12; a start whose Gram matrix does not
    factor gets the flat wall while the others keep their values. At 70
    points each factor of the stack is inverted by halves twice over."""
    gp, _, _ = _surrogate(n=n)
    starts = np.log([[0.5, 1.0], [0.02, 0.05], [10.0, 50.0], [0.3, 7.0], [2.0, 0.1]])
    values, grads = gp._neg_lml(starts, [0] * 5)
    assert values.shape == (5,) and grads.shape == (5, 2)
    alone = [gp._neg_lml(p[None], [0]) for p in starts]
    for k, (value, grad) in enumerate(alone):
        assert value[0] == pytest.approx(values[k], rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(grads[k], grad[0], rtol=1e-12, atol=1e-12)

    real = welloop.optimize._chol

    def refuse_large_signal(a):
        # the signal variance of 50 sits on the diagonal of start 2 only
        if np.max(np.diagonal(a, axis1=-2, axis2=-1)) > 10.0:
            raise np.linalg.LinAlgError("not positive definite")
        return real(a)

    monkeypatch.setattr(welloop.optimize, "_chol", refuse_large_signal)
    walled, wall_grads = gp._neg_lml(starts, [0] * 5)
    assert walled[2] == 1e12 and wall_grads[2].tolist() == [0.0, 0.0]
    keep = [0, 1, 3, 4]
    np.testing.assert_allclose(walled[keep], values[keep], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(wall_grads[keep], grads[keep], rtol=1e-12, atol=1e-12)


def test_minimize_box_gives_each_start_the_bits_it_gets_alone():
    """fun is told which start each row came from, so starts of different
    problems can descend together: on 24 drawn sets of 2 to 5 box
    problems over one box, a start each, convex and rippled, the lockstep
    run gives every start the bits of its own run."""
    rng = np.random.default_rng(33)
    families = (_box_quadratic, _rippled_quadratic)
    for trial in range(24):
        dim, count = 1 + trial % 4, 2 + trial % 4
        funs = [families[(trial + k) % 2](rng, dim)[0] for k in range(count)]
        _, lower, upper = _box_quadratic(rng, dim)
        starts = rng.uniform(lower, upper, (count, dim))
        seen = []

        def each(x, rows):
            seen.append(list(rows))
            values, grads = zip(*(funs[r](x[k : k + 1]) for k, r in enumerate(rows)))
            return np.concatenate(values), np.concatenate(grads)

        together, values = _minimize_box(each, starts, lower, upper)
        assert all(rows == sorted(set(rows)) for rows in seen)
        for k, fun in enumerate(funs):
            alone, value = _minimize_box(lambda x, rows, fun=fun: fun(x), starts[k : k + 1], lower, upper)
            assert alone[0].tobytes() == together[k].tobytes()
            assert value[0].tobytes() == values[k].tobytes()


@pytest.mark.parametrize("n", [12, 70])
def test_neg_lml_gives_each_wells_rows_the_bits_of_that_wells_own_call(n):
    """One call over the rows of three wells gives each well's rows the
    value and gradient bits of a call on that well alone, and the wells
    fitted together get each the fit it gets alone. At 70 points each
    factor is inverted by halves twice over."""
    rng = np.random.default_rng(n)
    x01 = rng.random((3, n, 2))
    y = np.sin(4.0 * x01[:, :, 0]) + x01[:, :, 1] ** 2 + rng.normal(0.0, 0.1, (3, n))
    seeds = (1, 2, 3)
    gp = _GaussianProcess(x01, y, [np.random.default_rng(s) for s in seeds])
    params = np.log([[0.5, 1.0], [0.02, 0.05], [10.0, 50.0], [0.3, 7.0], [2.0, 0.1], [1.0, 1.0]])
    wells = np.array([0, 0, 1, 2, 2, 2])
    values, grads = gp._neg_lml(params, wells)
    for w, seed in enumerate(seeds):
        alone = _GaussianProcess(x01[w : w + 1], y[w : w + 1], [np.random.default_rng(seed)])
        mine = wells == w
        value, grad = alone._neg_lml(params[mine], [0] * mine.sum())
        assert value.tobytes() == values[mine].tobytes()
        assert grad.tobytes() == grads[mine].tobytes()
        assert alone.length_scale[0] == gp.length_scale[w]
        assert alone.signal_var[0] == gp.signal_var[w]
        assert alone._k_inv[0].tobytes() == gp._k_inv[w].tobytes()
        assert alone._alpha[0].tobytes() == gp._alpha[w].tobytes()


def _outcome(result):
    return _trace_digest(result.trace), result.trace.truncated, result.to_json()


@pytest.mark.parametrize("seed", [1, 1009])
@pytest.mark.parametrize("method", METHODS)
def test_optimize_wells_gives_each_well_the_search_it_gets_alone(method, seed, well_table):
    """Budgets below the Bayesian initial design (truncated), just past it
    and well past it; one, two and three wells in any order."""
    variables = engineering_vars(well_table)
    for budget in (5, 9, 20):
        alone = {
            row: _outcome(
                optimize_well(
                    ground_truth_eur, well_table, row, variables, method, budget, seed=seed + row
                )
            )
            for row in (2, 6, 11)
        }
        for rows in ([6], [2, 11], [11, 2, 6]):
            together = optimize_wells(
                ground_truth_eur,
                well_table,
                rows,
                variables,
                method,
                budget,
                seeds=[seed + row for row in rows],
            )
            assert [_outcome(r) for r in together] == [alone[row] for row in rows]
        if method == "bayes":  # only the budget of 5 ends inside the initial design
            assert alone[6][1] == (budget < welloop.optimize._BO_INIT)


def _lockstep_calls(monkeypatch):
    """(rows, n) of every likelihood call, recorded."""
    calls = []
    real = _GaussianProcess._neg_lml

    def spy(self, log_params, wells):
        calls.append((len(log_params), self.yn.shape[1]))
        return real(self, log_params, wells)

    monkeypatch.setattr(_GaussianProcess, "_neg_lml", spy)
    return calls


@pytest.mark.parametrize("cells", [1, 700, 1 << 14])
def test_bayes_groups_change_no_bits(monkeypatch, cells):
    """Searches one at a time, regrouped as their points grow, or all in
    one group, give the traces each search gets alone."""
    problems = [quad_problem(budget=14, center=c) for c in (1.0, 2.5, 4.0)]
    alone = [_trace_digest(bayes_opt([p], [s])[0][1]) for p, s in zip(problems, (3, 4, 5))]
    calls = _lockstep_calls(monkeypatch)
    monkeypatch.setattr(welloop.optimize, "_LOCKSTEP_CELLS", cells)
    together = bayes_opt(problems, [3, 4, 5])
    assert [_trace_digest(trace) for _, trace in together] == alone
    assert max(rows for rows, _ in calls) == {1: 4, 700: 8, 1 << 14: 12}[cells]


def test_a_lockstep_group_keeps_its_likelihood_stack_within_the_bound(monkeypatch):
    """Four searches at budget 40 go four, three, two, then one at a time
    as their points grow; every likelihood call holds at most
    max(4 n^2, _LOCKSTEP_CELLS) cells in each of its (rows, n, n) arrays,
    so no group needs more than the largest fit one search makes alone."""
    calls = _lockstep_calls(monkeypatch)
    problems = [quad_problem(budget=40, center=c) for c in (0.5, 2.0, 3.5, 5.0)]
    bayes_opt(problems, [1, 2, 3, 4])
    bound = welloop.optimize._LOCKSTEP_CELLS
    assert all(rows * n * n <= max(4 * n * n, bound) for rows, n in calls)
    first_rows = {}
    for rows, n in calls:
        first_rows.setdefault(n, rows)
    assert {first_rows[n] for n in (8, 30, 39)} == {16, 8, 4}
    assert sorted(set(first_rows.values())) == [4, 8, 12, 16]


def test_lockstep_searches_need_equal_budgets_and_dimensions():
    with pytest.raises(ValueError, match="equal budgets and dimensions"):
        bayes_opt([quad_problem(budget=10), quad_problem(budget=11)], [0, 1])
    with pytest.raises(ValueError, match="equal budgets and dimensions"):
        bayes_opt([quad_problem(budget=10), sphere_problem(budget=10)], [0, 1])
    with pytest.raises(ValueError, match="one seed"):
        bayes_opt([quad_problem()], [0, 1])
    with pytest.raises(ValueError, match="one initial point"):
        bayes_opt([quad_problem(), quad_problem()], [0, 1], [None])
    with pytest.raises(ValueError, match="at least one problem"):
        bayes_opt([], [])


def test_cholesky_jitter_ladder_gives_up_cleanly():
    with pytest.raises(SurrogateError, match="ill-conditioned"):
        _chol_with_jitter(np.array([[-1.0]]))


def test_bayes_opt_finds_a_concave_quadratic_optimum():
    for seed in (0, 1):
        [(best, trace)] = bayes_opt(
            [
                SearchProblem(
                    objective=lambda u: -((u[0] - 0.6) ** 2),
                    variables=(BoundedVariable("u", 0.0, 1.0),),
                    budget=18,
                )
            ],
            [seed],
        )
        assert len(trace.entries) <= 18
        assert abs(best[0] - 0.6) <= 0.02


def test_bayes_opt_initial_point_and_validation():
    problem = quad_problem(budget=10)
    [(_, trace)] = bayes_opt([problem], [2], [np.array([1.25])])
    assert trace.entries[0].point[0] == pytest.approx(1.25, abs=1e-9)


# --- shared budget discipline -----------------------------------------------------


def run_method(name, problem, seed=0):
    if name == "pso":
        return pso(problem, seed=seed)
    if name == "de":
        return de(problem, seed=seed)
    return bayes_opt([problem], [seed])[0]


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("budget", [1, 7, 23])
def test_budget_is_exhausted_exactly(method, budget):
    problem = quad_problem(budget=budget)
    _, trace = run_method(method, problem)
    assert len(trace.entries) == budget
    if budget % 10 != 0 and budget < 8:
        assert trace.truncated


@pytest.mark.parametrize("method", METHODS)
def test_trace_invariants(method):
    problem = sphere_problem(budget=40)
    _, trace = run_method(method, problem, seed=7)
    assert len(trace.entries) <= problem.budget
    values = trace.values
    best = trace.best_so_far()
    assert np.all(np.diff(best) >= 0)
    assert np.all(best >= values - 1e-15)
    for k, entry in enumerate(trace.entries):
        assert entry.index == k
        assert np.all(entry.point >= problem.lower - 1e-12)
        assert np.all(entry.point <= problem.upper + 1e-12)


@pytest.mark.parametrize("method", METHODS)
def test_search_is_deterministic_per_seed(method):
    problem_a = sphere_problem(budget=30)
    problem_b = sphere_problem(budget=30)
    best_a, trace_a = run_method(method, problem_a, seed=9)
    best_b, trace_b = run_method(method, problem_b, seed=9)
    assert np.array_equal(best_a, best_b)
    assert np.array_equal(trace_a.values, trace_b.values)


# --- closed-loop well optimization ---------------------------------------------------


@pytest.fixture(scope="module")
def well_table():
    return synthesize(seed=11, n=40, noise_sd=0.0)


def engineering_vars(table):
    return [s.name for s in table.feature_specs if s.optimizable]


def test_optimize_well_never_loses_to_the_incumbent(well_table):
    out = optimize_well(
        ground_truth_eur,
        well_table,
        row=3,
        variables=engineering_vars(well_table),
        method="pso",
        budget=40,
        seed=2,
    )
    assert out.optimized_eur >= out.original_eur
    assert out.trace.entries[0].value == out.original_eur


def test_optimize_well_budget_one_returns_the_incumbent(well_table):
    variables = engineering_vars(well_table)
    out = optimize_well(
        ground_truth_eur,
        well_table,
        row=0,
        variables=variables,
        method="de",
        budget=1,
        seed=0,
    )
    assert out.optimized_eur == out.original_eur
    assert np.array_equal(out.optimized, out.original)
    assert len(out.trace.entries) == 1
    assert out.trace.truncated


def test_optimize_well_rounds_integer_variables(well_table):
    out = optimize_well(
        ground_truth_eur,
        well_table,
        row=5,
        variables=["stage count", "proppant intensity"],
        method="pso",
        budget=25,
        seed=1,
    )
    stage = out.optimized[list(out.variable_names).index("stage count")]
    assert stage == round(stage)
    orig_stage = out.original[list(out.variable_names).index("stage count")]
    assert orig_stage == round(orig_stage)


def test_optimize_well_respects_explicit_bounds(well_table):
    out = optimize_well(
        ground_truth_eur,
        well_table,
        row=2,
        variables=["stimulated length"],
        method="de",
        budget=30,
        bounds={"stimulated length": (1200.0, 1300.0)},
        seed=3,
    )
    assert 1200.0 <= out.optimized[0] <= 1300.0
    for e in out.trace.entries:
        assert 1200.0 <= e.point[0] <= 1300.0


def test_optimize_well_default_bounds_are_the_observed_range(well_table):
    name = "fracturing fluid intensity"
    col = well_table.column(name)
    out = optimize_well(
        ground_truth_eur,
        well_table,
        row=1,
        variables=[name],
        method="pso",
        budget=20,
        seed=4,
    )
    for e in out.trace.entries:
        assert col.min() - 1e-9 <= e.point[0] <= col.max() + 1e-9


def test_optimize_well_searches_integers_only_inside_their_bounds(well_table):
    # row 2 has 12 stages, below the bounds
    out = optimize_well(
        ground_truth_eur,
        well_table,
        row=2,
        variables=["stage count"],
        method="pso",
        budget=30,
        bounds={"stage count": (12.4, 19.6)},
        seed=6,
    )
    assert out.bounds == {"stage count": (13.0, 19.0)}
    for e in out.trace.entries:
        assert 12.4 <= np.round(e.point[0]) <= 19.6
    radar = out.to_json()["radar"][0]
    assert 0.0 <= radar["original_norm"] <= 1.0
    assert 0.0 <= radar["optimized_norm"] <= 1.0
    with pytest.raises(ValueError, match="needs two whole numbers between lower and upper"):
        optimize_well(
            ground_truth_eur, well_table, 0, ["stage count"], bounds={"stage count": (20.2, 20.4)}
        )
    # an observed range is checked once the table gives it
    values = np.array(well_table.values)
    values[:, well_table.index("stage count")] = 20.0
    flat = WellTable(well_table.specs, values)
    with pytest.raises(ValueError, match="degenerate bounds for 'stage count'"):
        optimize_well(ground_truth_eur, flat, 0, ["stage count"])


def test_optimize_well_validation(well_table):
    variables = engineering_vars(well_table)
    with pytest.raises(ValueError, match="unknown method"):
        optimize_well(ground_truth_eur, well_table, 0, variables, method="anneal")
    with pytest.raises(ValueError, match="not model features"):
        optimize_well(ground_truth_eur, well_table, 0, ["nope"])
    with pytest.raises(ValueError, match="not flagged optimizable"):
        optimize_well(ground_truth_eur, well_table, 0, ["porosity"])
    with pytest.raises(IndexError):
        optimize_well(ground_truth_eur, well_table, 40, variables)
    with pytest.raises(ValueError, match="at least one variable"):
        optimize_well(ground_truth_eur, well_table, 0, [])
    with pytest.raises(ValueError, match="at least one well"):
        optimize_wells(ground_truth_eur, well_table, [], variables)
    with pytest.raises(ValueError, match="one seed per well"):
        optimize_wells(ground_truth_eur, well_table, [0, 1], variables, seeds=[0])
    with pytest.raises(ValueError, match="bounds.stage count: lower must be < upper"):
        optimize_well(
            ground_truth_eur,
            well_table,
            0,
            ["stage count"],
            bounds={"stage count": (20.0, 20.0)},
        )
    with pytest.raises(TypeError):
        optimize_well(object(), well_table, 0, variables)


def test_design_problems_lists_each_rule_a_search_breaks(well_table):
    """Names outside the factors are left to the caller; optimize_wells
    refuses them as not model features."""
    factors = {s.name: s for s in well_table.feature_specs}
    bounds = {"TOC": (0.0, 1.0), "stage count": (10.0, 20.0), "nope": (0.0, 1.0)}
    variables = ["stage count", "porosity", "nope", 3, "TOC"]
    assert design_problems(factors, variables, bounds, "optimize") == [
        "optimize.variables: 'porosity' is not flagged optimizable",
        "optimize.variables: 'TOC' is not flagged optimizable",
    ]
    assert design_problems(factors, ["stage count"], bounds) == [
        "bounds: 'TOC' is not searched"
    ]
    with pytest.raises(ValueError, match=r"not model features: \['nope'\]"):
        optimize_well(ground_truth_eur, well_table, 0, ["stage count"], bounds={"nope": (0, 1)})


def test_a_search_whose_span_overflows_is_refused(well_table):
    """Finite bounds whose upper - lower passes the largest float used to
    fail mid-search with a non-finite evaluation point."""
    wide = {"stimulated length": [-1.7e308, 1.7e308]}
    problem = "bounds.stimulated length: upper - lower overflows a float"
    factors = {s.name: s for s in well_table.feature_specs}
    assert design_problems(factors, ["stimulated length"], wide) == [problem]
    with pytest.raises(ValueError, match=problem):
        optimize_well(ground_truth_eur, well_table, 0, ["stimulated length"], bounds=wide)


def test_optimize_well_refuses_a_bound_on_a_variable_it_does_not_search(well_table):
    """The bound used to be ignored; validate refuses it in a config."""
    with pytest.raises(ValueError, match="bounds: 'proppant intensity' is not searched"):
        optimize_well(
            ground_truth_eur,
            well_table,
            0,
            ["stage count"],
            bounds={"stage count": (12.0, 32.0), "proppant intensity": (1.0, 2.0)},
        )


def test_optimize_well_refuses_a_model_of_other_columns(well_table):
    names = list(well_table.feature_names)
    names[0], names[1] = names[1], names[0]
    x, y = well_table.feature_matrix(), well_table.target()
    model = fit_rf(x, y, HyperParams(n_trees=3, max_depth=2), feature_names=names)
    with pytest.raises(ValueError, match="model and table disagree on feature columns"):
        optimize_well(model, well_table, 0, engineering_vars(well_table), budget=3)


def test_optimize_well_rejects_rows_with_missing_values():
    specs = (
        FactorSpec("knob", "-", "completion", optimizable=True),
        FactorSpec("y", "1e8 m3", "production"),
    )
    vals = np.array([[np.nan, 1.0], [2.0, 2.0], [3.0, 1.5]])
    table = WellTable(specs, vals)
    with pytest.raises(ValueError, match="missing"):
        optimize_well(lambda x: x[:, 0], table, 0, ["knob"])


def test_optimize_well_json_includes_normalized_radar(well_table):
    out = optimize_well(
        ground_truth_eur,
        well_table,
        row=7,
        variables=["stage count"],
        method="pso",
        budget=15,
        bounds={"stage count": (12.0, 32.0)},
        seed=5,
    )
    obj = out.to_json()
    assert obj["method"] == "pso"
    assert obj["evaluations"] == 15
    radar = obj["radar"][0]
    assert radar["variable"] == "stage count"
    assert radar["original_norm"] == pytest.approx(
        (out.original[0] - 12.0) / 20.0, abs=1e-12
    )
    assert 0.0 <= radar["optimized_norm"] <= 1.0


def test_optimize_well_reports_the_bounds_it_searched(well_table):
    out = optimize_well(
        ground_truth_eur,
        well_table,
        row=7,
        variables=["stage count", "stimulated length"],
        budget=5,
        bounds={"stage count": (12, 32)},
        seed=5,
    )
    column = well_table.column("stimulated length")
    assert out.bounds == {
        "stage count": (12.0, 32.0),
        "stimulated length": (float(np.min(column)), float(np.max(column))),
    }


@pytest.mark.parametrize("method", METHODS)
def test_optimize_well_is_deterministic(method, well_table):
    kwargs = dict(
        variables=engineering_vars(well_table), method=method, budget=25, seed=8
    )
    a = optimize_well(ground_truth_eur, well_table, 6, **kwargs)
    b = optimize_well(ground_truth_eur, well_table, 6, **kwargs)
    assert a.optimized_eur == b.optimized_eur
    assert np.array_equal(a.optimized, b.optimized)
