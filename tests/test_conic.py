"""Solver checks on small LMI programs with known optima."""

import numpy as np
import pytest

import ddlqr.conic.solver as solver_mod
from ddlqr.conic import LmiProblem, smat, solve, svec, svec_len
from ddlqr.errors import AsymmetricInput, DimensionMismatch


def add_dense_block(p, F0, Fs):
    """Block F0 + sum_i y_i Fs[i] in one declaration; None is a zero Fs[i]."""
    var = [i for i, F in enumerate(Fs) if F is not None]
    return p.new_block(F0, var, np.reshape([Fs[i] for i in var], (len(var),) + F0.shape))


def dense_value(F0, Fs, y):
    """Reference F0 + sum_i y_i Fs[i], formed with numpy."""
    return F0 + sum(yi * F for yi, F in zip(y, Fs))


def random_feasible_problem(seed):
    # box constraints keep every instance bounded; extra random blocks are
    # feasible at y = 0 by construction
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 11))
    nblocks = int(rng.integers(1, 7))
    p = LmiProblem(rng.standard_normal(k))
    box = 10.0
    add_dense_block(p, box * np.eye(k), [np.diag((np.arange(k) == i).astype(float)) for i in range(k)])
    add_dense_block(p, box * np.eye(k), [-np.diag((np.arange(k) == i).astype(float)) for i in range(k)])
    for _ in range(nblocks):
        d = int(rng.integers(1, 7))
        Fs = []
        for _i in range(k):
            G = rng.standard_normal((d, d))
            Fs.append(0.5 * (G + G.T) if rng.uniform() < 0.8 else None)
        G0 = rng.standard_normal((d, d))
        add_dense_block(p, G0 @ G0.T + 0.5 * np.eye(d), Fs)
    return p


def min_eig_at(p, y):
    return min(float(np.linalg.eigvalsh(S)[0]) for S in p.evaluate_blocks(y))


def test_svec_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        G = rng.standard_normal((d, d))
        S = 0.5 * (G + G.T)
        v = svec(S)
        assert v.shape == (svec_len(d),)
        assert np.allclose(smat(v, d), S, atol=1e-14)
        T = 0.5 * (rng.standard_normal((d, d)) + np.eye(d))
        T = T + T.T
        # packing preserves the trace inner product
        assert np.vdot(svec(S), svec(T)) == pytest.approx(np.vdot(S, T), abs=1e-12)
        V = rng.standard_normal((3, svec_len(d)))
        assert np.array_equal(smat(V, d), np.stack([smat(v, d) for v in V]))
    # packed positions run over the upper triangle row by row
    for pos, (i, j) in enumerate(zip(*np.triu_indices(4))):
        assert np.array_equal(np.argwhere(np.triu(smat(np.eye(svec_len(4))[pos], 4))), [[i, j]])


def test_scalar_lower_bound():
    p = LmiProblem([1.0])
    add_dense_block(p, np.zeros((1, 1)), [np.eye(1)])
    sol = solve(p)
    assert sol.status == "Optimal"
    assert abs(sol.objective) <= 1e-7


def test_offdiagonal_coupling():
    p = LmiProblem([-1.0])
    add_dense_block(p, np.eye(2), [np.array([[0.0, 1.0], [1.0, 0.0]])])
    sol = solve(p)
    assert sol.status == "Optimal"
    assert sol.objective == pytest.approx(-1.0, abs=1e-7)
    assert sol.y[0] == pytest.approx(1.0, abs=1e-6)


def test_seeded_feasible_suite():
    for seed in range(20):
        p = random_feasible_problem(seed)
        sol = solve(p)
        assert sol.status == "Optimal", f"seed {seed}: {sol.status} ({sol.message})"
        assert sol.gap >= 0.0
        assert sol.iters <= 60
        scale = 1.0 + max(np.linalg.norm(cb.F0) for cb in p.compiled())
        assert min_eig_at(p, sol.y) >= -1e-6 * scale, f"seed {seed}"
        # certificate: along feasible rays the objective must not improve
        c = p.objective
        obj = float(c @ sol.y)
        rng = np.random.default_rng(1000 + seed)
        for _ in range(3):
            u = rng.standard_normal(p.num_vars)
            u /= np.linalg.norm(u)
            best = obj
            for t in np.geomspace(1e-5, 1.0, 9):
                for s in (t, -t):
                    y2 = sol.y + s * u
                    if min_eig_at(p, y2) >= -1e-9 * scale:
                        best = min(best, float(c @ y2))
            assert best >= obj - 1e-6 * (1.0 + abs(obj)), f"seed {seed}"


@pytest.mark.parametrize("seed", [22, 27, 38, 137, 180])
def test_snapshot_iterate_has_nonnegative_gap(seed):
    # A snapshot is taken only of an iterate whose slacks factored. These
    # seeds reach iterates whose slacks fail to factor, with gaps S . Z
    # below 0, and returned one when that iterate was the snapshot.
    sol = solve(random_feasible_problem(seed))
    assert sol.status == "Optimal", sol.message
    assert sol.gap >= 0.0


def test_deterministic_resolve():
    s1 = solve(random_feasible_problem(7))
    s2 = solve(random_feasible_problem(7))
    assert np.array_equal(s1.y, s2.y)
    assert s1.objective == s2.objective
    assert s1.iters == s2.iters


def test_data_scaling_keeps_argmin():
    base = solve(random_feasible_problem(3))
    rng = np.random.default_rng(3)
    k = int(rng.integers(2, 11))
    nblocks = int(rng.integers(1, 7))
    p = LmiProblem(rng.standard_normal(k))
    box = 10.0
    add_dense_block(
        p, 10 * box * np.eye(k), [10 * np.diag((np.arange(k) == i).astype(float)) for i in range(k)]
    )
    add_dense_block(
        p, 10 * box * np.eye(k), [-10 * np.diag((np.arange(k) == i).astype(float)) for i in range(k)]
    )
    for _ in range(nblocks):
        d = int(rng.integers(1, 7))
        Fs = []
        for _i in range(k):
            G = rng.standard_normal((d, d))
            Fs.append(5.0 * (G + G.T) if rng.uniform() < 0.8 else None)
        G0 = rng.standard_normal((d, d))
        add_dense_block(p, 10.0 * (G0 @ G0.T + 0.5 * np.eye(d)), Fs)
    scaled = solve(p)
    assert scaled.status == "Optimal"
    assert np.abs(scaled.y - base.y).max() <= 1e-6


def test_infeasible_pair_detected():
    p = LmiProblem([1.0])
    add_dense_block(p, np.array([[-1.0]]), [np.array([[1.0]])])
    add_dense_block(p, np.array([[-1.0]]), [np.array([[-1.0]])])
    sol = solve(p)
    assert sol.status == "Infeasible"
    assert not sol.optimal


def test_unbounded_ray_detected():
    p = LmiProblem([-1.0])
    add_dense_block(p, np.zeros((1, 1)), [np.eye(1)])
    sol = solve(p)
    assert sol.status == "Unbounded"


def test_no_constraint_statuses():
    p = LmiProblem([1.0, 0.0])
    assert solve(p).status == "Unbounded"
    q = LmiProblem([0.0, 0.0])
    sol = solve(q)
    assert sol.status == "Optimal"
    assert sol.objective == 0.0


def test_untouched_variable_with_zero_cost():
    p = LmiProblem([-1.0, 0.5, 0.0])
    add_dense_block(p, np.eye(2), [np.array([[0.0, 1.0], [1.0, 0.0]])])
    add_dense_block(p, np.eye(1), [None, np.array([[1.0]])])
    sol = solve(p)
    assert sol.status == "Optimal"
    assert sol.y[2] == 0.0
    assert sol.objective == pytest.approx(-1.5, abs=1e-6)
    # With a cost, the untouched variable moves the objective without bound.
    p = LmiProblem([-1.0, 0.5, 2.0])
    add_dense_block(p, np.eye(2), [np.array([[0.0, 1.0], [1.0, 0.0]])])
    add_dense_block(p, np.eye(1), [None, np.array([[1.0]])])
    sol = solve(p)
    assert sol.status == "Unbounded"
    assert sol.message == "objective moves along an unconstrained variable"
    assert sol.iters == 0


def test_max_iters_status(monkeypatch):
    monkeypatch.setattr(solver_mod, "_MAX_ITERS", 2)
    p = LmiProblem([-1.0])
    add_dense_block(p, np.eye(2), [np.array([[0.0, 1.0], [1.0, 0.0]])])
    sol = solve(p)
    assert sol.status == "MaxIters"
    assert sol.iters == 2
    assert not sol.optimal


def descent_toy():
    """min y0 + y1 over two 2x2 blocks: twelve iterations to the convergence
    test, with relative gaps below the snapshot caps from iteration 9 on."""
    p = LmiProblem([1.0, 1.0])
    F0 = np.array([[2.0, 0.5], [0.5, 1.0]])
    add_dense_block(p, F0, [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    add_dense_block(p, 3.0 * np.eye(2), [-np.eye(2), None])
    return p


def break_at(monkeypatch, p, k, how):
    """Break the solve of p at iteration k: "factor" fails the Schur
    factorization, "nan" makes the primal residual non-finite. The first
    block's apply_lin runs four times per iteration, first for the residuals,
    then for the predictor's step, the corrector's refinement and its step."""
    calls = []
    if how == "factor":
        real = solver_mod._Factorization

        def factorization(*args):
            calls.append(None)
            if len(calls) >= k:
                raise solver_mod._FactorError("probe")
            return real(*args)

        monkeypatch.setattr(solver_mod, "_Factorization", factorization)
    else:
        block = p.compiled()[0]
        real = block.apply_lin

        def apply_lin(y, Yc):
            calls.append(None)
            S = real(y, Yc)
            return np.full_like(S, np.nan) if len(calls) > 4 * (k - 1) else S

        monkeypatch.setattr(block, "apply_lin", apply_lin)


BREAKDOWNS = [("factor", "next factorization failed: probe"), ("nan", "non-finite iterate")]


@pytest.mark.parametrize("how, reason", BREAKDOWNS)
def test_breakdown_after_good_snapshot_returns_it(monkeypatch, how, reason):
    # The snapshot is the best iterate measured before the breakdown: iterate
    # 10 when the factorization after its residuals fails, iterate 9 when
    # iterate 10's residuals are non-finite. A run capped one iteration
    # earlier ends holding that iterate.
    good = 10 if how == "factor" else 9
    with monkeypatch.context() as m:
        m.setattr(solver_mod, "_MAX_ITERS", good - 1)
        ref = solve(descent_toy())
    assert solve(descent_toy()).message == ""
    p = descent_toy()
    break_at(monkeypatch, p, 10, how)
    sol = solve(p)
    assert sol.status == "Optimal"
    assert sol.message == "attainable precision; " + reason
    assert sol.iters == 10
    assert np.array_equal(sol.y, ref.y)
    assert sol.objective == pytest.approx(float(np.sum(ref.y)), rel=1e-15)


@pytest.mark.parametrize("how, reason", BREAKDOWNS)
def test_breakdown_at_first_iteration_fails(monkeypatch, how, reason):
    p = descent_toy()
    break_at(monkeypatch, p, 1, how)
    sol = solve(p)
    assert sol.status == "NumericalError"
    assert sol.message == reason
    assert sol.iters == 1
    assert not sol.optimal


def test_entry_api_matches_dense_blocks():
    # one block declared from its coefficient stack against the dense
    # reference, same data; an all-zero coefficient leaves its variable out
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(2, 6))
        G0 = rng.standard_normal((d, d))
        F0 = G0 @ G0.T + 0.5 * np.eye(d)
        G = rng.standard_normal((k, d, d))
        Fs = 0.5 * (G + G.swapaxes(1, 2))
        zero = int(rng.integers(0, k))
        Fs[zero] = 0.0

        ent = LmiProblem(rng.standard_normal(k))
        ent.new_block(F0, np.arange(k), Fs)
        (cb,) = ent.compiled()
        assert np.array_equal(cb.lv, [np.delete(np.arange(k), zero)])

        y = rng.standard_normal(k)
        (S,) = ent.evaluate_blocks(y)
        assert np.abs(S - dense_value(F0, Fs, y)).max() <= 1e-13
        Zs = [0.5 * (M + M.T) for M in (rng.standard_normal((d, d)),)]
        ref = np.array([np.vdot(F, Zs[0]) for F in Fs])
        assert np.abs(ent.adjoint(Zs) - ref).max() <= 1e-13


def test_corner_slack_matches_dense():
    # min tr(W) + t st [[W, a], [a.T, t]] >= 0 and t <= 3, |a| = 2:
    # optimum t = 2, W = a a.T / 2, objective 4
    a = np.array([2.0 * np.cos(0.3), 2.0 * np.sin(0.3)])
    nw = svec_len(2)
    k = nw + 1
    c = np.array([1.0, 0.0, 1.0, 1.0])  # W packs as (W00, sqrt(2) W01, W11)
    bound = [None] * nw + [np.array([[-1.0]])]

    cor = LmiProblem(c)
    F0 = np.zeros((3, 3))
    F0[0, 2], F0[1, 2] = a[0], a[1]
    F0[2, 0], F0[2, 1] = a[0], a[1]
    # columns 2.. of the coefficient of t: its border rows and trailing entry
    cor.new_block(F0, [nw], [[[0.0], [0.0], [1.0]]], corner=(2, 0))
    add_dense_block(cor, np.array([[3.0]]), bound)

    Fs = [np.zeros((3, 3)) for _ in range(k)]
    Fs[0][0, 0] = Fs[2][1, 1] = Fs[3][2, 2] = 1.0
    Fs[1][0, 1] = Fs[1][1, 0] = 1.0 / np.sqrt(2.0)
    dense = LmiProblem(c)
    add_dense_block(dense, F0, Fs)
    add_dense_block(dense, np.array([[3.0]]), bound)

    y = np.random.default_rng(29).standard_normal(k)
    assert np.abs(cor.evaluate_blocks(y)[0] - dense_value(F0, Fs, y)).max() <= 1e-13
    s_cor = solve(cor)
    s_dense = solve(dense)
    assert s_cor.status == "Optimal"
    assert s_cor.objective == pytest.approx(4.0, abs=1e-5)
    assert s_dense.objective == pytest.approx(4.0, abs=1e-5)
    assert np.abs(s_cor.y - s_dense.y).max() <= 1e-5
    W = smat(s_cor.y[:nw], 2)
    assert np.abs(W - np.outer(a, a) / 2.0).max() <= 1e-4


def test_all_corner_block_and_no_ordinary_variables():
    # min tr(W) st W >= diag(1, 2, 3): the block is all corner (dc = d), the
    # problem has no ordinary variables and its optimum is W = diag(1, 2, 3).
    nw = svec_len(3)
    only = LmiProblem(svec(np.eye(3)))
    only.new_block(-np.diag([1.0, 2.0, 3.0]), corner=(3, 0))
    # The same block beside an ordinary variable t >= 1, objective tr(W) + t.
    mixed = LmiProblem(np.append(svec(np.eye(3)), 1.0))
    mixed.new_block(-np.diag([1.0, 2.0, 3.0]), corner=(3, 0))
    add_dense_block(mixed, -np.eye(1), [None] * nw + [np.eye(1)])
    for p, objective in ((only, 6.0), (mixed, 7.0)):
        sol = solve(p)
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(objective, abs=1e-6)
        assert np.abs(smat(sol.y[:nw], 3) - np.diag([1.0, 2.0, 3.0])).max() <= 1e-6


def test_corner_variables_must_stay_slack_only():
    p = LmiProblem(np.ones(4))
    # corner var 0 reused as an ordinary coefficient
    with pytest.raises(DimensionMismatch):
        p.new_block(np.eye(3), [0], [[[0.0], [0.0], [1.0]]], corner=(2, 0))


def test_partition_is_checked_where_blocks_are_declared():
    p = LmiProblem(np.ones(4))
    p.new_block(np.eye(3), corner=(2, 0))  # corner variables 0, 1, 2
    p.new_block(np.eye(1), [3], [[[1.0]]])  # ordinary variable 3
    partition = (p._ordinary.copy(), p._corner.copy())
    with pytest.raises(DimensionMismatch, match=r"corner variables \[1\] declared twice"):
        p.new_block(np.eye(2), corner=(1, 1))
    # ordinary coefficient on corner variable 2; corner on ordinary variable 3
    for var, F, corner in (([2], np.ones((1, 2, 2)), None), ([], np.zeros((0, 2, 1)), (1, 3))):
        with pytest.raises(DimensionMismatch, match="also appear as ordinary coefficients"):
            p.new_block(np.eye(2), var, F, corner)
    assert p.block_dims() == [3, 1]
    assert all(np.array_equal(a, b) for a, b in zip(partition, (p._ordinary, p._corner)))


# A stack of g blocks of one shape is the same LMI as its g members: the
# solver runs each per-block step once per stack, on every member at once.
# Each member has its own variables and, with dc = 1, its own 1 x 1 corner,
# priced so that the corner is bounded; a box bounds the ordinary variables.
@pytest.mark.parametrize("dc", [0, 1])
@pytest.mark.parametrize("seed", range(4))
def test_stack_is_the_same_as_its_members(seed, dc):
    rng = np.random.default_rng(700 + seed)
    ko, g, d, nv = 6, int(rng.integers(2, 6)), int(rng.integers(dc + 1, 5)), 3
    c = np.append(rng.standard_normal(ko), np.ones(g * dc))
    var = np.sort([rng.choice(ko, nv, replace=False) for _ in range(g)], axis=1)
    G = rng.standard_normal((g, nv, d, d))
    F = (0.5 * (G + G.swapaxes(2, 3)))[:, :, :, dc:]
    G0 = rng.standard_normal((g, d, d))
    F0 = G0 @ G0.swapaxes(1, 2) + 0.5 * np.eye(d)
    stacked, members = LmiProblem(c), LmiProblem(c)
    box = [np.diag((np.arange(ko) == i).astype(float)) for i in range(ko)] + [None] * (g * dc)
    for q in (stacked, members):
        add_dense_block(q, 10.0 * np.eye(ko), box)
        add_dense_block(q, 10.0 * np.eye(ko), [None if B is None else -B for B in box])
    stacked.new_block(F0, var, F, corner=(dc, ko) if dc else None)
    for j in range(g):
        members.new_block(F0[j], var[j], F[j], corner=(dc, ko + j) if dc else None)
    assert stacked.block_dims() == members.block_dims()
    a, b = solve(stacked), solve(members)
    assert a.status == b.status == "Optimal"
    assert a.iters == b.iters
    assert np.abs(a.y - b.y).max() <= 1e-9


def test_adjoint_pairs_with_apply():
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = random_feasible_problem(int(rng.integers(0, 1000)))
        y = rng.standard_normal(p.num_vars)
        Zs = []
        for d in p.block_dims():
            G = rng.standard_normal((d, d))
            Zs.append(0.5 * (G + G.T))
        lhs = sum(np.vdot(S, Z) for S, Z in zip(p.evaluate_blocks(y), Zs))
        lhs -= sum(np.vdot(cb.F0, Z) for cb, Z in zip(p.compiled(), Zs))
        rhs = float(y @ p.adjoint(Zs))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_rejects_asymmetric_matrix():
    p = LmiProblem([1.0])
    with pytest.raises(AsymmetricInput):
        p.new_block(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_rejects_bad_indices():
    p = LmiProblem(np.zeros(4))
    E = np.eye(2)
    for kwargs in (
        {"var": [5], "F": [E]},  # variable out of range
        {"var": [-1], "F": [E]},
        {"var": [1, 1], "F": [E, E]},  # repeated
        {"var": [2, 1], "F": [E, E]},  # decreasing
        {"var": [[0, 1]], "F": [E, E]},  # not 1-D
        {"var": [0, 1], "F": [E]},  # F shape does not match var
        {"var": [0], "F": [np.eye(3)]},  # F shape does not match the block
        {"var": [0], "corner": (3, 1)},  # corner larger than the block
        {"var": [0], "corner": (2, 2)},  # corner variables 2..4 past num_vars
        {"var": [0], "corner": (1, 1)},  # a corner block takes columns dc.. only
    ):
        kwargs.setdefault("F", [E])
        with pytest.raises(DimensionMismatch):
            p.new_block(np.eye(2), **kwargs)
    with pytest.raises(AsymmetricInput):
        p.new_block(np.eye(2), [0, 1], [E, np.array([[0.0, 1.0], [0.0, 0.0]])])
    # the border row of a corner block is free; the rows below it are not
    border = np.array([[[2.0, 3.0], [0.0, 1.0], [0.5, 0.0]]])
    with pytest.raises(AsymmetricInput):
        p.new_block(np.eye(3), [0], border, corner=(1, 1))
    assert p.block_dims() == []


def test_stacked_f0_keeps_the_symmetry_rule_member_by_member():
    # new_block checks a stack's F0 in one pass of require_symmetric's rule:
    # max|F0_j - F0_j.T| <= 1e-12 (1 + max|F0_j|) for each member j, with the
    # error naming the member, and stores each member's symmetric part.
    from ddlqr.matlin import require_symmetric

    rng = np.random.default_rng(41)
    g, d = 5, 3
    G = rng.standard_normal((g, d, d))
    F0 = G + G.swapaxes(1, 2) + 1e-13 * rng.standard_normal((g, d, d))
    var = np.tile([0, 1], (g, 1))
    H = rng.standard_normal((g, 2, d, d))
    F = H + H.swapaxes(2, 3)
    p = LmiProblem(np.zeros(2))
    asym = F0.copy()
    asym[3, 0, 2] += 1e-9
    nonfinite = F0.copy()
    nonfinite[1, 1, 1] = np.nan
    for bad, err, match in (
        (asym, AsymmetricInput, r"F0\[3\]"),
        (nonfinite, ValueError, "non-finite"),
        (np.zeros((g, d, d - 1)), DimensionMismatch, "square"),
        (np.zeros((0, d, d)), DimensionMismatch, "square"),
    ):
        with pytest.raises(err, match=match):
            p.new_block(bad, var, F)
        assert p.block_dims() == []
    p.new_block(F0, var, F)
    assert p.block_dims() == [d] * g
    stored = p.compiled()[0].F0
    assert np.array_equal(stored, np.stack([require_symmetric(M, "F0") for M in F0]))


def test_solution_metadata():
    sol = solve(random_feasible_problem(0))
    assert sol.wall_time >= 0.0
    assert sol.y.shape == (random_feasible_problem(0).num_vars,)
    assert sol.optimal


# -- Schur assembly against brute force -----------------------------------------


def structured_problem_with_dense_twin(seed, dc=3, n_ord=16, ds=4):
    """Random problem mixing a 1-D block, a sparse ds x ds block, a block of
    entries and two column families (coefficients C[:, t] e_q.T + e_q C[:, t].T
    of variable varmat[t, q], e_q the basis vector at column col0 + q), and two
    corner blocks of different dimensions, each with a dc x dc corner and
    holding entries, such a family in its border rows (the shape of the
    baseline W block) and an identity in its trailing block, over n_ord
    ordinary variables. Each block is declared by its coefficient stack,
    columns dc.. of it for a corner block. Returns the problem, the corner
    variables and the explicit coefficient F_{b,i} of every variable in
    every block, built apart from the problem's own code."""
    rng = np.random.default_rng(seed)
    ncv = svec_len(dc)
    k = 2 * ncv + n_ord
    ordinary = np.arange(2 * ncv, k)
    p = LmiProblem(rng.standard_normal(k))
    dense = []

    def entries(var, G):
        """Dense coefficients (k, dim, dim) with sym(G[t]) at variable var[t]."""
        F = np.zeros((k,) + G.shape[1:])
        F[var] = 0.5 * (G + G.swapaxes(1, 2))
        return F

    def single_entries(var, dim, rows):
        """One random coordinate per variable, its row drawn from rows."""
        G = np.zeros((len(var), dim, dim))
        i, j = rng.choice(rows, len(var)), rng.integers(0, dim, len(var))
        G[np.arange(len(var)), i, j] = rng.standard_normal(len(var))
        return entries(var, G)

    def family(F, C, col0, varmat):
        for (t, q), var in np.ndenumerate(varmat):
            e = np.zeros(C.shape[0])
            e[col0 + q] = 1.0
            F[var] += np.outer(C[:, t], e) + np.outer(e, C[:, t])

    def block(F, corner=None):
        """Declare a random symmetric F0 plus the coefficients F of every
        variable whose F is nonzero; a corner block's F is zero in its
        corner, and the twin gets the corner's packed identity."""
        dim = F.shape[1]
        F0 = rng.standard_normal((dim, dim))
        var = np.flatnonzero(np.any(F != 0.0, axis=(1, 2)))
        dc, v0 = (0, 0) if corner is None else corner
        for kk, (i, j) in enumerate(zip(*np.triu_indices(dc))):
            F[v0 + kk, i, j] = F[v0 + kk, j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        dense.append(F)
        return p.new_block(0.5 * (F0 + F0.T), var, F[var][:, :, dc:], corner=corner)

    block(entries(rng.choice(ordinary, 5, replace=False), rng.standard_normal((5, 1, 1))))
    sparse = rng.uniform(size=(n_ord, ds, ds)) < 0.3
    block(entries(ordinary, rng.standard_normal((n_ord, ds, ds)) * sparse))

    fam_vars = rng.permutation(ordinary)
    F = single_entries(fam_vars[7:10], 6, np.arange(6))
    family(F, rng.standard_normal((6, 2)), 4, fam_vars[:4].reshape(2, 2))
    family(F, rng.standard_normal((6, 3)), 1, fam_vars[4:7].reshape(3, 1))
    block(F)

    for v0, nq in ((0, 2), (ncv, 3)):
        fam_vars = rng.permutation(ordinary)
        F = single_entries(fam_vars[3 * nq : 3 * nq + 3], dc + nq, dc + np.arange(nq))
        C = np.zeros((dc + nq, 3))
        C[:dc] = rng.standard_normal((dc, 3))
        family(F, C, dc, fam_vars[: 3 * nq].reshape(3, nq))
        # Entries land mostly in the border rows once dc >> nq, so one
        # variable also gets the identity in the trailing block.
        F[fam_vars[3 * nq], dc:, dc:] += np.eye(nq)
        block(F, (dc, v0))
    return p, np.arange(2 * ncv), dense


# Corners of 3 and 16 ordinary variables keep every triangular factor at
# order 32 or less; corners of 40 and 40 ordinary variables make _tril_inv
# halve both the corner factors and the Schur factor. The sparse block grows
# with them so that M stays nonsingular: a 4 x 4 block spans 10 directions.
@pytest.mark.parametrize(
    "seed,dc,n_ord,ds",
    [pytest.param(s, 3, 16, 4, id=str(s)) for s in range(6)]
    + [pytest.param(s, 40, 40, 8, id=f"{s}-dc40") for s in (6, 7)],
)
def test_schur_assembly_matches_brute_force(seed, dc, n_ord, ds):
    from ddlqr.conic.solver import _Factorization, _gram_index

    p, corner, dense = structured_problem_with_dense_twin(seed, dc, n_ord, ds)
    k = p.num_vars
    rng = np.random.default_rng(100 + seed)

    y = rng.standard_normal(k)
    Zs = [0.5 * (G + G.T) for G in (rng.standard_normal((d, d)) for d in p.block_dims())]
    for S, Fd, cb in zip(p.evaluate_blocks(y), dense, p.compiled()):
        assert np.abs(S - cb.F0 - np.tensordot(y, Fd, 1)).max() <= 1e-12
    adj = sum(np.array([np.vdot(F, Z) for F in Fd]) for Fd, Z in zip(dense, Zs))
    assert np.abs(p.adjoint(Zs) - adj).max() <= 1e-12

    Ws = []
    for d in p.block_dims():
        A = rng.standard_normal((d, d))
        Ws.append(A @ A.T + d * np.eye(d))
    # M_ij = sum_b tr(F_i W F_j W) = sum_b vec(F_i) . vec(W F_j W), W F_j W symmetric
    M = sum(Fd.reshape(k, -1) @ (W @ Fd @ W).reshape(k, -1).T for Fd, W in zip(dense, Ws))
    o = np.setdiff1d(np.arange(k), corner)
    M_red = M[np.ix_(o, o)] - M[np.ix_(o, corner)] @ np.linalg.solve(
        M[np.ix_(corner, corner)], M[np.ix_(corner, o)]
    )

    Ws = [W[None] for W in Ws]
    fact = _Factorization(p, Ws, [np.linalg.cholesky(W) for W in Ws], o, _gram_index(p, o))
    L = fact.chol
    assert np.abs(L @ L.T - M_red).max() <= 1e-9 * np.abs(M_red).max()

    E_list = [0.5 * (G + G.T) for G in (rng.standard_normal((d, d)) for d in p.block_dims())]
    rd = rng.standard_normal(k)
    rhs = sum(np.array([np.vdot(F, E) for F in Fd]) for Fd, E in zip(dense, E_list)) - rd
    dy_ref = np.linalg.solve(M, rhs)
    blocks = p.compiled()

    def split(v):
        """v with 0 in the corner entries, and each block's corner unpacked."""
        o_only = np.where(np.isin(np.arange(k), corner), 0.0, v)
        return o_only, [smat(v[cb.corner], cb.dc)[None] for cb in blocks]

    def packed(dy, dYc):
        for cb, D in zip(blocks, dYc):
            dy[cb.corner] = svec(D[0])
        return dy

    dy = packed(*fact.solve_kkt([E[None] for E in E_list], *split(rd), True))
    assert np.abs(dy - dy_ref).max() <= 1e-9 * np.abs(dy_ref).max()
    # One refinement step repairs an elimination that drops either corner
    # coupling, so the unrefined solve is checked on its own as well. Both
    # corners share dc, so one that takes another corner's factor is wrong
    # in value rather than in shape.
    dy = packed(*fact._reduced_solve(*split(rhs)))
    assert np.abs(dy - dy_ref).max() <= 1e-9 * np.abs(dy_ref).max()


def bounded_corner_problem_and_twin(seed, dc, n_ord, ds):
    """structured_problem_with_dense_twin's blocks made solvable: each F0
    shifted so that y = 0 is strictly feasible, a box |y_i| <= 10 on the
    ordinary variables and a positive-definite cost on each corner, which
    the corner's block bounds below. Returns the cornered problem, its twin
    declared with every coefficient explicit, and the corner variables."""
    p, corner, dense = structured_problem_with_dense_twin(seed, dc, n_ord, ds)
    rng = np.random.default_rng(200 + seed)
    k = p.num_vars
    c = p.objective.copy()
    for cb in p.compiled():
        if cb.dc:
            G = rng.standard_normal((cb.dc, cb.dc))
            c[cb.corner] = svec(G @ G.T / cb.dc + np.eye(cb.dc))
    cor, twin = LmiProblem(c), LmiProblem(c)
    for cb, Fd in zip(p.compiled(), dense):
        F0 = cb.F0[0] + (1.0 - min(0.0, np.linalg.eigvalsh(cb.F0[0])[0])) * np.eye(cb.dim)
        cor.new_block(F0, cb.lv[0], cb.F[0], corner=(cb.dc, cb.corner.start) if cb.dc else None)
        var = np.flatnonzero(np.any(Fd != 0.0, axis=(1, 2)))
        twin.new_block(F0, var, Fd[var])
    # One 1 x 1 block per bound: two n_ord x n_ord box blocks would nearly
    # double the columns of the twin's Gram product, of order 1680 at dc = 40.
    for q in (cor, twin):
        for i in np.setdiff1d(np.arange(k), corner):
            for sign in (1.0, -1.0):
                q.new_block([[10.0]], [i], [[[sign]]])
    return cor, twin, corner


@pytest.mark.parametrize("seed,dc,n_ord,ds", [(0, 3, 16, 4), (6, 40, 40, 8)])
def test_dense_corner_state_matches_explicit_twin(seed, dc, n_ord, ds):
    # The solver keeps each corner as a dense matrix and packs it into y at
    # exit; the twin carries the same variables as ordinary coefficients.
    cor, twin, corner = bounded_corner_problem_and_twin(seed, dc, n_ord, ds)
    s_cor, s_twin = solve(cor), solve(twin)
    assert s_cor.status == s_twin.status == "Optimal"
    assert abs(s_cor.objective - s_twin.objective) <= 1e-7 * abs(s_twin.objective)
    assert np.abs(s_cor.y[corner] - s_twin.y[corner]).max() <= 1e-5
    assert s_cor.objective == pytest.approx(float(cor.objective @ s_cor.y), rel=1e-12)
    scale = 1.0 + max(np.linalg.norm(cb.F0) for cb in cor.compiled())
    assert min_eig_at(cor, s_cor.y) >= -1e-9 * scale


def test_dual_residual_counts_the_corner_entries(monkeypatch):
    # A solve capped at one iteration reports the residuals of its start,
    # y = 0 and Z = I: the dual residual is |c - A*(I)| / (1 + |c|), c
    # scaled to max |c_i| <= 1, with the corner entries, held apart as
    # matrices, counted as their packed form.
    monkeypatch.setattr(solver_mod, "_MAX_ITERS", 1)
    cor, _, corner = bounded_corner_problem_and_twin(0, 3, 16, 4)
    c = cor.objective / max(1.0, np.abs(cor.objective).max())
    rd = c - cor.adjoint([np.eye(d) for d in cor.block_dims()])
    # the corner entries move the norm far beyond the tolerance below
    assert np.linalg.norm(rd) > 1.01 * np.linalg.norm(np.delete(rd, corner))
    sol = solve(cor)
    assert sol.status == "MaxIters"
    assert sol.dual_res == pytest.approx(np.linalg.norm(rd) / (1.0 + np.linalg.norm(c)), rel=1e-12)


# -- final dual correction ----------------------------------------------------


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_dual_correction_removes_rd_and_refuses_an_indefinite_z(sign):
    # A 2 x 2 block whose three coefficients span the symmetric matrices makes
    # A* one-to-one, so at any scaling W the correction is the one dZ with
    # A*(dZ) = rd: here D. Z's least eigenvalue is 1e-8, and D's -1e-6 there
    # would leave Z + D indefinite, so that correction is refused.
    from ddlqr.conic.solver import _Factorization

    p = LmiProblem(np.zeros(3))
    add_dense_block(
        p, np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)[::-1] / np.sqrt(2.0)]
    )
    W = np.array([[[2.0, 0.5], [0.5, 1.0]]])
    o = np.arange(3)
    fact = _Factorization(p, [W], [np.linalg.cholesky(W)], o, solver_mod._gram_index(p, o))
    Z = np.diag([1.0, 1e-8])[None]
    D = np.array([[0.3, 1e-4], [1e-4, sign * 1e-6]])
    Zn = solver_mod._dual_correction(fact, p.compiled(), [Z], p.adjoint([D]), [np.zeros((1, 0, 0))])
    if sign > 0:
        assert np.abs(Zn[0] - (Z + D)).max() <= 1e-14
    else:
        assert Zn is None


def test_refused_correction_leaves_the_solve_as_it_was(monkeypatch):
    # t I on both box blocks of random_feasible_problem is in the kernel of
    # A* and positive semidefinite, so a correction padded with it keeps the
    # dual residual and Z's definiteness but adds t tr(S_box) to the gap: the
    # gap re-check must refuse it, and the solve then runs on exactly as one
    # whose every correction is refused.
    seeds = range(12)
    plain = [solve(random_feasible_problem(s)) for s in seeds]
    correct = solver_mod._dual_correction

    def padded(*args):
        Zn = correct(*args)
        if Zn is None:
            return None
        return [Zb + 1e-6 * np.eye(Zb.shape[-1]) for Zb in Zn[:2]] + Zn[2:]

    monkeypatch.setattr(solver_mod, "_dual_correction", padded)
    gapped = [solve(random_feasible_problem(s)) for s in seeds]
    monkeypatch.setattr(solver_mod, "_dual_correction", lambda *args: None)
    refused = [solve(random_feasible_problem(s)) for s in seeds]
    for g, r in zip(gapped, refused):
        assert (g.iters, g.message, g.gap) == (r.iters, r.message, r.gap)
        assert np.array_equal(g.y, r.y)
    # the correction ends some of these solves early when it is accepted
    assert sum(p.iters < r.iters for p, r in zip(plain, refused)) >= 6


# -- triangular inverse -----------------------------------------------------------


def lower_factor(n, cond, rng):
    """Lower-triangular L with positive diagonal and 2-norm condition number
    cond: the transposed R factor of U diag(s) V.T, s log-spaced from 1 to
    1/cond, so L L.T is a Cholesky factorization."""
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    R = np.linalg.qr((U * np.geomspace(1.0, 1.0 / cond, n)) @ V.T, mode="r")
    return (np.sign(np.diag(R))[:, None] * R).T


@pytest.mark.parametrize("n", [0, 1, 3, 31, 32, 33, 64, 119, 179, 250])
def test_tril_inv_is_lower_triangular_and_accurate(n):
    from ddlqr.conic.solver import _tril_inv

    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n))
    u = np.finfo(float).eps / 2
    for L in (np.linalg.cholesky(A @ A.T + n * np.eye(n)), lower_factor(n, 1e12, rng)):
        X = _tril_inv(L)
        assert X.shape == (n, n)
        assert np.all(np.triu(X, 1) == 0.0)
        if n:
            # a backward-stable inverse leaves a residual of order n u cond(L)
            cond = np.linalg.cond(L)
            assert np.linalg.norm(X @ L - np.eye(n)) <= n * u * cond
    # A stack of factors gives each member's own inverse bitwise; at order 1
    # that is the reciprocal, as the row-slack corners of the baselines take it.
    Ls = np.stack([lower_factor(n, 10.0 ** (3 * j), rng) for j in range(4)])
    Xs = _tril_inv(Ls)
    assert all(np.array_equal(X, _tril_inv(L)) for X, L in zip(Xs, Ls))
    if n == 1:
        assert np.array_equal(Xs, 1.0 / Ls)


# -- step lengths -----------------------------------------------------------------


def test_predictor_step_reads_both_boundaries_from_one_eigvalsh():
    # The predictor's scaled dual step is -diag(lam) - dst, -I - Dn once
    # normalized, so its boundary -1 - max eig(Dn) comes from the eigvalsh
    # of the primal one. Blocks of orders 1-8 and one of order 62 with a
    # 60 x 60 corner, at random NT-scaled iterates; a shift of Rp by beta S
    # moves Dn by -beta I, so either boundary can be the nearer one.
    from ddlqr.conic.solver import _boundary_step, _directions, _nt_scaling

    rng = np.random.default_rng(26)
    ncv = svec_len(60)
    k = ncv + 10
    ordinary = np.arange(ncv, k)
    p = LmiProblem(np.zeros(k))
    for d in range(1, 9):
        G = rng.standard_normal((ordinary.size, d, d))
        p.new_block(np.eye(d), ordinary, G + G.swapaxes(1, 2))
    G = rng.standard_normal((ordinary.size, 62, 2))
    G[:, 60:] += G[:, 60:].swapaxes(1, 2)
    p.new_block(np.eye(62), ordinary, G, corner=(60, 0))
    compiled = p.compiled()

    def sym_rand(d):
        G = rng.standard_normal((d, d))
        return G + G.T

    def spd(d):
        G = rng.standard_normal((d, d))
        return G @ G.T + 0.1 * np.eye(d)

    def one_side(lam, D):
        """The step of one side alone: both steps the same."""
        return _boundary_step(lam, D, D)

    eps = np.finfo(float).eps
    nearer = set()
    for _ in range(20):
        S = [spd(cb.dim) for cb in compiled]
        scal = [_nt_scaling(Sb, spd(cb.dim)) for Sb, cb in zip(S, compiled)]
        Rp = [
            10.0 ** rng.uniform(-1, 1) * sym_rand(cb.dim) + rng.uniform(0, 3) * Sb
            for Sb, cb in zip(S, compiled)
        ]
        dYc = [sym_rand(cb.dc) for cb in compiled]
        _, dst, dzt, step = _directions(compiled, scal, rng.standard_normal(k), dYc, Rp)
        steps = []
        for (lam, _, _, _), Ds, Dz in zip(scal, dst, dzt):
            assert np.array_equal(Dz, -np.diag(lam) - Ds)
            got = _boundary_step(lam, Ds)
            primal, dual = one_side(lam, Ds), one_side(lam, Dz)
            assert _boundary_step(lam, Ds, Dz) == min(primal, dual)
            # Both are 1 / -(least eigenvalue), of -I - Dn formed two ways:
            # their difference is rounding of order eps |Dn| per entry.
            Dn = Ds / np.outer(np.sqrt(lam), np.sqrt(lam))
            tol = 10 * lam.size * eps * (1.0 + np.linalg.norm(Dn))
            assert abs(1.0 / got - 1.0 / min(primal, dual)) <= tol
            nearer.add(primal < dual)
            steps.append(got)
        assert step == min(steps)
    assert nearer == {True, False}

    # No boundary on one side: a PSD step P leaves only the dual's, and
    # -diag(lam) - P only the primal's.
    for d in (1, 4, 62):
        lam = _nt_scaling(spd(d), spd(d))[0]
        P = spd(d)
        D = -np.diag(lam) - P
        assert _boundary_step(lam, np.zeros((d, d))) == 1.0
        assert one_side(lam, P) == np.inf
        assert _boundary_step(lam, P) == pytest.approx(one_side(lam, D), rel=1e-12)
        assert one_side(lam, -np.diag(lam) - D) == np.inf
        assert _boundary_step(lam, D) == pytest.approx(one_side(lam, D), rel=1e-12)
