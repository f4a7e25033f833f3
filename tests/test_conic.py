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
    factorization, "nan" makes the dual residual non-finite."""
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
        real = p.adjoint

        def adjoint(Z_list):
            calls.append(None)
            g = real(Z_list)
            return np.full_like(g, np.nan) if len(calls) >= k else g

        monkeypatch.setattr(p, "adjoint", adjoint)


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
        assert np.array_equal(cb.lv, np.delete(np.arange(k), zero))

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


def test_solution_metadata():
    sol = solve(random_feasible_problem(0))
    assert sol.wall_time >= 0.0
    assert sol.y.shape == (random_feasible_problem(0).num_vars,)
    assert sol.optimal


# -- Schur assembly against brute force -----------------------------------------


def structured_problem_with_dense_twin(seed):
    """Random problem mixing a 1-D block, a sparse 4 x 4 block, a block of
    entries and two column families (coefficients C[:, t] e_q.T + e_q C[:, t].T
    of variable varmat[t, q], e_q the basis vector at column col0 + q), and a
    corner block holding entries and such a family in its border rows (the
    shape of the baseline W block). Each block is declared by its coefficient
    stack, columns dc.. of it for the corner block. Returns the problem, the
    corner variables and the explicit coefficient F_{b,i} of every variable in
    every block, built apart from the problem's own code."""
    rng = np.random.default_rng(seed)
    dc, nq = 3, 2
    ncv = svec_len(dc)
    k = ncv + 16
    ordinary = np.arange(ncv, k)
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

    def block(F, dc=0):
        """Declare a random symmetric F0 plus the coefficients F of every
        variable whose F is nonzero; a corner block's F is zero in its
        corner, and the twin gets the corner's packed identity."""
        dim = F.shape[1]
        F0 = rng.standard_normal((dim, dim))
        var = np.flatnonzero(np.any(F != 0.0, axis=(1, 2)))
        corner = None
        if dc:
            corner = (dc, 0)
            for kk, (i, j) in enumerate(zip(*np.triu_indices(dc))):
                F[kk, i, j] = F[kk, j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        dense.append(F)
        return p.new_block(0.5 * (F0 + F0.T), var, F[var][:, :, dc:], corner=corner)

    block(entries(rng.choice(ordinary, 5, replace=False), rng.standard_normal((5, 1, 1))))
    block(entries(ordinary, rng.standard_normal((16, 4, 4)) * (rng.uniform(size=(16, 4, 4)) < 0.3)))

    fam_vars = rng.permutation(ordinary)
    F = single_entries(fam_vars[7:10], 6, np.arange(6))
    family(F, rng.standard_normal((6, 2)), 4, fam_vars[:4].reshape(2, 2))
    family(F, rng.standard_normal((6, 3)), 1, fam_vars[4:7].reshape(3, 1))
    block(F)

    fam_vars = rng.permutation(ordinary)
    F = single_entries(fam_vars[6:9], dc + nq, dc + np.arange(nq))
    C = np.zeros((dc + nq, 3))
    C[:dc] = rng.standard_normal((dc, 3))
    family(F, C, dc, fam_vars[:6].reshape(3, nq))
    block(F, dc)
    return p, np.arange(ncv), dense


@pytest.mark.parametrize("seed", range(6))
def test_schur_assembly_matches_brute_force(seed):
    from ddlqr.conic.solver import _Factorization

    p, corner, dense = structured_problem_with_dense_twin(seed)
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
    M = np.zeros((k, k))
    for Fd, W in zip(dense, Ws):
        for i in range(k):
            for j in range(k):
                M[i, j] += np.trace(Fd[i] @ W @ Fd[j] @ W)
    o = np.setdiff1d(np.arange(k), corner)
    M_red = M[np.ix_(o, o)] - M[np.ix_(o, corner)] @ np.linalg.solve(
        M[np.ix_(corner, corner)], M[np.ix_(corner, o)]
    )

    pos_of = np.full(k, -1, dtype=np.intp)
    pos_of[o] = np.arange(o.size)
    fact = _Factorization(p.compiled(), Ws, [np.linalg.cholesky(W) for W in Ws], o, pos_of, k)
    L = fact.chol
    assert np.abs(L @ L.T - M_red).max() <= 1e-9 * np.abs(M_red).max()

    E_list = [0.5 * (G + G.T) for G in (rng.standard_normal((d, d)) for d in p.block_dims())]
    rd = rng.standard_normal(k)
    rhs = sum(np.array([np.vdot(F, E) for F in Fd]) for Fd, E in zip(dense, E_list)) - rd
    dy_ref = np.linalg.solve(M, rhs)
    dy = fact.solve_kkt(E_list, rd)
    assert np.abs(dy - dy_ref).max() <= 1e-9 * np.abs(dy_ref).max()
    # One refinement step repairs an elimination that drops either corner
    # coupling, so the unrefined solve is checked on its own as well.
    assert np.abs(fact._reduced_solve(rhs) - dy_ref).max() <= 1e-9 * np.abs(dy_ref).max()
