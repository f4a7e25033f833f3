"""Solver checks on small LMI programs with known optima."""

import numpy as np
import pytest

from ddlqr.conic import (
    LmiProblem,
    SolverSettings,
    new_problem,
    smat,
    solve,
    svec,
    svec_index,
    svec_len,
)
from ddlqr.errors import AsymmetricInput, DimensionMismatch


def random_feasible_problem(seed):
    # box constraints keep every instance bounded; extra random blocks are
    # feasible at y = 0 by construction
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 11))
    nblocks = int(rng.integers(1, 7))
    p = new_problem(k)
    p.set_objective(rng.standard_normal(k))
    box = 10.0
    p.add_block([box * np.eye(k)] + [np.diag((np.arange(k) == i).astype(float)) for i in range(k)])
    p.add_block([box * np.eye(k)] + [-np.diag((np.arange(k) == i).astype(float)) for i in range(k)])
    for _ in range(nblocks):
        d = int(rng.integers(1, 7))
        Fs = []
        for _i in range(k):
            G = rng.standard_normal((d, d))
            Fs.append(0.5 * (G + G.T) if rng.uniform() < 0.8 else None)
        G0 = rng.standard_normal((d, d))
        p.add_block([G0 @ G0.T + 0.5 * np.eye(d)] + Fs)
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
    for i in range(4):
        for j in range(i, 4):
            v = np.zeros(svec_len(4))
            v[svec_index(i, j, 4)] = 1.0
            M = smat(v, 4)
            assert M[i, j] != 0.0


def test_scalar_lower_bound():
    p = new_problem(1)
    p.set_objective([1.0])
    p.add_block([np.zeros((1, 1)), np.eye(1)])
    sol = solve(p)
    assert sol.status == "Optimal"
    assert abs(sol.objective) <= 1e-7


def test_offdiagonal_coupling():
    p = new_problem(1)
    p.set_objective([-1.0])
    p.add_block([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
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
    p = new_problem(k)
    p.set_objective(rng.standard_normal(k))
    box = 10.0
    p.add_block([10 * box * np.eye(k)] + [10 * np.diag((np.arange(k) == i).astype(float)) for i in range(k)])
    p.add_block([10 * box * np.eye(k)] + [-10 * np.diag((np.arange(k) == i).astype(float)) for i in range(k)])
    for _ in range(nblocks):
        d = int(rng.integers(1, 7))
        Fs = []
        for _i in range(k):
            G = rng.standard_normal((d, d))
            Fs.append(5.0 * (G + G.T) if rng.uniform() < 0.8 else None)
        G0 = rng.standard_normal((d, d))
        p.add_block([10.0 * (G0 @ G0.T + 0.5 * np.eye(d))] + Fs)
    scaled = solve(p)
    assert scaled.status == "Optimal"
    assert np.abs(scaled.y - base.y).max() <= 1e-6


def test_infeasible_pair_detected():
    p = new_problem(1)
    p.set_objective([1.0])
    p.add_block([np.array([[-1.0]]), np.array([[1.0]])])
    p.add_block([np.array([[-1.0]]), np.array([[-1.0]])])
    sol = solve(p)
    assert sol.status == "Infeasible"
    assert not sol.optimal


def test_unbounded_ray_detected():
    p = new_problem(1)
    p.set_objective([-1.0])
    p.add_block([np.zeros((1, 1)), np.eye(1)])
    sol = solve(p)
    assert sol.status == "Unbounded"


def test_no_constraint_statuses():
    p = new_problem(2)
    p.set_objective([1.0, 0.0])
    assert solve(p).status == "Unbounded"
    q = new_problem(2)
    q.set_objective([0.0, 0.0])
    sol = solve(q)
    assert sol.status == "Optimal"
    assert sol.objective == 0.0


def test_untouched_variable_with_zero_cost():
    p = new_problem(3)
    p.set_objective([-1.0, 0.5, 0.0])
    p.add_block([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), None, None])
    p.add_block([np.eye(1), None, np.array([[1.0]]), None])
    sol = solve(p)
    assert sol.status == "Optimal"
    assert sol.y[2] == 0.0
    assert sol.objective == pytest.approx(-1.5, abs=1e-6)


def test_max_iters_status():
    p = new_problem(1)
    p.set_objective([-1.0])
    p.add_block([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])])
    sol = solve(p, SolverSettings(max_iters=2))
    assert sol.status == "MaxIters"
    assert sol.iters == 2
    assert not sol.optimal


def test_settings_validation():
    with pytest.raises(ValueError):
        SolverSettings(tol_gap=0.0)
    with pytest.raises(ValueError):
        SolverSettings(tol_feas=-1e-9)
    with pytest.raises(ValueError):
        SolverSettings(max_iters=0)


def test_entry_api_matches_dense_blocks():
    # one structured build, one add_block build, same data
    rng = np.random.default_rng(11)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(2, 6))
        G0 = rng.standard_normal((d, d))
        F0 = G0 @ G0.T + 0.5 * np.eye(d)
        Fs = []
        for _i in range(k):
            G = rng.standard_normal((d, d))
            Fs.append(0.5 * (G + G.T))
        c = rng.standard_normal(k)

        dense = new_problem(k)
        dense.set_objective(c)
        dense.add_block([F0] + Fs)

        ent = new_problem(k)
        ent.set_objective(c)
        bid = ent.new_block(d)
        ent.set_block_const(bid, F0)
        for var, F in enumerate(Fs):
            for i in range(d):
                for j in range(i, d):
                    ent.add_entry(bid, var, i, j, float(F[i, j]))

        y = rng.standard_normal(k)
        for A, B in zip(dense.evaluate_blocks(y), ent.evaluate_blocks(y)):
            assert np.abs(A - B).max() <= 1e-13
        Zs = [0.5 * (M + M.T) for M in (rng.standard_normal((d, d)),)]
        assert np.abs(dense.adjoint(Zs) - ent.adjoint(Zs)).max() <= 1e-13


def test_column_family_matches_dense():
    rng = np.random.default_rng(23)
    k, d, T, nq, col0 = 6, 5, 2, 2, 1
    C = rng.standard_normal((d, T))
    varmat = np.array([[0, 1], [2, 3]])
    G0 = rng.standard_normal((d, d))
    F0 = G0 @ G0.T + 2.0 * np.eye(d)
    c = rng.standard_normal(k)

    fam = new_problem(k)
    fam.set_objective(c)
    bid = fam.new_block(d)
    fam.set_block_const(bid, F0)
    fam.add_column_family(bid, C, col0, varmat)
    fam.add_entry(bid, 4, 0, 0, 1.0)
    box = 5.0
    fam.add_block([box * np.eye(k)] + [np.diag((np.arange(k) == i).astype(float)) for i in range(k)])
    fam.add_block([box * np.eye(k)] + [-np.diag((np.arange(k) == i).astype(float)) for i in range(k)])

    Fs = [np.zeros((d, d)) for _ in range(k)]
    for t in range(T):
        for q in range(nq):
            e = np.zeros(d)
            e[col0 + q] = 1.0
            Fs[varmat[t, q]] += np.outer(C[:, t], e) + np.outer(e, C[:, t])
    Fs[4][0, 0] += 1.0
    dense = new_problem(k)
    dense.set_objective(c)
    dense.add_block([F0] + Fs)
    dense.add_block([box * np.eye(k)] + [np.diag((np.arange(k) == i).astype(float)) for i in range(k)])
    dense.add_block([box * np.eye(k)] + [-np.diag((np.arange(k) == i).astype(float)) for i in range(k)])

    y = rng.standard_normal(k)
    for A, B in zip(fam.evaluate_blocks(y), dense.evaluate_blocks(y)):
        assert np.abs(A - B).max() <= 1e-13

    s_fam = solve(fam)
    s_dense = solve(dense)
    assert s_fam.status == "Optimal"
    assert s_dense.status == "Optimal"
    assert s_fam.objective == pytest.approx(s_dense.objective, abs=1e-6)
    assert np.abs(s_fam.y - s_dense.y).max() <= 1e-5


def test_corner_slack_matches_dense():
    # min tr(W) + t st [[W, a], [a.T, t]] >= 0 and t <= 3, |a| = 2:
    # optimum t = 2, W = a a.T / 2, objective 4
    a = np.array([2.0 * np.cos(0.3), 2.0 * np.sin(0.3)])
    nw = svec_len(2)
    k = nw + 1
    c = np.zeros(k)
    c[svec_index(0, 0, 2)] = 1.0
    c[svec_index(1, 1, 2)] = 1.0
    c[nw] = 1.0

    cor = new_problem(k)
    cor.set_objective(c)
    bid = cor.new_block(3)
    F0 = np.zeros((3, 3))
    F0[0, 2], F0[1, 2] = a[0], a[1]
    F0[2, 0], F0[2, 1] = a[0], a[1]
    cor.set_block_const(bid, F0)
    cor.add_corner_slack(bid, 2, 0)
    cor.add_entry(bid, nw, 2, 2, 1.0)
    cor.add_block([np.array([[3.0]]), None, None, None, np.array([[-1.0]])])

    s2 = np.sqrt(2.0)
    Fw = [np.zeros((3, 3)) for _ in range(nw)]
    Fw[svec_index(0, 0, 2)][0, 0] = 1.0
    Fw[svec_index(1, 1, 2)][1, 1] = 1.0
    Fw[svec_index(0, 1, 2)][0, 1] = 1.0 / s2
    Fw[svec_index(0, 1, 2)][1, 0] = 1.0 / s2
    Ft = np.zeros((3, 3))
    Ft[2, 2] = 1.0
    dense = new_problem(k)
    dense.set_objective(c)
    dense.add_block([F0] + Fw + [Ft])
    dense.add_block([np.array([[3.0]]), None, None, None, np.array([[-1.0]])])

    s_cor = solve(cor)
    s_dense = solve(dense)
    assert s_cor.status == "Optimal"
    assert s_cor.objective == pytest.approx(4.0, abs=1e-5)
    assert s_dense.objective == pytest.approx(4.0, abs=1e-5)
    assert np.abs(s_cor.y - s_dense.y).max() <= 1e-5
    W = smat(s_cor.y[:nw], 2)
    assert np.abs(W - np.outer(a, a) / 2.0).max() <= 1e-4


def test_corner_variables_must_stay_slack_only():
    p = new_problem(4)
    p.set_objective(np.ones(4))
    bid = p.new_block(3)
    p.set_block_const(bid, np.eye(3))
    p.add_corner_slack(bid, 2, 0)
    p.add_entry(bid, 0, 2, 2, 1.0)  # corner var reused as ordinary coefficient
    with pytest.raises(DimensionMismatch):
        p.compiled()


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
    p = new_problem(1)
    p.set_objective([1.0])
    with pytest.raises(AsymmetricInput):
        p.add_block([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_rejects_bad_indices():
    p = new_problem(2)
    bid = p.new_block(2)
    with pytest.raises(DimensionMismatch):
        p.add_entry(bid, 5, 0, 0, 1.0)
    with pytest.raises(DimensionMismatch):
        p.add_entry(bid, 0, 2, 0, 1.0)
    with pytest.raises(DimensionMismatch):
        p.add_block([np.eye(2)])


def test_solution_metadata():
    sol = solve(random_feasible_problem(0))
    assert sol.wall_time >= 0.0
    assert sol.y.shape == (random_feasible_problem(0).num_vars,)
    assert sol.optimal


def test_family_variables_must_be_distinct_within_a_block():
    p = new_problem(3)
    bid = p.new_block(3)
    p.add_entry(bid, 0, 0, 0, 1.0)
    p.add_column_family(bid, np.ones((3, 1)), 2, np.array([[0]]))  # var 0 is also an entry
    with pytest.raises(DimensionMismatch):
        p.compiled()


# -- Schur assembly against brute force -----------------------------------------


def structured_problem_with_dense_twin(seed):
    """Random problem mixing a 1-D block, an entry block with duplicate
    coordinates, a block with two column families, and a corner block holding
    entries and a family (the shape of the baseline W block). Returns the
    problem, the corner variables and the explicit coefficient F_{b,i} of
    every variable in every block, built apart from the problem's own code."""
    rng = np.random.default_rng(seed)
    dc, nq = 3, 2
    ncv = svec_len(dc)
    k = ncv + 16
    ordinary = list(range(ncv, k))
    p = new_problem(k)
    dense = []

    def block(dim):
        bid = p.new_block(dim)
        G0 = rng.standard_normal((dim, dim))
        p.set_block_const(bid, 0.5 * (G0 + G0.T))
        dense.append(np.zeros((k, dim, dim)))
        return bid

    def entry(bid, var, i, j, val):
        p.add_entry(bid, var, i, j, val)
        dense[bid][var, i, j] += val
        if i != j:
            dense[bid][var, j, i] += val

    def family(bid, C, col0, varmat):
        p.add_column_family(bid, C, col0, varmat)
        for (t, q), var in np.ndenumerate(varmat):
            e = np.zeros(C.shape[0])
            e[col0 + q] = 1.0
            dense[bid][var] += np.outer(C[:, t], e) + np.outer(e, C[:, t])

    bid = block(1)
    for var in rng.choice(ordinary, 5, replace=False):
        entry(bid, int(var), 0, 0, rng.standard_normal())
        entry(bid, int(var), 0, 0, rng.standard_normal())

    bid = block(4)
    for var in ordinary:
        for _ in range(3):
            i, j = (int(v) for v in rng.integers(0, 4, 2))
            entry(bid, var, i, j, rng.standard_normal())
            entry(bid, var, j, i, rng.standard_normal())

    bid = block(6)
    fam_vars = rng.permutation(ordinary)
    family(bid, rng.standard_normal((6, 2)), 4, fam_vars[:4].reshape(2, 2))
    family(bid, rng.standard_normal((6, 3)), 1, fam_vars[4:7].reshape(3, 1))
    for var in fam_vars[7:10]:
        entry(bid, int(var), int(rng.integers(0, 6)), int(rng.integers(0, 6)), rng.standard_normal())

    bid = block(dc + nq)
    p.add_corner_slack(bid, dc, 0)
    for kk, (i, j) in enumerate(zip(*np.triu_indices(dc))):
        dense[bid][kk, i, j] = dense[bid][kk, j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
    C = np.zeros((dc + nq, 3))
    C[:dc] = rng.standard_normal((dc, 3))
    fam_vars = rng.permutation(ordinary)
    family(bid, C, dc, fam_vars[:6].reshape(3, nq))
    for var in fam_vars[6:9]:
        entry(bid, int(var), dc + int(rng.integers(0, nq)), int(rng.integers(0, dc + nq)), 1.0)
    p.set_objective(rng.standard_normal(k))
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
    fact = _Factorization(p.compiled(), Ws, o, pos_of, k)
    L = np.tril(fact.factor[0])
    assert np.abs(L @ L.T - M_red).max() <= 1e-9 * np.abs(M_red).max()

    E_list = [0.5 * (G + G.T) for G in (rng.standard_normal((d, d)) for d in p.block_dims())]
    rd = rng.standard_normal(k)
    rhs = sum(np.array([np.vdot(F, E) for F in Fd]) for Fd, E in zip(dense, E_list)) - rd
    dy_ref = np.linalg.solve(M, rhs)
    dy = fact.solve_kkt(E_list, rd)
    assert np.abs(dy - dy_ref).max() <= 1e-9 * np.abs(dy_ref).max()
