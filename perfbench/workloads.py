"""The four benchmark workloads: their inputs, operations and checks.

`build(name, seed)` makes a workload's inputs and returns one round: the list
of operations the closed loop runs in order, one at a time. Every operation
calls the program through module attributes looked up at call time
(`synthesis.synth_reduced_gram`, `datamodel.compute_stats`, ...), so the
traced run can wrap them from outside. An operation's check compares its
output with `reference`, which shares no code with the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from ddlqr import datamodel, effects, synthesis
from ddlqr.harness import experiments, sweep

# Gates against the independent reference. Over 19 seeds of the four
# workloads the program agreed to within 2.5e-6 on gains, closed loops and
# objectives (relative, floored at 1), and the objective identity of the
# paper sweeps held to 3e-12.
REF_TOL = 1e-5
IDENTITY_TOL = 1e-9
TRUTH_TOL = 1e-9

LAMBDA = 1.0
# The paper's two regularisation paths, as the CLI's deviation and gain-path
# presets run them: data seed, parameterisation, case labels and grid.
PAPER_SWEEPS = (
    (42, "gram", ("{1}", "{1,2}", "{1,3}", "{1,2,3}"), sweep.deviation_grid),
    (0, "covariance", ("{2}", "{3}", "{2,3}"), sweep.gain_path_grid),
)
# The solver's iteration count varies with the draw by up to 15 % per solve,
# so a round holds several plants or records per size to average that out
# and depend little on the seed. One operation runs every plant or record of
# one size, so the median latency is that of the middle size, an average
# over its group. Plant sizes map to plants per round; n = 10 has the fewest
# because its solves take about 3 s each and a round must fit the run.
PLANTS = {(4, 2): 3, (6, 3): 6, (10, 4): 2}
BASELINE_ELLS = (30, 60, 90)
# Baseline covariance is left out: on about 1 % of records its gain differs
# from its reduced twin's by more than 1e-5 (|dK| up to 1.6e-5), the bound
# the program's own acceptance test c05 sets, while both baseline gram
# programs stayed within 3e-6 on 240 records. An operation that fails on
# some seeds only would make the share of failed operations depend on the
# seed.
RECORDS_PER_ELL = 2
# An odd number of sizes, so that the median latency falls inside one size's
# group rather than on the gap between two. Largest first: the warm-up runs
# the first operation, and the process's first ell x ell allocation costs
# twice what later ones do.
LONG_ELLS = (6000, 4000, 3000, 2000, 1000)


@dataclass
class Op:
    """One operation: `run` is the timed call into the program and `check`
    returns what is wrong with its output (nothing when it is right)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _weights(label: str, parameterization: str, lam: float = LAMBDA) -> effects.RegWeights:
    return sweep.reduced_case(label, parameterization).weights_at(lam)


def _fit(d) -> ref.Fit:
    return ref.ls_fit(np.asarray(d.x0), np.asarray(d.u0), np.asarray(d.x1))


def _solution_problems(sol, answer: ref.Answer) -> list[str]:
    """Status, stability and agreement with the Riccati reference."""
    out = []
    if sol.status != "Optimal":
        out.append(f"status {sol.status}")
    rho = ref.spectral_radius(sol.A_cl)
    if not rho < 1.0:
        out.append(f"closed loop not stable: rho {rho:.6g}")
    for what, got, want in (
        ("K", sol.K, answer.K),
        ("A_cl", sol.A_cl, answer.A_cl),
        ("objective", sol.objective, answer.objective),
    ):
        err = ref.rel(got, want)
        if not err <= REF_TOL:
            out.append(f"{what} differs from the Riccati reference by {err:.3e}")
    return out


def _once(compute: Callable):
    """Compute a value on first use and keep it; reference answers are made
    this way, outside the timed call."""
    memo = []

    def get():
        if not memo:
            memo.append(compute())
        return memo[0]

    return get


def _reduced_answer(fit_of, Q, R, w: effects.RegWeights):
    gram = w.parameterization == "gram"
    return _once(lambda: ref.riccati(fit_of(), Q, R, w.lambda1, w.lambda2, w.lambda3, gram))


# -- paper-sweeps -------------------------------------------------------------


def _paper_sweeps(seed: int) -> list[Op]:
    cfg = experiments.ReferenceExperimentConfig()
    Q, R = cfg.q, cfg.r
    plant = synthesis.PlantModel(A=cfg.a, B=cfg.b, Q=Q, R=R)
    ops = []
    for data_seed, param, labels, grid in PAPER_SWEEPS:
        d = experiments.gen_reference_data(experiments.ReferenceExperimentConfig(seed=data_seed))
        stats = datamodel.compute_stats(d)
        fit_of = _once(lambda d=d: _fit(d))
        for label in labels:
            for lam in grid():
                w = _weights(label, param, float(lam))
                tag = f"{param} {label} lambda={lam:.4g}"
                ops.append(_sweep_point(tag, stats, w, Q, R, plant, _reduced_answer(fit_of, Q, R, w)))
    # The data are the paper's; the seed only sets the order of the points
    # after the first, which the warm-up runs in every run so that set-up
    # does not depend on the seed.
    order = 1 + np.random.default_rng([seed, 1]).permutation(len(ops) - 1)
    return [ops[0]] + [ops[i] for i in order]


def _sweep_point(label, stats, w, Q, R, plant, answer) -> Op:
    gram = w.parameterization == "gram"

    def run():
        fn = synthesis.synth_reduced_gram if gram else synthesis.synth_reduced_covar
        sol = fn(stats, Q, R, w)
        truth = synthesis.evaluate_on_truth(sol, plant)
        eff = effects.param_effect_closed(sol.K, sol.A_cl, sol.P, stats, w)
        return sol, truth, eff

    def check(out) -> list[str]:
        sol, truth, eff = out
        problems = _solution_problems(sol, answer())
        P, K = np.asarray(sol.P), np.asarray(sol.K)
        parts = float(np.trace(Q @ P) + np.trace(R @ K @ P @ K.T)) + eff.total
        err = abs(sol.objective - parts) / max(1.0, abs(parts))
        if not err <= IDENTITY_TOL:
            problems.append(f"objective differs from tr(QP)+tr(RKPK')+effects by {err:.3e}")
        rho, h2 = ref.truth_cost(plant.A, plant.B, Q, R, K)
        if not abs(truth.rho - rho) <= TRUTH_TOL:
            problems.append(f"true-plant rho {truth.rho} against {rho}")
        if (h2 is None) != (truth.h2_sq is None) or (
            h2 is not None and not abs(truth.h2_sq - h2) <= TRUTH_TOL * max(1.0, h2)
        ):
            problems.append(f"true-plant H2 {truth.h2_sq} against {h2}")
        return problems

    return Op(label, run, check)


# -- plant-scaling -------------------------------------------------------------


def _random_plant(rng: np.random.Generator, n: int, m: int):
    M = rng.standard_normal((n, n))
    A = 0.9 * M / ref.spectral_radius(M)
    return A, rng.standard_normal((n, m))


def _plant_scaling(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    ops = []
    for (n, m), count in PLANTS.items():
        plants = []
        for _ in range(count):
            A, B = _random_plant(rng, n, m)
            cfg = experiments.ReferenceExperimentConfig(
                a=A,
                b=B,
                q=np.eye(n),
                r=np.eye(m),
                ell=5 * (n + m),
                v=np.zeros(n),
                offset_scale=0.0,
                k_expl=np.zeros((m, n)),
                seed=int(rng.integers(2**31)),
            )
            d = experiments.gen_reference_data(cfg)
            plants.append((d, datamodel.compute_stats(d)))
        ops.append(_plant_op(f"n={n} m={m}", plants, np.eye(n), np.eye(m)))
    return ops


def _plant_op(tag, plants, Q, R) -> Op:
    """Both reduced programs on each plant of one size: gram {1,2,3}, then
    covariance {2,3}."""
    gram_w = _weights("{1,2,3}", "gram")
    covar_w = _weights("{2,3}", "covariance")
    answers = []
    for d, _ in plants:
        fit_of = _once(lambda d=d: _fit(d))
        answers += [_reduced_answer(fit_of, Q, R, w) for w in (gram_w, covar_w)]

    def run():
        out = []
        for _, stats in plants:
            out.append(synthesis.synth_reduced_gram(stats, Q, R, gram_w))
            out.append(synthesis.synth_reduced_covar(stats, Q, R, covar_w))
        return out

    def check(out) -> list[str]:
        return [p for sol, answer in zip(out, answers) for p in _solution_problems(sol, answer())]

    return Op(f"{tag}: reduced gram and covariance on {len(plants)} plants", run, check)


def _reduced_op(tag, d, Q, R, w, fit_of) -> Op:
    """Statistics and one reduced synthesis from the raw record."""
    gram = w.parameterization == "gram"
    answer = _reduced_answer(fit_of, Q, R, w)

    def run():
        fn = synthesis.synth_reduced_gram if gram else synthesis.synth_reduced_covar
        return fn(datamodel.compute_stats(d), Q, R, w)

    program = "reduced-gram" if gram else "reduced-covar"
    return Op(f"{tag} {program} {w.case_label}", run, lambda sol: _solution_problems(sol, answer()))


# -- baseline-ell --------------------------------------------------------------


def _baseline_ell(seed: int) -> list[Op]:
    record_seeds = np.random.default_rng([seed, 3]).integers(2**31, size=RECORDS_PER_ELL)
    ops = []
    for ell in BASELINE_ELLS:
        cfgs = [experiments.ReferenceExperimentConfig(seed=int(r), ell=ell) for r in record_seeds]
        records = [experiments.gen_reference_data(cfg) for cfg in cfgs]
        ops.append(_baseline_op(ell, records, cfgs[0].q, cfgs[0].r))
    return ops


def _baseline_op(ell, records, Q, R) -> Op:
    """Both baseline gram programs on each record, plain ({1,2,3}) and
    projected ({1}), each followed by its reduced twin, each from the raw
    record. Every program is checked against the Riccati reference, and each
    baseline against its twin."""
    runs = []
    for d in records:
        fit_of = _once(lambda d=d: _fit(d))
        for projected, label in ((False, "{1,2,3}"), (True, "{1}")):
            w = _weights(label, "gram")
            twin = _reduced_op(f"ell={ell}", d, Q, R, w, fit_of)
            runs.append((d, projected, twin, _reduced_answer(fit_of, Q, R, w)))

    def run():
        out = []
        for d, projected, twin, _ in runs:
            stats = datamodel.compute_stats(d)
            base = synthesis.synth_baseline_gram(d, stats, Q, R, LAMBDA, projected=projected)
            out.append((base, twin.run()))
        return out

    def check(out) -> list[str]:
        problems = []
        for (_, projected, _, answer), (base, reduced) in zip(runs, out):
            kind = "baseline-gram-proj" if projected else "baseline-gram"
            problems += _solution_problems(base, answer()) + _solution_problems(reduced, answer())
            dk = float(np.linalg.norm(np.asarray(reduced.K) - np.asarray(base.K)))
            dobj = abs(reduced.objective - base.objective) / (1.0 + abs(base.objective))
            if not (dk <= REF_TOL and dobj <= REF_TOL):
                problems.append(f"{kind} and its reduced twin differ: |dK| {dk:.3e}, objective {dobj:.3e}")
        return problems

    return Op(f"ell={ell} baseline gram, projected gram and their reduced twins", run, check)


# -- long-record ---------------------------------------------------------------


def _long_record(seed: int) -> list[Op]:
    ops = []
    for ell in LONG_ELLS:
        cfg = experiments.ReferenceExperimentConfig(seed=seed, ell=ell)
        d = experiments.gen_reference_data(cfg)
        fit_of = _once(lambda d=d: _fit(d))
        w = _weights("{1,2,3}", "gram")
        ops.append(_reduced_op(f"ell={ell}", d, cfg.q, cfg.r, w, fit_of))
    return ops


_BUILDERS = {
    "paper-sweeps": _paper_sweeps,
    "plant-scaling": _plant_scaling,
    "baseline-ell": _baseline_ell,
    "long-record": _long_record,
}


def build(name: str, seed: int) -> list[Op]:
    """Make the workload's inputs from the seed and return one round of it."""
    return _BUILDERS[name](seed)
