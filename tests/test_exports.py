"""The package's public surface: every exported name exists, and the
program runs on numpy alone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import ddlqr
from ddlqr.conic import LmiProblem
from ddlqr.conic.problem import _Block
from ddlqr.datamodel import DataStats
from ddlqr.harness import SweepCase
from ddlqr.synthesis import SdpLayout

# Removed API: helpers only tests called, the sweep's baseline cases, the
# solver's settings object and the certainty-equivalence twin of
# synth_reduced_covar at zero weights, and the eigendecomposition-based
# covariance inverses that DataStats now reads off its triangular factor, and
# the Riccati path's expanded gain-deviation penalty, now a completed square,
# and the builders' entry-by-entry placement, now one dense stack per block,
# and the column families with their special-case Schur terms, now one Gram
# formula for every block, and the cached triangle indices and the baseline
# builders' own weight check, now computed where used and one weight rule.
DELETED = {
    "svec_index",
    "new_problem",
    "cholesky",
    "rank",
    "check_excitation",
    "column_normals",
    "baseline_case",
    "SolverSettings",
    "_default_settings",
    "ce_lqr",
    "_pd_eigh",
    "inv_pd",
    "inv_sqrt_pd",
    "_shifted_lqr",
    "_add_upper",
    "_add_border",
    "_Family",
    "_CompiledBlock",
    "_CornerCoupling",
    "_pair_terms",
    "_block_schur",
    "_status_row",
    "_check_gain",
    "_check_square",
    "_triu",
    "_baseline_weights",
}


def test_every_export_resolves_and_no_removed_name_is_exported():
    modules = ["ddlqr"] + [m.name for m in pkgutil.walk_packages(ddlqr.__path__, "ddlqr.")]
    assert "ddlqr.harness.sweep" in modules
    for name in modules:
        mod = importlib.import_module(name)
        exported = set(getattr(mod, "__all__", ()))
        assert all(hasattr(mod, sym) for sym in exported), name
        assert not exported & DELETED, name
        assert not DELETED & set(vars(mod)), name
    for method in ("add_block", "add_entry", "set_block_const", "set_objective",
                   "add_corner_slack", "add_column_family"):
        assert not hasattr(LmiProblem, method), method
    assert not hasattr(SdpLayout, "var_grid")
    assert not hasattr(_Block, "vars_touched")
    assert "ab_ls" not in DataStats.__dataclass_fields__
    assert "program" not in SweepCase.__dataclass_fields__


def run_python(code):
    """Run code in a fresh interpreter that imports this checkout's ddlqr."""
    src = str(Path(ddlqr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


def test_program_runs_without_scipy():
    # sys.modules[name] = None makes every import of scipy raise ImportError.
    blocked = run_python("""
import sys
sys.modules["scipy"] = None
import ddlqr.harness.cli
from ddlqr.datamodel import compute_stats
from ddlqr.effects import RegWeights
from ddlqr.harness.experiments import ReferenceExperimentConfig, gen_reference_data
from ddlqr.synthesis import synth_baseline_covar, synth_baseline_gram, synth_reduced_gram

cfg = ReferenceExperimentConfig(ell=30)
d = gen_reference_data(cfg)
st = compute_stats(d)
sols = [
    synth_reduced_gram(st, cfg.q, cfg.r, RegWeights(1.0, 1.0, 1.0)),
    synth_baseline_gram(d, st, cfg.q, cfg.r, 1.0, projected=False),
    synth_baseline_covar(st, cfg.q, cfg.r, 1.0),
]
assert all(s.status == "Optimal" for s in sols)
""")
    assert blocked.returncode == 0, blocked.stderr
    plain = run_python("import sys, ddlqr.harness.cli; assert 'scipy' not in sys.modules")
    assert plain.returncode == 0, plain.stderr
