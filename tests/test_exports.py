"""The package's public surface: every exported name exists."""

import importlib
import pkgutil

import ddlqr
from ddlqr.conic import LmiProblem
from ddlqr.datamodel import DataStats
from ddlqr.synthesis import SdpLayout

# Removed API: helpers only tests called, the sweep's baseline cases, the
# solver's settings object and the certainty-equivalence twin of
# synth_reduced_covar at zero weights, and the eigendecomposition-based
# covariance inverses that DataStats now reads off its triangular factor, and
# the Riccati path's expanded gain-deviation penalty, now a completed square,
# and the builders' entry-by-entry placement, now one dense stack per block,
# and the column families with their special-case Schur terms, now one Gram
# formula for every block.
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
    assert "ab_ls" not in DataStats.__dataclass_fields__
