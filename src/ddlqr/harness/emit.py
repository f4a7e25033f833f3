"""CSV, JSON, and SVG emission for sweep and benchmark artifacts.

Numbers are written at 17 significant digits so identical inputs produce
identical bytes; figures are plain SVG built with ElementTree so the
output is always well-formed XML.
"""

from __future__ import annotations

import csv
import json
import xml.etree.ElementTree as ET

import numpy as np

from ..errors import DimensionMismatch
from ..synthesis import LqrSolution
from .sweep import BenchRow, SweepRow

__all__ = [
    "emit_bench_csv",
    "emit_csv",
    "emit_solution_json",
    "emit_svg_phase_portrait",
]

_SVG_NS = "http://www.w3.org/2000/svg"
_PALETTE = ("#1f6f8b", "#c84b31", "#5e8d48", "#7d5ba6", "#b8860b", "#3c3c3c")


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _opt(v: float | None) -> str:
    return "" if v is None else _fmt(v)


# -- CSV ----------------------------------------------------------------------


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write sweep rows; gain and closed-loop entries get one column each.

    Non-Optimal rows leave every derived column empty. The truth column
    holds the cost when the true closed loop is stable, the word
    "unstable" when it is not, and stays empty when no plant was given.
    """
    if not rows:
        raise DimensionMismatch("refusing to write an empty sweep table")
    n, m = rows[0].n, rows[0].m
    header = ["case", "lambda", "status"]
    header += [f"k_{i + 1}{j + 1}" for i in range(m) for j in range(n)]
    header += [f"acl_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
    header += ["deviation", "dist_to_kls", "h2_on_truth", "objective", "wall_time_s"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            if (r.n, r.m) != (n, m):
                raise DimensionMismatch("sweep rows mix system dimensions")
            rec = [r.case_label, _fmt(r.lam), r.status]
            if r.K is None:
                rec += [""] * (m * n + n * n + 4)
            else:
                rec += [_fmt(v) for v in r.K.reshape(-1)]
                rec += [_fmt(v) for v in r.A_cl.reshape(-1)]
                rec += [_opt(r.deviation), _opt(r.dist_to_kls)]
                if r.truth_stable is None:
                    rec.append("")
                elif r.truth_stable:
                    rec.append(_fmt(r.h2_on_truth))
                else:
                    rec.append("unstable")
                rec.append(_opt(r.objective))
            rec.append(_fmt(r.wall_time_s))
            writer.writerow(rec)


def emit_bench_csv(rows: list[BenchRow], path) -> None:
    if not rows:
        raise DimensionMismatch("refusing to write an empty benchmark table")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["ell", "program", "repeats", "mean_s", "min_s", "max_s", "num_vars", "max_block_dim"]
        )
        for r in rows:
            writer.writerow(
                [
                    r.ell,
                    r.program_label,
                    r.repeats,
                    _fmt(r.mean_s),
                    _fmt(r.min_s),
                    _fmt(r.max_s),
                    r.num_vars,
                    r.max_block_dim,
                ]
            )


def emit_solution_json(sol: LqrSolution, path) -> None:
    """Flat JSON record of one synthesized controller."""
    m, n = sol.K.shape
    rec = {
        "n": n,
        "m": m,
        "program": sol.program_id,
        "status": sol.status,
        "objective": sol.objective,
        "k": [float(v) for v in sol.K.reshape(-1)],
        "p": [float(v) for v in sol.P.reshape(-1)],
        "a_cl": [float(v) for v in sol.A_cl.reshape(-1)],
    }
    if sol.solver is not None:
        rec["solver"] = {
            "iterations": sol.solver.iters,
            "primal_res": sol.solver.primal_res,
            "dual_res": sol.solver.dual_res,
            "gap": sol.solver.gap,
            "message": sol.solver.message,
        }
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- SVG ----------------------------------------------------------------------

_VIEW = 560.0
_PAD = 40.0
_SPAN = 10.0


def _svg_root() -> ET.Element:
    root = ET.Element(
        "svg",
        {
            "xmlns": _SVG_NS,
            "viewBox": f"0 0 {_VIEW:g} {_VIEW:g}",
            "width": f"{_VIEW:g}",
            "height": f"{_VIEW:g}",
        },
    )
    ET.SubElement(
        root,
        "rect",
        {"x": "0", "y": "0", "width": f"{_VIEW:g}", "height": f"{_VIEW:g}", "fill": "white"},
    )
    return root


def _portrait_px(x: float, y: float) -> tuple[float, float]:
    side = _VIEW - 2.0 * _PAD
    px = _PAD + (x + _SPAN) / (2.0 * _SPAN) * side
    py = _PAD + (_SPAN - y) / (2.0 * _SPAN) * side
    return px, py


def emit_svg_phase_portrait(a_cl: np.ndarray, trajectories, path, grid_points: int = 13) -> None:
    """Step-displacement field of x -> a_cl x plus trajectory overlays.

    The field covers a uniform grid on [-10, 10]^2; each trajectory is one
    polyline. Only two-state systems can be drawn.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    if a_cl.shape != (2, 2):
        raise DimensionMismatch("phase portraits require a 2x2 closed loop")
    root = _svg_root()
    frame_side = _VIEW - 2.0 * _PAD
    ET.SubElement(
        root,
        "rect",
        {
            "x": f"{_PAD:g}",
            "y": f"{_PAD:g}",
            "width": f"{frame_side:g}",
            "height": f"{frame_side:g}",
            "fill": "none",
            "stroke": "#888",
            "stroke-width": "1",
        },
    )
    cell = 2.0 * _SPAN / (grid_points - 1)
    arrow = 0.42 * cell
    ticks = np.linspace(-_SPAN, _SPAN, grid_points)
    field = ET.SubElement(root, "g", {"stroke": "#9db2bf", "stroke-width": "1"})
    for gx in ticks:
        for gy in ticks:
            x = np.array([gx, gy])
            step = a_cl @ x - x
            nrm = float(np.linalg.norm(step))
            if nrm < 1e-12:
                continue
            tip = x + step / nrm * arrow
            x0, y0 = _portrait_px(x[0], x[1])
            x1, y1 = _portrait_px(tip[0], tip[1])
            ET.SubElement(
                field,
                "line",
                {"x1": f"{x0:.2f}", "y1": f"{y0:.2f}", "x2": f"{x1:.2f}", "y2": f"{y1:.2f}"},
            )
            ET.SubElement(
                root,
                "circle",
                {"cx": f"{x1:.2f}", "cy": f"{y1:.2f}", "r": "1.4", "fill": "#9db2bf"},
            )
    for idx, traj in enumerate(trajectories):
        traj = np.asarray(traj, dtype=float)
        if traj.ndim != 2 or traj.shape[0] != 2:
            raise DimensionMismatch("each trajectory must be a 2 x steps array")
        pts = " ".join(
            "{:.2f},{:.2f}".format(*_portrait_px(traj[0, t], traj[1, t]))
            for t in range(traj.shape[1])
        )
        ET.SubElement(
            root,
            "polyline",
            {
                "points": pts,
                "fill": "none",
                "stroke": _PALETTE[idx % len(_PALETTE)],
                "stroke-width": "1.8",
                "class": "trajectory",
            },
        )
    ET.ElementTree(root).write(path, xml_declaration=True, encoding="unicode")
