"""Deterministic file exports: JSON, CSV, DOT and static SVG.

Outputs contain no timestamps and use fixed formatting, so repeated runs at
the same configuration are byte-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .ade import diagram_dot, triple_to_diagram
from .coxplane import coxeter_plane_for, project_to_plane
from .induction import spin_group
from .mckay import (
    DEFAULT_SEED,
    character_table,
    character_table_csv,
    conjugacy_classes,
    match_affine_ade,
    mckay_graph,
    mckay_graph_dot,
    spinor_character,
)
from .rootsys import cartan_to_csv, catalog, root_system, roots_to_json, rotation_orders

SVG_SIZE = 600
SVG_SCALE = 0.45  # max radius as a fraction of the viewport


def metadata(seed: Optional[int] = None, backend: Optional[str] = None) -> dict:
    meta = {"tool": "spinroot", "version": __version__}
    if seed is not None:
        meta["seed"] = seed
    if backend is not None:
        meta["backend"] = backend
    return meta


def json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def meta_comment(meta: dict) -> str:
    return json.dumps(meta, sort_keys=True)


def projection_csv(points: Sequence[tuple[float, float]], meta: dict) -> str:
    lines = [f"# {meta_comment(meta)}", "x,y"]
    for x, y in points:
        lines.append(f"{x:.17g},{y:.17g}")
    return "\n".join(lines) + "\n"


def projection_svg(points: Sequence[tuple[float, float]], meta: dict) -> str:
    rmax = max((math.hypot(x, y) for x, y in points), default=1.0)
    scale = SVG_SIZE * SVG_SCALE / rmax if rmax > 0 else 1.0
    half = SVG_SIZE / 2
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE}" '
        f'height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        f"<!-- {meta_comment(meta)} -->",
    ]
    for x, y in points:
        cx = half + scale * x
        cy = half - scale * y
        out.append(f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="3" fill="black"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def export_files(kind: str, name: str, n: Optional[int] = None,
                 out_dir: str | Path = ".", seed: int = DEFAULT_SEED) -> list[Path]:
    """Write the artifacts for one export kind, every text formed before the
    directory is made, so a failed export leaves none; returns the created paths."""
    meta = metadata(seed=seed)
    simple = catalog(name, n)
    stem = simple.name.replace("(", "").replace(")", "")
    if kind == "roots":
        payload = roots_to_json(root_system(name, n))
        payload["meta"] = meta
        files = {"roots.json": json_dumps(payload),
                 "cartan.csv": f"# {meta_comment(meta)}\n" + cartan_to_csv(simple)}
    elif kind == "projection":
        plane = coxeter_plane_for(name, n)
        system = root_system(name, n)
        points = project_to_plane(system.num, system.den, system.field, plane.bivector)
        files = {"projection.csv": projection_csv(points, meta),
                 "projection.svg": projection_svg(points, meta)}
    elif kind == "mckay-graph":
        G = spin_group(name, n)
        classes = conjugacy_classes(G)
        table = character_table(G, classes, seed=seed)
        graph = mckay_graph(table, spinor_character(G, classes))
        summary = {
            "group_order": G.order, "classes": classes.count,
            "dims": list(table.dims), "affine": match_affine_ade(graph),
            "meta": meta,
        }
        files = {"mckay.dot": f"// {meta_comment(meta)}\n"
                 + mckay_graph_dot(graph, name=f"mckay_{stem}"),
                 "mckay_chars.csv": f"# {meta_comment(meta)}\n" + character_table_csv(table),
                 "mckay.json": json_dumps(summary)}
    elif kind == "diagram":
        diagram = triple_to_diagram(rotation_orders(simple))
        files = {"diagram.dot": f"// {meta_comment(meta)}\n" + diagram_dot(diagram)}
    else:
        raise ValueError(f"unknown export kind {kind!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for suffix, text in files.items():
        path = out / f"{stem}_{suffix}"
        path.write_text(text)
        written.append(path)
    return written
