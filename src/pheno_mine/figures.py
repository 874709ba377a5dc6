"""Hand-rolled SVG scatter emission.

The plot is assembled from explicit strings instead of a plotting library so
that re-running the pipeline produces byte-identical figure files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .artifacts import write_text
from .pca import PcaProjection

_PALETTE = ("#4C78A8", "#F58518", "#54A24B", "#E45756", "#72B7B2", "#9D755D")

_WIDTH = 720
_HEIGHT = 540
_MARGIN = 60


def _escape(text: str) -> str:
    """Character data for the SVG: ``&``, ``<`` and ``>`` as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _axis_bounds(values) -> tuple:
    lo = min(values)
    hi = max(values)
    if lo == hi:
        lo -= 1.0
        hi += 1.0
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def render_pca_svg(
    projection: PcaProjection,
    cohorts,
    provenance: dict | None = None,
) -> str:
    """SVG scatter of the 2-D coordinates, one color per cohort label."""
    coords = projection.coordinates
    # Color assignment follows first appearance so output is order-stable.
    seen: list[str] = []
    for cohort in cohorts:
        if cohort not in seen:
            seen.append(cohort)
    color_of = {c: _PALETTE[i % len(_PALETTE)] for i, c in enumerate(seen)}

    if len(coords):
        x_lo, x_hi = _axis_bounds(coords[:, 0].tolist())
        y_lo, y_hi = _axis_bounds(coords[:, 1].tolist())
    else:
        x_lo, x_hi, y_lo, y_hi = -1.0, 1.0, -1.0, 1.0

    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    def sx(x: float) -> float:
        return _MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h

    r1, r2 = projection.explained_variance_ratio
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
    ]
    if provenance:
        parts.append(f"<desc>provenance: {_escape(json.dumps(provenance, sort_keys=True))}</desc>")
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    parts.append(
        f'<rect x="{_MARGIN}" y="{_MARGIN}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">PC1 ({r1 * 100:.1f}% of variance)</text>'
    )
    parts.append(
        f'<text x="18" y="{_HEIGHT / 2:.1f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="14" transform="rotate(-90 18 {_HEIGHT / 2:.1f})">'
        f"PC2 ({r2 * 100:.1f}% of variance)</text>"
    )
    if projection.degenerate:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="{_MARGIN - 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" fill="#B22222">'
            "zero-variance input: projection is degenerate</text>"
        )
    for i in range(len(coords)):
        parts.append(
            f'<circle cx="{sx(coords[i, 0]):.2f}" cy="{sy(coords[i, 1]):.2f}" r="3" '
            f'fill="{color_of[cohorts[i]]}" fill-opacity="0.55"/>'
        )
    legend_y = _MARGIN + 10
    for cohort in seen:
        parts.append(
            f'<circle cx="{_WIDTH - _MARGIN - 90}" cy="{legend_y}" r="5" '
            f'fill="{color_of[cohort]}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN - 78}" y="{legend_y + 4}" '
            f'font-family="sans-serif" font-size="13">{_escape(cohort)}</text>'
        )
        legend_y += 20
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_pca_svg(
    projection: PcaProjection,
    cohorts,
    path: str | Path,
    provenance: dict | None = None,
):
    write_text(path, render_pca_svg(projection, cohorts, provenance))
