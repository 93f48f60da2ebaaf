"""Minimal SVG emitter for the diagnostic sweep plots.

Built on xml.etree so the output is well-formed XML by construction; one
polyline per curve, vertical markers for royal-node angles.
"""

from __future__ import annotations

import io
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

_PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]


@dataclass
class Panel:
    title: str
    curves: list = field(default_factory=list)  # list of (xs, ys) pairs
    marker_xs: list = field(default_factory=list)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def panels_svg(panels: list[Panel], width: int = 900, panel_height: int = 260) -> str:
    """The SVG document for ``panels``, stacked vertically, ending in a newline."""
    margin = 45
    total_height = panel_height * len(panels)
    root = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(width),
        height=str(total_height),
        viewBox=f"0 0 {width} {total_height}",
    )
    for idx, panel in enumerate(panels):
        top = idx * panel_height
        inner_w = width - 2 * margin
        inner_h = panel_height - 2 * margin
        xs_all = [x for xs, _ in panel.curves for x in xs]
        ys_all = [y for _, ys in panel.curves for y in ys]
        if not xs_all:
            continue
        x_lo, x_hi = min(xs_all), max(xs_all)
        y_lo, y_hi = min(ys_all), max(ys_all)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

        def to_px(x, y, top=top, x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi, inner_w=inner_w, inner_h=inner_h):
            px = margin + (x - x_lo) / (x_hi - x_lo) * inner_w
            py = top + margin + (1.0 - (y - y_lo) / (y_hi - y_lo)) * inner_h
            return px, py

        ET.SubElement(
            root, "rect",
            x=str(margin), y=str(top + margin),
            width=str(inner_w), height=str(inner_h),
            fill="none", stroke="#cccccc",
        )
        title = ET.SubElement(root, "text", x=str(margin), y=str(top + margin - 12))
        title.set("font-family", "sans-serif")
        title.set("font-size", "14")
        title.text = panel.title

        for mx in panel.marker_xs:
            px, py_top = to_px(mx, y_hi)
            _, py_bot = to_px(mx, y_lo)
            ET.SubElement(
                root, "line",
                x1=_fmt(px), y1=_fmt(py_top), x2=_fmt(px), y2=_fmt(py_bot),
                stroke="#999999", **{"stroke-dasharray": "4 3"},
            )

        for c_idx, (xs, ys) in enumerate(panel.curves):
            pts = " ".join(
                f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(x, y) for x, y in zip(xs, ys))
            )
            ET.SubElement(
                root, "polyline",
                fill="none",
                stroke=_PALETTE[c_idx % len(_PALETTE)],
                points=pts,
                **{"stroke-width": "1"},
            )
    tree = ET.ElementTree(root)
    ET.indent(tree)
    buf = io.StringIO()
    tree.write(buf, encoding="unicode", xml_declaration=True)
    return buf.getvalue() + "\n"
