"""Static SVG figures: a scatter of cell means and a fitted-curve polyline.

Figures are built with ElementTree so the output is well-formed XML by
construction; there is no scripting, and provenance is embedded in a
`desc` element.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Sequence

import numpy as np

from ..polyfit import DataPoint, PolyModel
from .csvio import RunMetadata

__all__ = ["write_scatter_svg"]

_SVG_NS = "http://www.w3.org/2000/svg"
_CURVE_COLOR = "#1f77b4"
_CURVE_SAMPLES = 200

_WIDTH, _HEIGHT = 640.0, 440.0
_M_LEFT, _M_RIGHT, _M_TOP, _M_BOTTOM = 86.0, 26.0, 42.0, 58.0


def _span(values: Sequence[float], pad: float) -> tuple[float, float]:
    """An axis range: min to max of `values`, widened by 0.5 each way if it has no width,
    then by `pad` of its width each way."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    margin = pad * (hi - lo)
    return lo - margin, hi + margin


def _curve_points(model: PolyModel, x_lo: float, x_hi: float) -> list[tuple[float, float]]:
    # Horner's rule from the highest power down, as numpy.polynomial's
    # polyval runs it, without loading numpy.polynomial.
    step = (x_hi - x_lo) / (_CURVE_SAMPLES - 1)
    xs = [x_lo + i * step for i in range(_CURVE_SAMPLES)]
    return list(zip(xs, np.polyval(model.coefficients[::-1], xs).tolist()))


def _line(parent: ET.Element, x1: float, y1: float, x2: float, y2: float) -> None:
    """An axis or tick stroke."""
    ET.SubElement(
        parent,
        "line",
        {
            "x1": f"{x1:.1f}",
            "y1": f"{y1:.1f}",
            "x2": f"{x2:.1f}",
            "y2": f"{y2:.1f}",
            "stroke": "#333333",
            "stroke-width": "1",
        },
    )


def _text(
    parent: ET.Element, x: str, y: str, text: str, anchor: str, size: str, **extra: str
) -> None:
    """A sans-serif label; `extra` attributes (fill, transform) follow the font ones."""
    font = {"font-family": "sans-serif", "font-size": size}
    element = ET.SubElement(parent, "text", {"x": x, "y": y, "text-anchor": anchor, **font, **extra})
    element.text = text


def write_scatter_svg(
    path: str | Path,
    points: Sequence[DataPoint],
    model: PolyModel,
    *,
    metadata: RunMetadata,
    title: str,
    include_points: bool = True,
) -> None:
    """Write one titled figure: optionally the scatter, plus the polyline of one model.

    `model` is sampled across the x-range of `points`, and its legend
    reads ``degree {model.degree}``.  `points` must be nonempty (they fix
    the axes even when the scatter itself is hidden).
    """
    if not points:
        raise ValueError("points must be nonempty; they fix the axis ranges")

    x_lo, x_hi = _span([pt.x for pt in points], 0.0)
    curve_points = _curve_points(model, x_lo, x_hi)
    y_lo, y_hi = _span([pt.y for pt in points] + [y for _, y in curve_points], 0.05)
    x_lo, x_hi = _span([x_lo, x_hi], 0.03)

    plot_w = _WIDTH - _M_LEFT - _M_RIGHT
    plot_h = _HEIGHT - _M_TOP - _M_BOTTOM
    bottom = _HEIGHT - _M_BOTTOM

    def sx(x: float) -> float:
        return _M_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return bottom - (y - y_lo) / (y_hi - y_lo) * plot_h

    root = ET.Element(
        "svg",
        {
            "xmlns": _SVG_NS,
            "width": f"{_WIDTH:.0f}",
            "height": f"{_HEIGHT:.0f}",
            "viewBox": f"0 0 {_WIDTH:.0f} {_HEIGHT:.0f}",
        },
    )
    desc = ET.SubElement(root, "desc")
    desc.text = "; ".join(line.lstrip("# ") for line in metadata.comment_lines())
    ET.SubElement(
        root,
        "rect",
        {"x": "0", "y": "0", "width": f"{_WIDTH:.0f}", "height": f"{_HEIGHT:.0f}", "fill": "white"},
    )
    _text(root, f"{_WIDTH / 2:.1f}", "24", title, "middle", "15")

    _line(root, _M_LEFT, bottom, _WIDTH - _M_RIGHT, bottom)
    _line(root, _M_LEFT, _M_TOP, _M_LEFT, bottom)
    for i in range(5):
        xv = x_lo + i * (x_hi - x_lo) / 4
        px = sx(xv)
        _line(root, px, bottom, px, bottom + 5)
        _text(root, f"{px:.1f}", f"{bottom + 18:.1f}", f"{xv:.4g}", "middle", "11", fill="#333333")

        yv = y_lo + i * (y_hi - y_lo) / 4
        py = sy(yv)
        _line(root, _M_LEFT - 5, py, _M_LEFT, py)
        _text(root, f"{_M_LEFT - 8:.1f}", f"{py + 4:.1f}", f"{yv:.6g}", "end", "11", fill="#333333")

    _text(root, f"{_M_LEFT + plot_w / 2:.1f}", f"{_HEIGHT - 14:.1f}", "p", "middle", "13")
    y_mid = f"{_M_TOP + plot_h / 2:.1f}"
    _text(root, "20", y_mid, "mean c", "middle", "13", transform=f"rotate(-90 20 {y_mid})")

    ET.SubElement(
        root,
        "polyline",
        {
            "fill": "none",
            "stroke": _CURVE_COLOR,
            "stroke-width": "1.8",
            "points": " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in curve_points),
        },
    )
    legend_x, legend_y = f"{_WIDTH - _M_RIGHT - 6:.1f}", f"{_M_TOP + 16:.1f}"
    _text(root, legend_x, legend_y, f"degree {model.degree}", "end", "12", fill=_CURVE_COLOR)

    if include_points:
        for pt in points:
            ET.SubElement(
                root,
                "circle",
                {"cx": f"{sx(pt.x):.2f}", "cy": f"{sy(pt.y):.2f}", "r": "3.2", "fill": "#111111"},
            )

    text = ET.tostring(root, encoding="unicode")
    Path(path).write_text('<?xml version="1.0" encoding="UTF-8"?>\n' + text + "\n", encoding="utf-8")
