"""Minimal deterministic SVG line plots.

Hand-rolled so that re-renders of the same data are byte-identical, which
plotting libraries that embed generated ids or timestamps are not.
"""

from __future__ import annotations

import numpy as np

from metaweight import _stage

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLOR = "#1f6fb2"


def _fmt(v: float) -> str:
    out = f"{v:.6g}"
    return "0" if out == "-0" else out


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    raw_step = (hi - lo) / max(count - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw_step))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw_step:
            break
    start = np.ceil(lo / step) * step
    ticks = []
    v = start
    while v <= hi + 1e-12 * step:
        ticks.append(float(v))
        if v + step == v:  # a step below the float spacing at v never moves it
            break
        v += step
    return ticks


def line_plot(series: tuple[str, np.ndarray, np.ndarray], title: str, xlabel: str, ylabel: str) -> str:
    """Render one named (x, y) series to an SVG document string; refuse
    (ValueError) a series whose points do not all land at finite coordinates."""
    name, xs, ys = series
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"series {name!r} must be two equal-length vectors")
    if xs.size == 0:
        raise ValueError("empty series")
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(v: float) -> float:
        return MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    points = [(px(a), py(b)) for a, b in zip(xs, ys)]
    if not np.isfinite(points).all():
        raise ValueError(f"series {name!r} has values that give non-finite plot coordinates")

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{title}</text>',
    ]
    axis = f'stroke="black" stroke-width="1"'
    x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
    parts.append(f'<line x1="{x0}" y1="{MARGIN_T}" x2="{x0}" y2="{y0}" {axis}/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{WIDTH - MARGIN_R}" y2="{y0}" {axis}/>')

    for tv in _ticks(x_lo, x_hi):
        tx = px(tv)
        parts.append(f'<line x1="{_fmt(tx)}" y1="{y0}" x2="{_fmt(tx)}" y2="{y0 + 5}" {axis}/>')
        parts.append(
            f'<text x="{_fmt(tx)}" y="{y0 + 20}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="11">{_fmt(tv)}</text>'
        )
    for tv in _ticks(y_lo, y_hi):
        ty = py(tv)
        parts.append(f'<line x1="{x0 - 5}" y1="{_fmt(ty)}" x2="{x0}" y2="{_fmt(ty)}" {axis}/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{_fmt(ty + 4)}" text-anchor="end" font-family="sans-serif" '
            f'font-size="11">{_fmt(tv)}</text>'
        )

    parts.append(
        f'<text x="{MARGIN_L + plot_w // 2}" y="{HEIGHT - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{MARGIN_T + plot_h // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="13" transform="rotate(-90 18 {MARGIN_T + plot_h // 2})">{ylabel}</text>'
    )

    pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in points)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="{COLOR}" stroke-width="1.5"/>')
    parts.append(
        f'<text x="{WIDTH - MARGIN_R - 6}" y="{MARGIN_T + 16}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12" fill="{COLOR}">{name}</text>'
    )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_plot(path, series, title, xlabel, ylabel) -> None:
    with _stage(f"{path}: "):
        svg = line_plot(series, title, xlabel, ylabel)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
