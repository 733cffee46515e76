"""Minimal deterministic SVG charts (scatter and line), no plotting library.

Charts are data artifacts that must be byte-stable across runs, so the
writer formats every coordinate with fixed precision and contains no
timestamps or generated ids.
"""

import math

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 20, 36, 48
_COLORS = ("#1f6fb2", "#d1495b", "#3a7d44", "#8a6d3b", "#6a4c93")


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks, v = [], first
    while v <= hi + 1e-9 * step:
        ticks.append(round(v, 10))
        v += step
    return ticks


def _padded_range(values, pad_frac: float) -> tuple[float, float, float]:
    """(lo - pad, hi + pad, pad) for the values' bounds lo and hi, with pad
    pad_frac of hi - lo (of 1 when all values are equal).  ValueError unless
    every value is a finite float and the padded span finite and positive."""
    try:
        if all(map(math.isfinite, values)):
            lo, hi = min(values), max(values)
            if hi == lo:
                hi = lo + 1.0
            pad = pad_frac * (hi - lo)
            if 0 < (hi + pad) - (lo - pad) < math.inf:
                return lo - pad, hi + pad, pad
    except OverflowError:
        pass
    raise ValueError("chart values must be finite, with a finite nonzero range")


def xy_chart_svg(
    series: list[dict],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    width: int = 640,
    height: int = 440,
) -> str:
    """Render series to an SVG string.

    Each series is a dict with keys x (list), y (list), mode ("points",
    "line", or "both"), and optional label.  Values that cannot be charted
    (see ``_padded_range``) raise ValueError.
    """
    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi, x_pad = _padded_range(xs, 0.04)
    y_lo, y_hi, y_pad = _padded_range(ys, 0.06)

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def sx(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v):
        return _MARGIN_T + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.0f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{title}</text>'
        )
    for tick in _ticks(x_lo + x_pad, x_hi - x_pad):
        px = sx(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(px)}" '
            f'y2="{_MARGIN_T + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
    for tick in _ticks(y_lo + y_pad, y_hi - y_pad):
        py = sy(tick)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(py + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w / 2:.0f}" y="{height - 12}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{xlabel}</text>'
        )
    if ylabel:
        cy = _MARGIN_T + plot_h / 2
        parts.append(
            f'<text x="16" y="{cy:.0f}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="13" transform="rotate(-90 16 {cy:.0f})">{ylabel}</text>'
        )

    for k, s in enumerate(series):
        color = _COLORS[k % len(_COLORS)]
        pts = list(zip(s["x"], s["y"]))
        mode = s.get("mode", "points")
        if mode in ("line", "both") and len(pts) > 1:
            d = " ".join(f"{_fmt(sx(x))},{_fmt(sy(y))}" for x, y in pts)
            parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if mode in ("points", "both"):
            for x, y in pts:
                parts.append(
                    f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(y))}" r="3" fill="{color}" '
                    f'fill-opacity="0.75"/>'
                )
        if s.get("label"):
            ly = _MARGIN_T + 16 + 16 * k
            parts.append(
                f'<rect x="{_MARGIN_L + plot_w - 130}" y="{ly - 9}" width="10" height="10" '
                f'fill="{color}"/>'
            )
            parts.append(
                f'<text x="{_MARGIN_L + plot_w - 115}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{s["label"]}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
