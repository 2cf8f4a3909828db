"""Minimal self-contained SVG rendering of simulation time series.

One stacked panel per joint: desired and measured angle overlaid on top, the
applied PWM command on a narrower strip below. Everything is inline SVG
(polylines, text, no scripts or external assets) so the output opens in any
browser and parses as plain XML.
"""
from __future__ import annotations

import numpy as np

WIDTH = 860
MARGIN_L, MARGIN_R, MARGIN_TOP = 72, 24, 36
ANGLE_H, U_H, GAP, PANEL_GAP = 200, 80, 34, 40

COLOR_REF = "#c0392b"
COLOR_MEAS = "#2471a3"
COLOR_U = "#1e8449"
COLOR_AXIS = "#555555"
COLOR_GRID = "#dddddd"


def _span(values):
    lo = float(np.min(values))
    hi = float(np.max(values))
    if hi - lo < 1e-12:
        pad = max(abs(lo) * 0.1, 0.5)
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad


def _xform(lo, hi, out_lo, out_hi):
    scale = (out_hi - out_lo) / (hi - lo)

    def f(v):
        return out_lo + (v - lo) * scale

    return f


def _polyline(xs, ys, color, width=1.3, dash=None):
    # One %-format over the interleaved coordinates keeps the per-point work
    # in C; "%.2f" % float prints what f"{np.float64:.2f}" prints.
    xy = np.column_stack((xs, ys)).ravel().tolist()
    pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)
    extra = f' stroke-dasharray="{dash}"' if dash else ""
    return f'<polyline fill="none" stroke="{color}" stroke-width="{width}"{extra} points="{pts}"/>'


def _axes(x0, y0, x1, y1, t_lo, t_hi, v_lo, v_hi, ylabel, with_xlabel):
    fx = _xform(t_lo, t_hi, x0, x1)
    fy = _xform(v_lo, v_hi, y1, y0)
    parts = [f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" fill="none" stroke="{COLOR_AXIS}"/>']
    for v in np.linspace(v_lo, v_hi, 5):
        y = fy(v)
        parts.append(f'<line x1="{x0}" y1="{y:.2f}" x2="{x1}" y2="{y:.2f}" stroke="{COLOR_GRID}"/>')
        parts.append(
            f'<text x="{x0 - 6}" y="{y + 3.5:.2f}" text-anchor="end" font-size="10" fill="{COLOR_AXIS}">{v:.3g}</text>'
        )
    for t in np.linspace(t_lo, t_hi, 6):
        x = fx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{y1}" x2="{x:.2f}" y2="{y1 + 4}" stroke="{COLOR_AXIS}"/>')
        if with_xlabel:
            parts.append(
                f'<text x="{x:.2f}" y="{y1 + 15}" text-anchor="middle" font-size="10" fill="{COLOR_AXIS}">{t:.4g}</text>'
            )
    parts.append(
        f'<text x="{x0 - 52}" y="{(y0 + y1) / 2:.2f}" font-size="11" fill="{COLOR_AXIS}" '
        f'transform="rotate(-90 {x0 - 52} {(y0 + y1) / 2:.2f})" text-anchor="middle">{ylabel}</text>'
    )
    return parts, fx, fy


def render_svg(series) -> str:
    """Build the SVG document for a {joint name: JointSeries} mapping, one panel per joint.

    Each panel reads the series' t, theta_d, theta_meas and u arrays.
    """
    if not series:
        raise ValueError("nothing to plot: no panels")
    panel_h = ANGLE_H + GAP + U_H
    height = MARGIN_TOP + len(series) * (panel_h + PANEL_GAP)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}" font-family="sans-serif">',
        f'<rect width="{WIDTH}" height="{height}" fill="white"/>',
    ]
    x0, x1 = MARGIN_L, WIDTH - MARGIN_R
    top = MARGIN_TOP
    for name, js in series.items():
        t, theta_d, theta_meas, u = js.t, js.theta_d, js.theta_meas, js.u
        t_lo, t_hi = _span(t)
        out.append(f'<g id="panel-{name}">')
        out.append(f'<text x="{x0}" y="{top - 10}" font-size="13" fill="#222222">joint {name}</text>')

        a_lo, a_hi = _span(np.concatenate([theta_d, theta_meas]))
        ay0, ay1 = top, top + ANGLE_H
        parts, fx, fy = _axes(x0, ay0, x1, ay1, t_lo, t_hi, a_lo, a_hi, "angle (rad)", False)
        out.extend(parts)
        xs = fx(t)  # both strips share the time axis
        out.append(_polyline(xs, fy(theta_d), COLOR_REF, dash="6,4"))
        out.append(_polyline(xs, fy(theta_meas), COLOR_MEAS))
        out.append(
            f'<text x="{x1 - 150}" y="{ay0 + 16}" font-size="10" fill="{COLOR_REF}">desired</text>'
            f'<text x="{x1 - 90}" y="{ay0 + 16}" font-size="10" fill="{COLOR_MEAS}">measured</text>'
        )

        u_lo, u_hi = _span(u)
        uy0, uy1 = ay1 + GAP, ay1 + GAP + U_H
        parts, fx, fy = _axes(x0, uy0, x1, uy1, t_lo, t_hi, u_lo, u_hi, "u (PWM-%)", True)
        out.extend(parts)
        out.append(_polyline(xs, fy(u), COLOR_U))
        out.append(
            f'<text x="{(x0 + x1) / 2}" y="{uy1 + 28}" text-anchor="middle" font-size="11" '
            f'fill="{COLOR_AXIS}">t (s)</text>'
        )
        out.append("</g>")
        top += panel_h + PANEL_GAP
    out.append("</svg>")
    return "\n".join(out)
