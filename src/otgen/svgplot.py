"""Minimal deterministic SVG plotting.

Hand-rolled SVG so identical inputs produce identical bytes (no library
version strings or timestamps). Covers the one shape this package needs:
line overlays of curves.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 640, 440
MARGIN = 56
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#17becf", "#7f7f7f")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _ranges(arrays):
    xs = np.concatenate([np.asarray(a, dtype=float)[:, 0] for a in arrays])
    ys = np.concatenate([np.asarray(a, dtype=float)[:, 1] for a in arrays])
    pad = lambda lo, hi: ((lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo))
                          if hi > lo else (lo - 1.0, hi + 1.0))
    return pad(xs.min(), xs.max()), pad(ys.min(), ys.max())


class _Canvas:
    def __init__(self, xlim, ylim, xlabel, ylabel, title):
        self.xlim, self.ylim = xlim, ylim
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]
        self._axes(xlabel, ylabel, title)

    def px(self, x):
        lo, hi = self.xlim
        return MARGIN + (x - lo) / (hi - lo) * (WIDTH - 2 * MARGIN)

    def py(self, y):
        lo, hi = self.ylim
        return HEIGHT - MARGIN - (y - lo) / (hi - lo) * (HEIGHT - 2 * MARGIN)

    def _axes(self, xlabel, ylabel, title):
        x0, y0 = MARGIN, HEIGHT - MARGIN
        x1, y1 = WIDTH - MARGIN, MARGIN
        self.parts.append(
            f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
            'stroke="black" stroke-width="1"/>')
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            xv = self.xlim[0] + frac * (self.xlim[1] - self.xlim[0])
            yv = self.ylim[0] + frac * (self.ylim[1] - self.ylim[0])
            xp, yp = self.px(xv), self.py(yv)
            self.parts.append(
                f'<line x1="{_fmt(xp)}" y1="{y0}" x2="{_fmt(xp)}" y2="{y0 + 4}" '
                'stroke="black" stroke-width="1"/>')
            self.parts.append(
                f'<text x="{_fmt(xp)}" y="{y0 + 18}" font-size="11" '
                f'text-anchor="middle" font-family="monospace">{xv:.3g}</text>')
            self.parts.append(
                f'<line x1="{x0 - 4}" y1="{_fmt(yp)}" x2="{x0}" y2="{_fmt(yp)}" '
                'stroke="black" stroke-width="1"/>')
            self.parts.append(
                f'<text x="{x0 - 8}" y="{_fmt(yp + 4)}" font-size="11" '
                f'text-anchor="end" font-family="monospace">{yv:.3g}</text>')
        self.parts.append(
            f'<text x="{WIDTH // 2}" y="{HEIGHT - 12}" font-size="13" '
            f'text-anchor="middle" font-family="monospace">{xlabel}</text>')
        self.parts.append(
            f'<text x="16" y="{HEIGHT // 2}" font-size="13" text-anchor="middle" '
            f'font-family="monospace" transform="rotate(-90 16 {HEIGHT // 2})">'
            f'{ylabel}</text>')
        self.parts.append(
            f'<text x="{WIDTH // 2}" y="24" font-size="14" text-anchor="middle" '
            f'font-family="monospace">{title}</text>')

    def legend(self, labels_colors):
        y = MARGIN + 6
        for label, color in labels_colors:
            self.parts.append(
                f'<line x1="{WIDTH - MARGIN - 130}" y1="{y}" '
                f'x2="{WIDTH - MARGIN - 106}" y2="{y}" stroke="{color}" '
                'stroke-width="2"/>')
            self.parts.append(
                f'<text x="{WIDTH - MARGIN - 100}" y="{y + 4}" font-size="11" '
                f'font-family="monospace">{label}</text>')
            y += 16

    def finish(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def plot_curves(series, path, xlabel="strain", ylabel="stress", title=""):
    """Overlay of (label, [n, 2] array) polylines; deterministic bytes."""
    series = list(series)
    if not series or any(len(np.atleast_2d(a)) == 0 for _, a in series):
        raise ValueError("nothing to plot")
    xlim, ylim = _ranges([a for _, a in series])
    cv = _Canvas(xlim, ylim, xlabel, ylabel, title)
    legend = []
    for k, (label, arr) in enumerate(series):
        arr = np.atleast_2d(np.asarray(arr, dtype=float))
        color = PALETTE[k % len(PALETTE)]
        pts = " ".join(f"{_fmt(cv.px(x))},{_fmt(cv.py(y))}" for x, y in arr)
        cv.parts.append(f'<polyline points="{pts}" fill="none" '
                        f'stroke="{color}" stroke-width="1.5"/>')
        legend.append((label, color))
    cv.legend(legend)
    data = cv.finish()
    with open(path, "w", newline="") as f:
        f.write(data)
    return data
