"""Deterministic emission of CSV, JSON and SVG artifacts.

All floating point numbers are written with 17 significant digits so
that repeated runs with identical configuration produce byte-identical
files; NaN (the flagged-missing monitor marker) becomes an empty CSV
cell or a JSON null, never a sentinel number.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = ["fmt_float", "dump_json", "write_json", "write_csv", "write_svg_plot"]


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


# JSON string escapes: every control character, the quote and the backslash
_ESCAPES = {c: f"\\u{c:04x}" for c in range(0x20)} | {0x0A: "\\n", 0x22: '\\"', 0x5C: "\\\\"}


def _json_value(obj, indent: int) -> str:
    pad = " " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "null"
        if math.isinf(x):
            raise ValueError("refusing to serialize infinity")
        return fmt_float(x)
    if isinstance(obj, str):
        return f'"{obj.translate(_ESCAPES)}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_json_value(v, indent + 2)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}  {_json_value(v, indent + 2)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj: dict) -> str:
    return _json_value(obj, 0) + "\n"


def write_json(path, obj: dict) -> None:
    Path(path).write_text(dump_json(obj), encoding="utf-8", newline="\n")


def _cell(v) -> str:
    """Text of a cell in a column that does not hold only floats."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    return "" if v is None else fmt_float(v) if isinstance(v, (float, np.floating)) else str(v)


def write_csv(path, header: list, rows) -> None:
    """CSV with LF endings, '.' decimals, empty cells for NaN and None.

    Cells are numbers, bools or None.  A row is one '%.17g' template (as
    fmt_float) with _cell's text in the non-float columns; 'nan' is blanked.
    """
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
        rows, mixed = map(np.ndarray.tolist, rows), set()  # lazily: one row of floats at a time
    else:
        mixed = {j for row in rows for j, v in enumerate(row) if not isinstance(v, float)}
        rows = [[_cell(v) if j in mixed else v for j, v in enumerate(row)] for row in rows]
    template = ",".join("%s" if j in mixed else "%.17g" for j in range(len(header))) + "\n"
    body = "".join([template % tuple(row) for row in rows])
    Path(path).write_text(",".join(header) + "\n" + body.replace("nan", ""),
                          encoding="utf-8", newline="\n")


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _axis(name: str, values: np.ndarray, pad: float) -> tuple:
    """(lo, hi) of the finite values, each end moved out by pad (hi - lo).  A span of at most
    1e-300 (degenerate, or with a tick step that underflows) is widened first, to lo + 1.0, or
    by one float spacing toward zero where adding 1.0 does not move lo (|lo| >= 2**53).  A
    padded span past the float range raises ValueError naming the axis."""
    lo, hi = float(values.min()), float(values.max())
    if not hi - lo > 1e-300:
        lo, hi = (lo, lo + 1.0) if lo + 1.0 != lo else sorted((lo, math.nextafter(lo, 0.0)))
    lo, hi = lo - pad * (hi - lo), hi + pad * (hi - lo)
    if not hi - lo < math.inf:  # NaN too: a zero pad times an infinite span
        raise ValueError(f"the {name} axis of {values.min():g} .. {values.max():g} spans past "
                         f"the float range")
    return lo, hi


def _ticks(lo: float, hi: float, n: int = 5) -> list:
    """Round values start + k step in [lo, hi], lo < hi; k is bounded: v += step may not move v."""
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    start = math.ceil(lo / step) * step
    out = []
    for k in range(2 * n + 2):  # step >= (hi - lo) / n, so at most n + 1 values are in range
        v = start + k * step
        if v > hi + 1e-12 * step:
            break
        out.append(0.0 if abs(v) < 1e-12 * step else v)
    return sorted(set(out))  # v never decreases in k, but repeats where step < its spacing


def write_svg_plot(path, series, title: str, xlabel: str, ylabel: str) -> None:
    """Polyline plot (SVG 1.1, no external renderer): series = [(x, y, label)].

    NaN samples break the polyline rather than being interpolated over.
    """
    xs = np.concatenate([np.asarray(s[0], dtype=float) for s in series])
    ys = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    xs, ys = xs[np.isfinite(xs)], ys[np.isfinite(ys)]
    if xs.size == 0 or ys.size == 0:
        raise ValueError("nothing to plot")
    (xlo, xhi), (ylo, yhi) = _axis("x", xs, 0.0), _axis("y", ys, 0.05)

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * (_W - _ML - _MR)

    def py(y):
        return _H - _MB - (y - ylo) / (yhi - ylo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    axis = (f'M {px(xlo):.2f} {py(ylo):.2f} H {px(xhi):.2f} '
            f'M {px(xlo):.2f} {py(ylo):.2f} V {py(yhi):.2f}')
    parts.append(f'<path d="{axis}" stroke="black" fill="none" stroke-width="1"/>')
    for tx in _ticks(xlo, xhi):
        parts.append(f'<line x1="{px(tx):.2f}" y1="{py(ylo):.2f}" x2="{px(tx):.2f}" '
                     f'y2="{py(ylo) + 5:.2f}" stroke="black"/>')
        parts.append(f'<text x="{px(tx):.2f}" y="{py(ylo) + 18:.2f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{tx:.4g}</text>')
    for ty in _ticks(ylo, yhi):
        parts.append(f'<line x1="{px(xlo) - 5:.2f}" y1="{py(ty):.2f}" x2="{px(xlo):.2f}" '
                     f'y2="{py(ty):.2f}" stroke="black"/>')
        parts.append(f'<text x="{px(xlo) - 8:.2f}" y="{py(ty) + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{ty:.4g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{(_MT + _H - _MB) / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {(_MT + _H - _MB) / 2:.1f})">{ylabel}</text>')
    for i, (x, y, label) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        ok = np.isfinite(x) & np.isfinite(y)
        pts, segs = [], []
        for j in range(len(x)):
            if ok[j]:
                pts.append(f"{px(x[j]):.2f},{py(y[j]):.2f}")
            elif pts:
                segs.append(pts)
                pts = []
        if pts:
            segs.append(pts)
        for seg in segs:
            if len(seg) >= 2:
                parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                             f'stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 * i
        parts.append(f'<line x1="{_W - _MR - 110}" y1="{ly}" x2="{_W - _MR - 90}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 85}" y="{ly + 4}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
