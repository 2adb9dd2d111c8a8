"""Self-contained SVG line chart for the dimension sweep (no external assets)."""

WIDTH, HEIGHT = 640, 440
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 70, 25, 25, 55
Y_MAX = 0.35


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_sweep_svg(rows) -> str:
    """Render sweep rows as an SVG document string.

    The x axis is linear in m = log2(N) to mirror the N = 2^m sweep; the y
    axis spans [0, 0.35]. The analytic curve is a single polyline and each
    Monte Carlo point gets a circle marker with an error bar of +/- 2 stderr.
    """
    if not rows:
        raise ValueError("nothing to plot")
    max_exp = len(rows)
    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def x_of(m):
        frac = (m - 1) / (max_exp - 1) if max_exp > 1 else 0.5
        return MARGIN_LEFT + frac * plot_w

    def y_of(v):
        return MARGIN_TOP + (1.0 - min(max(v, 0.0), Y_MAX) / Y_MAX) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    # axes
    x0, y0 = MARGIN_LEFT, HEIGHT - MARGIN_BOTTOM
    x1, y1 = WIDTH - MARGIN_RIGHT, MARGIN_TOP
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for tick in (0.0, 0.1, 0.2, 0.3):
        ty = y_of(tick)
        parts.append(f'<line x1="{x0 - 4}" y1="{_fmt(ty)}" x2="{x0}" y2="{_fmt(ty)}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{x0 - 8}" y="{_fmt(ty + 4)}" font-size="12" '
                     f'text-anchor="end">{tick:g}</text>')
    for m, row in enumerate(rows, start=1):
        tx = x_of(m)
        parts.append(f'<line x1="{_fmt(tx)}" y1="{y0}" x2="{_fmt(tx)}" y2="{y0 + 4}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{_fmt(tx)}" y="{y0 + 18}" font-size="12" '
                     f'text-anchor="middle">{row.n}</text>')
    parts.append(f'<text x="{(x0 + x1) / 2:.0f}" y="{HEIGHT - 12}" font-size="13" '
                 'text-anchor="middle">dimension N = 2^m</text>')
    parts.append(f'<text x="16" y="{(y0 + y1) / 2:.0f}" font-size="13" '
                 f'text-anchor="middle" transform="rotate(-90 16 {(y0 + y1) / 2:.0f})">'
                 'average coherence</text>')

    points = " ".join(f"{_fmt(x_of(m))},{_fmt(y_of(row.analytic))}"
                      for m, row in enumerate(rows, start=1))
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f77b4" '
                 'stroke-width="1.5"/>')
    for m, row in enumerate(rows, start=1):
        cx, cy = x_of(m), y_of(row.mc_mean)
        lo, hi = y_of(row.mc_mean - 2 * row.mc_stderr), y_of(row.mc_mean + 2 * row.mc_stderr)
        parts.append(f'<line x1="{_fmt(cx)}" y1="{_fmt(lo)}" x2="{_fmt(cx)}" '
                     f'y2="{_fmt(hi)}" stroke="#d62728"/>')
        parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.5" fill="#d62728"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
