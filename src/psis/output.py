"""Deterministic file outputs: trajectory CSV, run report JSON, and SVG plots.

Identical inputs must produce byte-identical files, so floats are written
with 17 significant digits (enough to round-trip a double), JSON keys are
sorted, and the only nondeterministic element, the SVG timestamp comment,
can be switched off.  Reports are strict JSON: a float that is not finite
is written as a string.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import fields
from datetime import datetime, timezone
from typing import Iterable, Sequence

from .errors import AuditError, ConfigurationError
from .simulation import Pendulum, Trajectory, torque_map
from .verification import SweepReport


def fmt_float(v: float) -> str:
    """Shortest 17-significant-digit decimal form; round-trips exactly."""
    return f"{v:.17g}"


def _path_in_the_way(path: str) -> str | None:
    """Why path cannot be written as a file, if what stands in the way is
    on disk: path is a directory, or its nearest existing ancestor is a
    plain file.  None otherwise."""
    if os.path.isdir(path):
        return "Is a directory"
    ancestor = os.path.dirname(path)
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        return f"{ancestor!r} is not a directory"
    return None


def _write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the text pieces to path in turn, as utf-8 with \\n newlines,
    creating the parent directory.  A path that cannot be written is a
    ConfigurationError."""
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    except (OSError, ValueError) as exc:
        # ValueError: a path with an embedded null byte
        reason = _path_in_the_way(path) or getattr(exc, "strerror", None) or exc
        raise ConfigurationError(f"cannot write output {path!r}: {reason}") from None


def check_outputs(
    paths: Sequence[str | None], config: str | None = None, no_clobber: bool = False
) -> None:
    """Refuse, before any work is done, output paths (None: not written)
    that must not or cannot be written: one that resolves to the config
    file, two that resolve to one file, an existing file under no_clobber,
    and the paths _write_text is bound to fail on, with its texts."""
    wanted = [p for p in paths if p is not None]
    config_file = config and os.path.realpath(config)
    seen: dict[str, str] = {}
    for path in wanted:
        resolved = os.path.realpath(path)
        if resolved == config_file:
            raise ConfigurationError(
                f"refusing to overwrite the config file {config!r} with output {path!r}"
            )
        if resolved in seen:
            raise ConfigurationError(f"outputs {seen[resolved]!r} and {path!r} are the same file")
        seen[resolved] = path
    existing = [p for p in wanted if no_clobber and os.path.exists(p)]
    if existing:
        raise ConfigurationError(
            "refusing to overwrite existing output(s): " + ", ".join(sorted(existing))
        )
    for path in wanted:
        reason = _path_in_the_way(path)
        if reason is not None:
            raise ConfigurationError(f"cannot write output {path!r}: {reason}")


def _state_width(traj: Trajectory) -> int:
    """The number of state components, read off the first sample."""
    if not traj.t:
        raise AuditError("trajectory has no samples")
    return len(traj.x[0])


def write_csv(path: str, traj: Trajectory) -> None:
    """Write the sampled trajectory.

    Header: t,x1..xn,z1..zn,u,V,dV.  Rows at or after the prescribed instant
    leave the z, V, and dV cells empty, because the stage errors are not
    defined there.  A trajectory with no samples is an AuditError.  The
    rows are formatted one at a time as the file is written, so the text
    is never held whole.
    """
    n = _state_width(traj)
    header = (
        ["t"]
        + [f"x{i}" for i in range(1, n + 1)]
        + [f"z{i}" for i in range(1, n + 1)]
        + ["u", "V", "dV"]
    )
    # one %-format per row; %.17g writes the digits of fmt_float
    cell = "%.17g"
    pre_row = ",".join([cell] * (2 * n + 4)) + "\n"
    post_row = ",".join([cell] * (n + 1) + [""] * n + [cell, "", ""]) + "\n"

    def lines():
        yield ",".join(header) + "\n"
        rows = zip(traj.t, traj.x, traj.u)
        # z runs out first, so zip takes no row past the pre-instant ones
        for z, V, dV, (t, x, u) in zip(traj.z, traj.V, traj.dV, rows):
            yield pre_row % (t, *x, *z, u, V, dV)
        for t, x, u in rows:
            yield post_row % (t, *x, u)

    _write_text(path, lines())


def write_sweep_csv(path: str, report: SweepReport) -> None:
    """Summary table of a sweep, one row per scale."""
    lines = ["scale,t_settle,pre_norm_floor,norm_at_Tp,verdict"]
    for row in report.rows:
        ev = row.evidence
        if ev is None:
            lines.append(f"{fmt_float(row.scale)},,,,{row.state}")
            continue
        t_settle = "" if ev.t_settle is None else fmt_float(ev.t_settle)
        lines.append(
            f"{fmt_float(row.scale)},{t_settle},"
            f"{fmt_float(ev.pre_window_floor)},{fmt_float(ev.norm_at_standoff)},{row.state}"
        )
    _write_text(path, ["\n".join(lines) + "\n"])


def _strict_json(value):
    """value with each float that is not finite replaced by the string
    "Infinity", "-Infinity" or "NaN": JSON (RFC 8259) has no number for
    them, and float() reads the strings back."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0.0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def render_report(payload: dict) -> str:
    """The report as strict JSON, keys sorted; see _strict_json."""
    return json.dumps(_strict_json(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(path: str, payload: dict) -> None:
    _write_text(path, [render_report(payload)])


# ---------------------------------------------------------------------------
# SVG rendering

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_PANEL_W = 800
_PANEL_H = 600
_MARGIN_L = 80
_MARGIN_R = 25
_MARGIN_T = 45
_MARGIN_B = 50


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _fmt_tick(v: float) -> str:
    return f"{v:.4g}"


class _Panel:
    """One cartesian panel with linear axes and five labeled ticks each."""

    def __init__(self, y_offset: int, title: str, t_range: tuple[float, float],
                 v_range: tuple[float, float]):
        self.y0 = y_offset
        self.title = title
        self.t_lo, self.t_hi = t_range
        lo, hi = v_range
        if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
            lo, hi = lo - 1.0, lo + 1.0
        pad = 0.05 * (hi - lo)
        self.v_lo, self.v_hi = lo - pad, hi + pad
        self.plot_x = _MARGIN_L
        self.plot_y = y_offset + _MARGIN_T
        self.plot_w = _PANEL_W - _MARGIN_L - _MARGIN_R
        self.plot_h = _PANEL_H - _MARGIN_T - _MARGIN_B

    def px(self, t: float) -> float:
        return self.plot_x + (t - self.t_lo) / (self.t_hi - self.t_lo) * self.plot_w

    def py(self, v: float) -> float:
        return self.plot_y + (self.v_hi - v) / (self.v_hi - self.v_lo) * self.plot_h

    def frame(self) -> list[str]:
        x0, y0 = self.plot_x, self.plot_y
        x1, y1 = x0 + self.plot_w, y0 + self.plot_h
        parts = [
            f'<text x="{x0}" y="{self.y0 + 28}" font-size="15" font-weight="bold">{self.title}</text>',
            f'<rect x="{x0}" y="{y0}" width="{self.plot_w}" height="{self.plot_h}" '
            'fill="none" stroke="#444" stroke-width="1"/>',
        ]
        for tv in _ticks(self.t_lo, self.t_hi):
            x = self.px(tv)
            parts.append(f'<line x1="{x:.2f}" y1="{y1}" x2="{x:.2f}" y2="{y1 + 5}" stroke="#444"/>')
            parts.append(
                f'<text x="{x:.2f}" y="{y1 + 20}" font-size="12" text-anchor="middle">{_fmt_tick(tv)}</text>'
            )
        for vv in _ticks(self.v_lo, self.v_hi):
            y = self.py(vv)
            parts.append(f'<line x1="{x0 - 5}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="#444"/>')
            parts.append(
                f'<text x="{x0 - 8}" y="{y + 4:.2f}" font-size="12" text-anchor="end">{_fmt_tick(vv)}</text>'
            )
        parts.append(
            f'<text x="{(x0 + x1) / 2:.2f}" y="{y1 + 38}" font-size="13" text-anchor="middle">t</text>'
        )
        return parts

    def polyline(self, ts: Sequence[float], vs: Sequence[float], color: str,
                 dashed: bool = False) -> str:
        pts = " ".join(
            f"{self.px(t):.2f},{self.py(v):.2f}"
            for t, v in zip(ts, vs)
            if math.isfinite(v)
        )
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        return (
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )

    def legend(self, entries: list[tuple[str, str, bool]]) -> list[str]:
        parts = []
        x = self.plot_x + self.plot_w - 120
        y = self.plot_y + 18
        for i, (label, color, dashed) in enumerate(entries):
            yy = y + i * 18
            dash = ' stroke-dasharray="6 4"' if dashed else ""
            parts.append(
                f'<line x1="{x}" y1="{yy - 4}" x2="{x + 26}" y2="{yy - 4}" '
                f'stroke="{color}" stroke-width="2"{dash}/>'
            )
            parts.append(f'<text x="{x + 32}" y="{yy}" font-size="12">{label}</text>')
        return parts


def _torque_series(traj: Trajectory) -> list[float] | None:
    plant = traj.meta.get("plant", {})
    if plant.get("type") != "pendulum":
        return None
    pendulum = Pendulum(**{f.name: plant[f.name] for f in fields(Pendulum)})
    return [torque_map(pendulum, x, u) for x, u in zip(traj.x, traj.u)]


def render_svg(traj: Trajectory, title: str, include_timestamp: bool = True) -> str:
    """Two stacked panels: state components on top, input below.

    Self-contained (no external references); the generation timestamp is an
    SVG comment and is the only part allowed to differ between identical
    runs, so it can be disabled for byte-level comparisons.  A trajectory
    with no samples is an AuditError.
    """
    ts = traj.t
    n = _state_width(traj)
    t_range = (ts[0], ts[-1])

    states = [traj.x.flat[j::n] for j in range(n)]  # component j of every row
    setpoint = traj.meta.get("c")
    state_vals = [v for series in states for v in series]
    if setpoint is not None:
        state_vals.append(setpoint)
    p1 = _Panel(0, f"{title}: state", t_range, (min(state_vals), max(state_vals)))

    us = traj.u
    torque = _torque_series(traj)
    input_vals = [*us, *(torque or ())]
    p2 = _Panel(_PANEL_H, f"{title}: input", t_range, (min(input_vals), max(input_vals)))

    body: list[str] = []
    body += p1.frame()
    legend1 = []
    for j in range(n):
        color = _PALETTE[j % len(_PALETTE)]
        body.append(p1.polyline(ts, states[j], color))
        legend1.append((f"x{j + 1}", color, False))
    if setpoint is not None:
        body.append(p1.polyline([ts[0], ts[-1]], [setpoint, setpoint], "#888", dashed=True))
        legend1.append(("setpoint", "#888", True))
    body += p1.legend(legend1)

    body += p2.frame()
    body.append(p2.polyline(ts, us, _PALETTE[0]))
    legend2 = [("u", _PALETTE[0], False)]
    if torque is not None:
        body.append(p2.polyline(ts, torque, _PALETTE[1], dashed=True))
        legend2.append(("torque", _PALETTE[1], True))
    body += p2.legend(legend2)

    stamp = ""
    if include_timestamp:
        stamp = f"<!-- generated {datetime.now(timezone.utc).isoformat()} -->\n"
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_PANEL_W}" '
        f'height="{2 * _PANEL_H}" viewBox="0 0 {_PANEL_W} {2 * _PANEL_H}" '
        'font-family="monospace">\n'
        + stamp
        + '<rect width="100%" height="100%" fill="white"/>\n'
        + "\n".join(body)
        + "\n</svg>\n"
    )


def write_svg(path: str, traj: Trajectory, title: str, include_timestamp: bool = True) -> None:
    _write_text(path, [render_svg(traj, title, include_timestamp)])
