"""Skeleton geometry in the (flux, density) plane, and deterministic SVG.

Each butterfly is drawn as the trapezoid between its two vertical flux
edges, crossed by two diagonals of integer slopes +sigma_plus and
-sigma_minus meeting at the center point (phi_c, r_c/q_c).  Every tail
adds a triangle from the shared vertical edge to the chain's accumulation
point; chains beyond the rendered set are previewed as dots at their
exact center points.  All geometry is exact integer numerator/denominator
pairs, computed from each cell's integer core by one set of formulas
(`_centre`, `_cell`, `_apex`); `cell_geometry` and `tail_triangle` are
their public Fraction views, which read the core and build no state, and
`tail_triangle` builds no cell.  The SVG writer maps the pairs to pixels
in integers and writes fixed 9-digit decimals, so rendering the same
input twice produces identical bytes; it formats each x coordinate once,
and each chain end's preview dots once.
The Wannier gap lines come from `diophantine.wannier_rows`, re-exported
here; `wannier_lines` is their Fraction view.
"""

from __future__ import annotations

from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .diophantine import central_gap, wannier_rows
from .errors import EmptyInput
from .generators import Core, GeneratorKind, tail_generator
from .tree import TreeNode, chain_cores

if TYPE_CHECKING:
    from fractions import Fraction

DEFAULT_PALETTE = ("#80be8e", "#d9cb97", "#e6a37d", "#d37a7d",
                   "#a195c6", "#e3a8d2", "#7995c4", "#8bc8da")

_KIND_ORDER = tuple(GeneratorKind)


class SkeletonCell(NamedTuple):
    """Exact drawing data of one butterfly cell.

    slope_minus is the signed slope -sigma_minus.  The four corner
    densities are the two diagonals evaluated at the two edge fluxes;
    color_index picks the creating generator's palette entry (None for
    the root, which is drawn unfilled).
    """

    phi_left: Fraction
    phi_right: Fraction
    center: tuple[Fraction, Fraction]
    slope_plus: int
    slope_minus: int
    plus_at_left: Fraction
    plus_at_right: Fraction
    minus_at_left: Fraction
    minus_at_right: Fraction
    color_index: Optional[int]

    def corners(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Corners in draw order: bottom-left, top-left, top-right, bottom-right.

        The plus diagonal is lowest at the left edge and highest at the
        right edge; the minus diagonal is the opposite.
        """
        return ((self.phi_left, self.plus_at_left),
                (self.phi_left, self.minus_at_left),
                (self.phi_right, self.plus_at_right),
                (self.phi_right, self.minus_at_right))


class WannierLine(NamedTuple):
    """Density line rho = sigma*phi + tau through the gap point (p/q, r/q)."""

    sigma: int
    tau: int
    flux: Fraction
    r: int


def _centre(core: Core) -> tuple[int, int, int]:
    """(p_c, q_c, r_c): the center flux p_c/q_c in lowest terms and its gap."""
    q_r, q_l, s_p, s_m, p_r, p_l = core
    return central_gap(s_p, s_m, p_l + p_r, q_l + q_r)


def _cell(core: Core) -> tuple[tuple[int, ...], ...]:
    """The center (p_c, q_c, r_c) and the left and right edges of a cell.

    An edge (p, q, plus, minus, d) sits at flux p/q; the diagonals
    rho_c + sigma_+ (phi - phi_c) and rho_c - sigma_- (phi - phi_c) cross
    it at densities plus/d and minus/d, with d = q_c*q.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = core
    p_c, q_c, r_c = centre = _centre(core)
    edges = []
    for p, q in ((p_l, q_l), (p_r, q_r)):
        run = p * q_c - p_c * q
        edges.append((p, q, r_c * q + s_p * run, r_c * q - s_m * run, q_c * q))
    return centre, edges[0], edges[1]


def _apex(first: Core, second: Core) -> tuple[int, int, int]:
    """(p, q, r): the tail apex (p/q, r/q), q > 0, from two chain members.

    Along a chain (p_c, q_c) grows by a fixed vector, so the difference of
    two centers lies at the accumulation flux, on the line through them.
    """
    (p1, q1, r1), (p2, q2, r2) = _centre(first), _centre(second)
    return p2 - p1, q2 - q1, r2 - r1


def cell_geometry(node: TreeNode) -> SkeletonCell:
    """Exact cell geometry of a node; propagates InconsistentChernPair."""
    import fractions  # the Fraction views alone load it, so `render_svg` does not
    Fraction = fractions.Fraction
    q_r, q_l, s_p, s_m, p_r, p_l = core = node.core
    # Both edge fluxes first: a zero denominator raises as the state view does.
    phi_left, phi_right = Fraction(p_l, q_l), Fraction(p_r, q_r)
    (p_c, q_c, r_c), left, right = _cell(core)
    color = None if not node.word else _KIND_ORDER.index(node.word[-1])
    return SkeletonCell(
        phi_left=phi_left,
        phi_right=phi_right,
        center=(Fraction(p_c, q_c), Fraction(r_c, q_c)),
        slope_plus=s_p,
        slope_minus=-s_m,
        plus_at_left=Fraction(left[2], left[4]),
        plus_at_right=Fraction(right[2], right[4]),
        minus_at_left=Fraction(left[3], left[4]),
        minus_at_right=Fraction(right[3], right[4]),
        color_index=color,
    )


def tail_triangle(node: TreeNode) -> tuple[tuple[Fraction, Fraction], ...]:
    """Triangle from the tail edge to the chain's accumulation point.

    The two base corners are the cell corners on the tailed edge, from
    `_cell`'s integer edges (no `SkeletonCell` is built); the apex
    sits at the accumulation flux, at the density obtained by extending
    the line through the chain members' centers (they are collinear, so
    this is the limit of the chain centers).
    """
    import fractions
    Fraction = fractions.Fraction
    q_r, q_l, _, _, p_r, p_l = core = node.core
    # Both edge fluxes first: a zero denominator raises as the state view does.
    phi_left, phi_right = Fraction(p_l, q_l), Fraction(p_r, q_r)
    _, left, right = _cell(core)
    p, q, r = _apex(*chain_cores(core, 2, node.word))
    phi, (_, _, plus, minus, d) = ((phi_right, right) if node.tail_direction == "right"
                                   else (phi_left, left))
    return (phi, Fraction(plus, d)), (phi, Fraction(minus, d)), (Fraction(p, q), Fraction(r, q))


def wannier_lines(q_max: int) -> list[WannierLine]:
    """Canonical (sigma, tau) for every gap of every reduced flux q <= q_max:
    the `wannier_rows` as WannierLines, one Fraction per flux."""
    from fractions import Fraction
    lines, flux = [], Fraction(0)
    for sigma, tau, p, q, r in wannier_rows(q_max):
        if flux.denominator != q or flux.numerator != p:
            flux = Fraction(p, q)
        lines.append(WannierLine(sigma, tau, flux, r))
    return lines


class RenderOptions(namedtuple("RenderOptions", "width height margin palette chain_preview")):
    """Canvas and style knobs; all defaults deterministic."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, width: int = 800, height: int = 800, margin: int = 40,
                palette: Sequence[str] = DEFAULT_PALETTE, chain_preview: int = 4
                ) -> RenderOptions:
        if len(palette) != 8:
            raise ValueError("palette must have exactly 8 colors")
        if width <= 2 * margin or height <= 2 * margin:
            raise ValueError("canvas too small for the margin")
        if chain_preview < 0:
            raise ValueError("chain_preview must be >= 0")
        return super().__new__(cls, width, height, margin, palette, chain_preview)


def _fixed9(num: int, den: int) -> str:
    """Fixed 9 decimals of num/den (den > 0, any common factor), half away from 0."""
    sign = "-" if num < 0 else ""
    units, rem = divmod(abs(num) * 10 ** 9, den)
    if 2 * rem >= den:
        units += 1
    whole, frac = divmod(units, 10 ** 9)
    return f"{sign}{whole}.{frac:09d}"


def render_svg(nodes: Iterable[TreeNode], options: Optional[RenderOptions] = None) -> str:
    """Deterministic SVG of the given cells (typically an expand() stream).

    One pass writes each cell's group and, after all the groups, the tail
    triangle (on the right edge for C_cR, else the left) and preview dots
    of each tailed cell.  Each x coordinate is formatted once, and the dots
    below a chain end once per end core: every member of a rendered chain
    repeats its end's dots."""
    cells = [(node.core, node.word, node.word_str) for node in nodes]
    if not cells:
        raise EmptyInput("no nodes to render")
    opt = options or RenderOptions()
    accent = opt.palette[_KIND_ORDER.index(GeneratorKind.C_CL)]
    span_x = opt.width - 2 * opt.margin
    span_y = opt.height - 2 * opt.margin
    margin, bottom = opt.margin, opt.height - opt.margin

    xs: dict[tuple[int, int], str] = {}  # few fluxes: x repeats across cells

    def px(num: int, den: int) -> str:
        x = xs.get((num, den))
        if x is None:
            x = xs[num, den] = _fixed9(margin * den + num * span_x, den)
        return x

    def py(num: int, den: int) -> str:
        return _fixed9(bottom * den - num * span_y, den)

    def edge(p: int, q: int, plus: int, minus: int, d: int) -> tuple[str, str, str]:
        return px(p, q), py(plus, d), py(minus, d)

    rendered = {cell[2]: cell for cell in cells}
    previews: dict[Core, list[str]] = {}
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{opt.width}" height="{opt.height}" '
        f'viewBox="0 0 {opt.width} {opt.height}" '
        f'data-x-transform="x = {opt.margin} + phi * {span_x}" '
        f'data-y-transform="y = {opt.height - opt.margin} - rho * {span_y}">',
        f'<desc>butterfly skeleton, {len(cells)} cells; flux and density '
        f'mapped affinely from the unit square per the data transforms</desc>',
        f'<rect x="{opt.margin}" y="{opt.margin}" width="{span_x}" '
        f'height="{span_y}" fill="#ffffff" stroke="#1a1a1a" stroke-width="1"/>',
    ]
    tails = []
    for cell in cells:
        core, word, text = cell
        _, left, right = _cell(core)
        x_l, y_bl, y_tl = edge(*left)
        x_r, y_tr, y_br = edge(*right)
        if not word:
            fill = 'fill="none"'
        else:
            color = opt.palette[_KIND_ORDER.index(word[-1])]
            fill = f'fill="{color}" fill-opacity="0.5"'
        out.append(f'<g data-word="{text or "root"}">')
        out.append(f'<polygon points="{x_l},{y_bl} {x_l},{y_tl} {x_r},{y_tr} '
                   f'{x_r},{y_br}" {fill} stroke="#1a1a1a" stroke-width="1"/>')
        out.append(f'<line x1="{x_l}" y1="{y_bl}" x2="{x_r}" y2="{y_tr}" '
                   f'stroke="#1a1a1a" stroke-width="0.75"/>')
        out.append(f'<line x1="{x_l}" y1="{y_tl}" x2="{x_r}" y2="{y_br}" '
                   f'stroke="#1a1a1a" stroke-width="0.75"/>')
        out.append('</g>')
        kind = tail_generator(core[0], core[1])
        if kind is None:
            continue
        x, y_plus, y_minus = ((x_r, y_tr, y_br) if kind is GeneratorKind.C_CR
                              else (x_l, y_bl, y_tl))
        p, q, r = _apex(*chain_cores(core, 2, word))
        tails.append(f'<polygon points="{x},{y_plus} {x},{y_minus} '
                     f'{px(p, q)},{py(r, q)}" fill="none" stroke="{accent}" '
                     f'stroke-width="1" stroke-dasharray="4 3" '
                     f'data-tail-of="{text or "root"}"/>')
        if opt.chain_preview:
            # The preview starts below the last rendered member of the chain.
            last = cell
            while kind is not None:
                nxt = rendered.get(f"{last[2]}.{kind.token}" if last[2] else kind.token)
                if nxt is None:
                    break
                last = nxt
                kind = tail_generator(last[0][0], last[0][1])
            dots = previews.get(last[0])
            if dots is None:
                dots = previews[last[0]] = [
                    f'<circle cx="{px(p_c, q_c)}" cy="{py(r_c, q_c)}" r="2.2" '
                    f'fill="{accent}"/>'
                    for p_c, q_c, r_c in map(_centre, chain_cores(last[0], opt.chain_preview,
                                                                  last[1]))]
            tails += dots
    out += tails
    out.append('</svg>')
    return "\n".join(out) + "\n"
