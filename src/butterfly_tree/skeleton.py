"""Skeleton geometry in the (flux, density) plane, and deterministic SVG.

Each butterfly is drawn as the trapezoid between its two vertical flux
edges, crossed by two diagonals of integer slopes +sigma_plus and
-sigma_minus meeting at the center point (phi_c, r_c/q_c).  Every tail
adds a triangle from the shared vertical edge to the chain's accumulation
point; chains beyond the rendered set are previewed as dots at their
exact center points.  All geometry is exact integer numerator/denominator
pairs, computed from each cell's integer core by one set of formulas
(`_cell`, and `_tail` from a tail's first member and its constant step);
`cell_geometry` and `tail_triangle` are their public Fraction views, which
read the core and build no state, and `tail_triangle` builds no cell.  The
SVG writer maps the pairs to pixels in integers and writes fixed 9-digit
decimals, so rendering the same input twice produces identical bytes; it
formats each x coordinate once per render, by `functools.cache`.
The SVG streams: `_svg_parts` yields the header, each cell's group, then
the tails, and `render_svg` joins them, while CLI `render` writes each part
as it is made; only the cells and the tails are held, never the document
(the README gives the peak RSS).  The nodes are all read, so an expansion
is all checked, before the first part: in the CLI only an I/O failure can
cut the output, and that leaves a partial file and exits 3, as `expand` does.
The Wannier gap lines, `wannier_lines`, are the Fraction view of
`diophantine.gap_rows` over `diophantine.reduced_fluxes`.
"""

from __future__ import annotations

import functools
import re
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional, Sequence

from .diophantine import central_gap, gap_rows, reduced_fluxes
from .errors import EmptyInput
from .generators import (Core, GeneratorKind, _C_CL, _C_CR, _check_denominators, _repr_cut,
                         tail_generator)
from .tree import TreeNode, Word, chain_cores

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


def _cell(core: Core) -> tuple[tuple[int, ...], ...]:
    """The center (p_c, q_c, r_c), by `central_gap`, and the two edges of a cell.

    An edge (p, q, plus, minus, d) sits at flux p/q; the diagonals
    rho_c + sigma_+ (phi - phi_c) and rho_c - sigma_- (phi - phi_c) cross
    it at densities plus/d and minus/d, with d = q_c*q.  A non-positive
    denominator raises InvariantViolation, as the state view does.
    """
    _check_denominators(core)
    q_r, q_l, s_p, s_m, p_r, p_l = core
    p_c, q_c, r_c = centre = central_gap(s_p, s_m, p_l + p_r, q_l + q_r)
    edges = []
    for p, q in ((p_l, q_l), (p_r, q_r)):
        run = p * q_c - p_c * q
        edges.append((p, q, r_c * q + s_p * run, r_c * q - s_m * run, q_c * q))
    return centre, edges[0], edges[1]


def _tail(core: Core, word: Word) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The centre (p_c, q_c, r_c) of chain member 1, which `chain_cores` steps
    and checks, and the constant step between members' centres: the apex.

    A chain step adds (d, d, d, d, e, e) to any core (d = |q_R - q_L|, e the
    matching numerator difference), and no check fails past member 1 (the
    argument is in `chain_cores`).  From member 1 on, sigma_+ grows by d, the
    reduced (p_c, q_c) by (2e, 2d) and r_c by K = 2 (d r_c + 2 sigma) / q_c
    - 2, sigma = sigma_+ (C_cR) or sigma_- (C_cL): the n^2 terms of sigma_+
    p_c (mod q_c) cancel, and by the determinant d r_c + 2 sigma is a
    multiple of q_c in (0, (d + 2) q_c), so 0 <= K <= 2d keeps r_c in
    [0, q_c).  A tampered core's own centre may be off that line (a zero
    slope breaks it), so the centres start at member 1.
    """
    q_r, q_l, s_p, s_m, p_r, p_l = next(chain_cores(core, 1, word))
    d, e = q_r - core[0], p_r - core[4]
    p_c, q_c, r_c = centre = central_gap(s_p, s_m, p_l + p_r, q_l + q_r)
    return centre, (2 * e, 2 * d, 2 * ((d * r_c + 2 * (s_p if q_r > q_l else s_m)) // q_c) - 2)


def cell_geometry(node: TreeNode) -> SkeletonCell:
    """Exact cell geometry of a node; propagates InconsistentChernPair."""
    import fractions  # the Fraction views alone load it, so `render_svg` does not
    Fraction = fractions.Fraction
    q_r, q_l, s_p, s_m, p_r, p_l = core = node.core
    (p_c, q_c, r_c), left, right = _cell(core)
    color = None if not node.word else _KIND_ORDER.index(node.word[-1])
    return SkeletonCell(
        phi_left=Fraction(p_l, q_l),
        phi_right=Fraction(p_r, q_r),
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
    """Triangle from the tail edge to the chain's accumulation point: the
    cell corners on the tailed edge, from `_cell`'s integer edges (no
    `SkeletonCell` is built), and the apex of `_tail`, where the line
    through the chain members' centres meets the accumulation flux.
    """
    import fractions
    Fraction = fractions.Fraction
    _, left, right = _cell(node.core)
    _, (p, q, r) = _tail(node.core, node.word)
    p_edge, q_edge, plus, minus, d = right if node.tail_direction == "right" else left
    phi = Fraction(p_edge, q_edge)
    return (phi, Fraction(plus, d)), (phi, Fraction(minus, d)), (Fraction(p, q), Fraction(r, q))


def wannier_lines(q_max: int) -> list[WannierLine]:
    """Canonical (sigma, tau) for every gap of every reduced flux q <= q_max:
    the `gap_rows` of each of the `reduced_fluxes`, as CLI `wannier` loops
    them, as WannierLines with one Fraction per flux."""
    from fractions import Fraction
    lines = []
    for p, q in reduced_fluxes(q_max):
        flux = Fraction(p, q)
        lines += [WannierLine(sigma, tau, flux, r) for r, sigma, tau in gap_rows(p, q)]
    return lines


# A palette color: `#` and 3 or 6 hex digits, or a name of ASCII letters, so
# that no color can end an SVG attribute or start markup.
_COLOR = re.compile(r"#[0-9A-Fa-f]{3}(?:[0-9A-Fa-f]{3})?|[A-Za-z]+")


class RenderOptions(namedtuple("RenderOptions", "width height margin palette chain_preview")):
    """Canvas and style knobs; all defaults deterministic.  Each palette
    color must match `_COLOR`, and the margin be at least 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that `_replace` checks too

    def __new__(cls, width: int = 800, height: int = 800, margin: int = 40,
                palette: Sequence[str] = DEFAULT_PALETTE, chain_preview: int = 4
                ) -> RenderOptions:
        if len(palette) != 8:
            raise ValueError("palette must have exactly 8 colors")
        for number, color in enumerate(palette, 1):
            if not (isinstance(color, str) and _COLOR.fullmatch(color)):
                raise ValueError(f"palette color {number} is not #rgb, #rrggbb or a name "
                                 f"of ASCII letters: {_repr_cut(color)}")
        if margin < 0:
            raise ValueError("margin must be >= 0")
        if width <= 2 * margin or height <= 2 * margin:
            raise ValueError("canvas too small for the margin")
        if chain_preview < 0:
            raise ValueError("chain_preview must be >= 0")
        return super().__new__(cls, width, height, margin, palette, chain_preview)


def _fixed9(num: int, den: int) -> str:
    """Fixed 9 decimals of num/den (den > 0, any common factor), half away from 0."""
    digits = str((abs(num) * 2_000_000_000 + den) // (2 * den)).rjust(10, "0")
    return f"{'-' if num < 0 else ''}{digits[:-9]}.{digits[-9:]}"


def render_svg(nodes: Iterable[TreeNode], options: Optional[RenderOptions] = None) -> str:
    """Deterministic SVG of the given cells (typically an expand() stream):
    the `_svg_parts` joined."""
    return "".join(_svg_parts(nodes, options))


def _svg_parts(nodes: Iterable[TreeNode], options: Optional[RenderOptions]) -> Iterator[str]:
    """The SVG of `render_svg` in parts: the header, each cell's group, then
    the tails and the closing tag, each part whole lines.

    The nodes are read on the call, so an empty input raises EmptyInput and a
    bad expansion raises before the first part; after that only a tampered
    core can raise, as `_cell` or `chain_cores` rejects it."""
    cells = [(node.core, node.word, node.word_str) for node in nodes]
    if not cells:
        raise EmptyInput("no nodes to render")
    return _svg_stream(cells, options or RenderOptions())


def _svg_stream(cells: list[tuple], opt: RenderOptions) -> Iterator[str]:
    """One pass writes each cell's group and holds, for after all the groups,
    the tail triangle (on the right edge for C_cR, else the left) and the
    preview dots of each tailed cell.  `px` formats each x once per render
    (`functools.cache`).  Every member of a rendered chain writes its end's
    dots again, from the end's `_tail`: the cell's own when it is the end."""
    accent = opt.palette[_KIND_ORDER.index(_C_CL)]
    span_x = opt.width - 2 * opt.margin
    span_y = opt.height - 2 * opt.margin
    margin, bottom = opt.margin, opt.height - opt.margin

    @functools.cache  # few fluxes: x repeats across cells
    def px(num: int, den: int) -> str:
        return _fixed9(margin * den + num * span_x, den)

    def py(num: int, den: int) -> str:
        return _fixed9(bottom * den - num * span_y, den)

    def edge(p: int, q: int, plus: int, minus: int, d: int) -> tuple[str, str, str]:
        return px(p, q), py(plus, d), py(minus, d)

    yield (f'<?xml version="1.0" encoding="UTF-8"?>\n'
           f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
           f'width="{opt.width}" height="{opt.height}" '
           f'viewBox="0 0 {opt.width} {opt.height}" '
           f'data-x-transform="x = {opt.margin} + phi * {span_x}" '
           f'data-y-transform="y = {opt.height - opt.margin} - rho * {span_y}">\n'
           f'<desc>butterfly skeleton, {len(cells)} cells; flux and density '
           f'mapped affinely from the unit square per the data transforms</desc>\n'
           f'<rect x="{opt.margin}" y="{opt.margin}" width="{span_x}" '
           f'height="{span_y}" fill="#ffffff" stroke="#1a1a1a" stroke-width="1"/>\n')
    rendered = {cell[2]: cell for cell in cells}
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
        yield (f'<g data-word="{text or "root"}">\n'
               f'<polygon points="{x_l},{y_bl} {x_l},{y_tl} {x_r},{y_tr} '
               f'{x_r},{y_br}" {fill} stroke="#1a1a1a" stroke-width="1"/>\n'
               f'<line x1="{x_l}" y1="{y_bl}" x2="{x_r}" y2="{y_tr}" '
               f'stroke="#1a1a1a" stroke-width="0.75"/>\n'
               f'<line x1="{x_l}" y1="{y_tl}" x2="{x_r}" y2="{y_br}" '
               f'stroke="#1a1a1a" stroke-width="0.75"/>\n'
               f'</g>\n')
        kind = tail_generator(core[0], core[1])
        if kind is None:
            continue
        x, y_plus, y_minus = ((x_r, y_tr, y_br) if kind is _C_CR
                              else (x_l, y_bl, y_tl))
        _, (p, q, r) = tail = _tail(core, word)
        tails.append(f'<polygon points="{x},{y_plus} {x},{y_minus} '
                     f'{px(p, q)},{py(r, q)}" fill="none" stroke="{accent}" '
                     f'stroke-width="1" stroke-dasharray="4 3" '
                     f'data-tail-of="{text or "root"}"/>\n')
        if opt.chain_preview:
            # The preview starts below the last rendered member of the chain,
            # whose members all share this tail letter (`chain_cores`).
            last, token = cell, kind.token
            while True:
                nxt = rendered.get(f"{last[2]}.{token}" if last[2] else token)
                if nxt is None:
                    break
                last = nxt
            (p, q, r), (d_p, d_q, d_r) = tail if last is cell else _tail(*last[:2])
            tails.append("".join(
                f'<circle cx="{px(p + n * d_p, q + n * d_q)}" '
                f'cy="{py(r + n * d_r, q + n * d_q)}" r="2.2" fill="{accent}"/>\n'
                for n in range(opt.chain_preview)))
    yield from tails
    yield '</svg>\n'
