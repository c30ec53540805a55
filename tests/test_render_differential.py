"""`render_svg` against a plain renderer that formats every coordinate and
every preview dot where it is written, byte for byte and error for error."""

import itertools
import xml.etree.ElementTree as ET

import pytest

from butterfly_tree import tree
from butterfly_tree.errors import InvariantViolation
from butterfly_tree.generators import GeneratorKind, tail_generator
from butterfly_tree.skeleton import (
    RenderOptions,
    _cell,
    _fixed9,
    render_svg,
)
from oracles import centre, chain_apex

_KIND_ORDER = tuple(GeneratorKind)


def reference_svg(nodes, options=None):
    """The renderer with no memo: each x is formatted at each use, and each
    tailed cell steps and formats its own preview dots."""
    cells = [(node.core, node.word, node.word_str) for node in nodes]
    opt = options or RenderOptions()
    accent = opt.palette[_KIND_ORDER.index(GeneratorKind.C_CL)]
    span_x = opt.width - 2 * opt.margin
    span_y = opt.height - 2 * opt.margin
    margin, bottom = opt.margin, opt.height - opt.margin

    def px(num, den):
        return _fixed9(margin * den + num * span_x, den)

    def py(num, den):
        return _fixed9(bottom * den - num * span_y, den)

    rendered = {cell[2]: cell for cell in cells}
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
        _, (p_l, q_l, plus_l, minus_l, d_l), (p_r, q_r, plus_r, minus_r, d_r) = _cell(core)
        x_l, y_bl, y_tl = px(p_l, q_l), py(plus_l, d_l), py(minus_l, d_l)
        x_r, y_tr, y_br = px(p_r, q_r), py(plus_r, d_r), py(minus_r, d_r)
        if not word:
            fill = 'fill="none"'
        else:
            fill = f'fill="{opt.palette[_KIND_ORDER.index(word[-1])]}" fill-opacity="0.5"'
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
        p, q, r = chain_apex(core, word)
        tails.append(f'<polygon points="{x},{y_plus} {x},{y_minus} '
                     f'{px(p, q)},{py(r, q)}" fill="none" stroke="{accent}" '
                     f'stroke-width="1" stroke-dasharray="4 3" '
                     f'data-tail-of="{text or "root"}"/>')
        if opt.chain_preview:
            last = cell
            while kind is not None:
                nxt = rendered.get(f"{last[2]}.{kind.token}" if last[2] else kind.token)
                if nxt is None:
                    break
                last = nxt
                kind = tail_generator(last[0][0], last[0][1])
            for member in tree.chain_cores(last[0], opt.chain_preview, last[1]):
                p_c, q_c, r_c = centre(member)
                tails.append(f'<circle cx="{px(p_c, q_c)}" cy="{py(r_c, q_c)}" r="2.2" '
                             f'fill="{accent}"/>')
    out += tails
    out.append('</svg>')
    return "\n".join(out) + "\n"


def _outcome(render, nodes, options=None):
    try:
        return render(nodes, options)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cap", range(4))
def test_render_equals_the_reference_over_the_grid(cap):
    for depth, preview in itertools.product(range(5), (0, 1, 4, 7)):
        nodes = list(tree.expand(tree.ExpansionLimits(max_depth=depth, chain_cap=cap)))
        options = RenderOptions(chain_preview=preview)
        document = render_svg(nodes, options)
        assert document == reference_svg(nodes, options), (depth, preview)
        ET.fromstring(document)


def test_render_equals_the_reference_with_custom_margin_and_palette():
    nodes = list(tree.expand(tree.ExpansionLimits(max_depth=3, chain_cap=2)))
    options = RenderOptions(width=640, height=480, margin=17, chain_preview=3,
                            palette=tuple(f"#{i}0{i}0{i}0" for i in range(8)))
    document = render_svg(nodes, options)
    assert document == reference_svg(nodes, options)
    ET.fromstring(document)
    assert 'fill="#606060"' in document and 'data-x-transform="x = 17 + phi * 606"' in document


def test_a_repeated_word_with_another_core_renders_as_the_reference():
    # The later UL.TL, with DL.TL's core, replaces the first as the chain
    # member below UL that the preview starts from; the first keeps its own.
    nodes = list(tree.expand(tree.ExpansionLimits(max_depth=2, chain_cap=2)))
    nodes.append(tree.node_at("DL.TL")._replace(word=tree.parse_word("UL.TL")))
    for preview in (0, 1, 4):
        options = RenderOptions(chain_preview=preview)
        document = render_svg(nodes, options)
        assert document == reference_svg(nodes, options)
        assert document.count('data-word="UL.TL"') == 2


@pytest.mark.parametrize("preview", [0, 1, 4])
def test_a_tampered_chain_fails_as_the_reference(preview):
    # CL.TR with unfriendly edges (determinant -4), its tail still right:
    # CL's preview steps from it first, and with no preview its own apex does.
    nodes = list(tree.expand(tree.ExpansionLimits(max_depth=2, chain_cap=2)))
    at = [node.word_str for node in nodes].index("CL.TR")
    nodes[at] = nodes[at]._replace(core=(5, 3, 4, 4, 3, 1))
    options = RenderOptions(chain_preview=preview)
    want = _outcome(reference_svg, nodes, options)
    assert want[0] is InvariantViolation and "determinant -4" in want[1]
    assert _outcome(render_svg, nodes, options) == want


@pytest.mark.parametrize("preview", [1, 4])
def test_a_chain_end_with_a_zero_slope_previews_as_the_reference(preview):
    # CL.TR, the end of CL's chain, tampered to edges 1/2, 1/1 and slopes
    # (3, 0): the cell is drawn and its first chain member passes every
    # check, but its centres step evenly only from that member on.
    core = (1, 2, 3, 0, 1, 1)
    c_0, c_1, c_2 = map(centre, (core, *tree.chain_cores(core, 2, ())))
    assert [b - a for a, b in zip(c_0, c_1)] != [b - a for a, b in zip(c_1, c_2)]
    nodes = list(tree.expand(tree.ExpansionLimits(max_depth=2, chain_cap=2)))
    at = [node.word_str for node in nodes].index("CL.TR")
    nodes[at] = nodes[at]._replace(core=core)
    options = RenderOptions(chain_preview=preview)
    assert render_svg(nodes, options) == reference_svg(nodes, options)
