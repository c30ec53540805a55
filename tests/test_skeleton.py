"""Skeleton cell geometry, Wannier lines, and deterministic SVG output."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from butterfly_tree import tree
from butterfly_tree.errors import EmptyInput, InconsistentChernPair, InvariantViolation, NoTail
from butterfly_tree.generators import apply_state, step_core, tail_generator
from butterfly_tree.skeleton import (
    DEFAULT_PALETTE,
    RenderOptions,
    _fixed9,
    _tail,
    cell_geometry,
    render_svg,
    tail_triangle,
    wannier_lines,
    wannier_rows,
)
from oracles import centre, chain_apex, decimal9

F = Fraction


def test_root_cell_is_unit_square():
    cell = cell_geometry(tree.root())
    assert (cell.phi_left, cell.phi_right) == (F(0), F(1))
    assert cell.center == (F(1, 2), F(1, 2))
    assert (cell.slope_plus, cell.slope_minus) == (1, -1)
    assert cell.corners() == ((F(0), F(0)), (F(0), F(1)),
                              (F(1), F(1)), (F(1), F(0)))
    assert cell.color_index is None


def test_child_cell_reference_geometry():
    ul = cell_geometry(tree.node_at("UL"))
    assert (ul.phi_left, ul.phi_right) == (F(1, 3), F(1, 2))
    assert ul.center == (F(2, 5), F(4, 5))
    assert (ul.slope_plus, ul.slope_minus) == (2, -3)
    assert ul.corners() == ((F(1, 3), F(2, 3)), (F(1, 3), F(1)),
                            (F(1, 2), F(1)), (F(1, 2), F(1, 2)))
    assert ul.color_index == 2

    cr = cell_geometry(tree.node_at("CR"))
    assert (cr.phi_left, cr.phi_right) == (F(2, 3), F(1))
    assert cr.center == (F(3, 4), F(1, 2))
    assert (cr.slope_plus, cr.slope_minus) == (2, -2)
    assert cr.corners() == ((F(2, 3), F(1, 3)), (F(2, 3), F(2, 3)),
                            (F(1), F(1)), (F(1), F(0)))
    assert cr.color_index == 1


def test_edge_openings_and_corner_denominators():
    for node in tree.expand(tree.ExpansionLimits(max_depth=3, chain_cap=3)):
        cell = cell_geometry(node)
        state = node.state
        assert cell.minus_at_left - cell.plus_at_left == F(1, state.q_l)
        assert cell.plus_at_right - cell.minus_at_right == F(1, state.q_r)
        for rho in (cell.plus_at_left, cell.minus_at_left):
            assert (state.q_c * state.q_l) % rho.denominator == 0
        for rho in (cell.plus_at_right, cell.minus_at_right):
            assert (state.q_c * state.q_r) % rho.denominator == 0


def test_same_interval_siblings_are_vertically_separated():
    up = cell_geometry(tree.node_at("UL"))
    down = cell_geometry(tree.node_at("DL"))
    assert (up.phi_left, up.phi_right) == (down.phi_left, down.phi_right)
    assert down.center == (F(2, 5), F(1, 5))
    assert down.corners() == ((F(1, 3), F(0)), (F(1, 3), F(1, 3)),
                              (F(1, 2), F(1, 2)), (F(1, 2), F(0)))
    for above, below in zip(up.corners(), down.corners()):
        assert above[1] > below[1]


def test_tail_triangle_reference_values():
    assert tail_triangle(tree.node_at("CL")) == (
        (F(1, 3), F(2, 3)), (F(1, 3), F(1, 3)), (F(1, 2), F(1, 2)))
    assert tail_triangle(tree.node_at("UL")) == (
        (F(1, 3), F(2, 3)), (F(1, 3), F(1)), (F(0), F(1)))
    with pytest.raises(NoTail):
        tail_triangle(tree.root())


def test_tail_triangle_base_sits_on_tailed_edge():
    for node in tree.expand(tree.ExpansionLimits(max_depth=2, chain_cap=1)):
        if node.state.tail_generator is None:
            continue
        cell = cell_geometry(node)
        first, second, apex = tail_triangle(node)
        edge = cell.phi_right if node.tail_direction == "right" else cell.phi_left
        assert first[0] == second[0] == edge
        assert apex[0] == node.state.accumulation.value
        assert apex[0] != edge


def test_tail_triangle_base_is_the_cell_corners_on_the_tailed_edge():
    tailed = [node for node in tree.expand(tree.ExpansionLimits(max_depth=4, chain_cap=2))
              if node.tail_direction != "none"]
    assert len(tailed) == 2394  # all but the root
    for node in tailed:
        corners = cell_geometry(node).corners()
        base = corners[2:] if node.tail_direction == "right" else corners[:2]
        assert tail_triangle(node)[:2] == base, node.word_str


def _cell_tail_triangle(node):
    """tail_triangle by way of the whole cell: the corners of `cell_geometry`."""
    corners = cell_geometry(node).corners()
    p, q, r = chain_apex(node.core, node.word)
    base = corners[2:] if node.tail_direction == "right" else corners[:2]
    return base + ((F(p, q), F(r, q)),)


def _outcome(function, node):
    try:
        return function(node)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("word, core", [
    ("UL", (2, 0, 2, 3, 1, 4)),      # q_L = 0
    ("UL", (0, 3, 2, 3, 5, 1)),      # q_R = 0
    ("UL", (2, -2, 1, 1, 1, 1)),     # q_c = 0
    ("UL", (2, 3, 3, 1, 1, 1)),      # the slopes name different gaps
    ("UL", (3, 3, 3, 3, 2, 1)),      # equal denominators: no tail
    ("UL", (2, 3, 1, 4, 1, 1)),      # slopes shifted, the sum kept: drawn
    ("CL", (3, 5, 3, 5, 2, 2)),      # unfriendly edges: the chain step fails
    ("UL", (2, 3, 2, 3, 1, 1)),      # untampered
])
def test_tail_triangle_of_a_tampered_core_fails_as_the_cell_does(word, core):
    node = tree.node_at(word)._replace(core=core)
    assert _outcome(tail_triangle, node) == _outcome(_cell_tail_triangle, node)


@pytest.mark.parametrize("core, text", [
    ((3, -1, 1, 1, -1, 0), "denominators must be positive: q_R=3, q_L=-1"),
    ((1, 0, 1, 0, 1, 0), "denominators must be positive: q_R=1, q_L=0"),
], ids=["negative", "zero"])
@pytest.mark.parametrize("view", [lambda node: node.state, lambda node: node.label,
                                  cell_geometry, tail_triangle, lambda node: render_svg([node])],
                         ids=["state", "label", "cell_geometry", "tail_triangle", "render_svg"])
def test_every_view_rejects_a_non_positive_denominator(view, core, text):
    # A Fraction divided q_L = -1 away (the state's core read (3, 1, ...) and
    # the cell was drawn with centre -1/2), and q_L = 0 raised ZeroDivisionError.
    with pytest.raises(InvariantViolation) as info:
        view(tree.TreeNode(core, ()))
    assert str(info.value) == text


def test_tails_follow_their_constant_step():
    # Member n of a tail is core + n (member 1 - core), and its centre is
    # centre(core) + n (centre(member 1) - centre(core)): the closed form
    # `_tail` takes, checked against the stepped chain on every tailed node.
    tailed = 0
    for core, word, _, _, _ in tree.walk(tree.ExpansionLimits(max_depth=5, chain_cap=3)):
        if tail_generator(core[0], core[1]) is None:
            continue
        tailed += 1
        members = list(tree.chain_cores(core, 6, word))
        step = [b - a for a, b in zip(core, members[0])]
        c_0, c_1 = centre(core), centre(members[0])
        for n, member in enumerate(members, 1):
            assert member == tuple(a + n * d for a, d in zip(core, step)), (word, n)
            assert centre(member) == tuple(a + n * (b - a) for a, b in zip(c_0, c_1)), (word, n)
        assert _tail(core, word) == (c_1, tuple(b - a for a, b in zip(c_1, centre(members[1]))))
    assert tailed == 16800


def test_past_the_first_member_no_chain_check_can_fail():
    # `_tail` checks member 1 alone and steps the centres from it.  Over
    # every core in a box around the small ones, tampered ones too, whose
    # first member passes `step_core`: every later member passes as well,
    # and its centre is member 1's plus a constant step.  From the core
    # itself the centres need not step evenly: a core with a zero slope
    # breaks it, which is why `_tail` starts at member 1.
    passed, uneven_from_the_core = 0, 0
    for q_r, q_l in itertools.product(range(1, 8), repeat=2):
        kind = tail_generator(q_r, q_l)
        if kind is None:
            continue
        for p_r, p_l, s_p in itertools.product(range(-2, 9), range(-2, 9),
                                               range(-2, q_r + q_l + 3)):
            core = (q_r, q_l, s_p, q_r + q_l - s_p, p_r, p_l)
            try:
                step_core(kind, core)
            except InvariantViolation:
                continue
            passed += 1
            centres = [centre(member) for member in tree.chain_cores(core, 6, ())]
            first, step = _tail(core, ())
            assert centres == [tuple(a + n * d for a, d in zip(first, step))
                               for n in range(6)], core
            c_0 = centre(core)
            uneven_from_the_core += any(2 * b != a + c for a, b, c in
                                        zip(c_0, centres[0], centres[1]))
    assert (passed, uneven_from_the_core) == (380, 34)


def _oracle_cell(state):
    """Cell geometry by Fraction arithmetic, independent of the skeleton.

    The center is the reduced mediant; r_c solves both congruences.
    """
    phi_c = Fraction(state.left.numerator + state.right.numerator,
                     state.left.denominator + state.right.denominator)
    p_c, q_c = phi_c.numerator, phi_c.denominator
    r_c = (state.sigma_plus * p_c) % q_c
    if r_c != (-state.sigma_minus * p_c) % q_c:
        raise InconsistentChernPair("oracle: slopes disagree")
    rho_c = Fraction(r_c, q_c)
    s_p, s_m = state.sigma_plus, state.sigma_minus
    return {
        "center": (phi_c, rho_c),
        "plus_at_left": rho_c + s_p * (state.left - phi_c),
        "plus_at_right": rho_c + s_p * (state.right - phi_c),
        "minus_at_left": rho_c - s_m * (state.left - phi_c),
        "minus_at_right": rho_c - s_m * (state.right - phi_c),
    }


def _oracle_apex(state):
    """Apex through the centers of the first two chain members.

    The members come from the explicit state recursion, not the integer
    core that the skeleton steps.
    """
    first = apply_state(state.tail_generator, state)
    second = apply_state(state.tail_generator, first)
    (phi1, rho1), (phi2, rho2) = (_oracle_cell(first)["center"],
                                  _oracle_cell(second)["center"])
    acc = Fraction(state.right.numerator - state.left.numerator,
                   state.right.denominator - state.left.denominator)
    return acc, rho1 + (rho2 - rho1) * (acc - phi1) / (phi2 - phi1)


def test_geometry_matches_fraction_oracle_on_every_node():
    nodes = list(tree.expand(tree.ExpansionLimits(max_depth=3, chain_cap=3)))
    assert len(nodes) == 343
    for node in nodes:
        cell = cell_geometry(node)
        want = _oracle_cell(node.state)
        assert {key: getattr(cell, key) for key in want} == want, node.word_str
        assert (cell.phi_left, cell.phi_right) == (node.state.left, node.state.right)
        if node.state.tail_generator is None:
            continue
        side = node.tail_direction
        edge = getattr(node.state, side)
        assert tail_triangle(node) == (
            (edge, want[f"plus_at_{side}"]), (edge, want[f"minus_at_{side}"]),
            _oracle_apex(node.state)), node.word_str


def test_geometry_of_unfriendly_tampered_edges_matches_oracle():
    # The general corner formula does not assume determinant -1, so a hand
    # tampered pair (here 2/5, 2/3, whose mediant 4/8 reduces) still gets
    # the geometry that Fraction arithmetic gives.
    node = tree.node_at("UL")
    skewed = node._replace(core=node.state._replace(
        left=Fraction(2, 5), right=Fraction(2, 3), sigma_plus=1, sigma_minus=1).core)
    cell = cell_geometry(skewed)
    want = _oracle_cell(skewed.state)
    assert cell.center == (Fraction(1, 2), Fraction(1, 2))
    assert {key: getattr(cell, key) for key in want} == want
    # Slopes that disagree are reported at the reduced center, as its
    # Fraction view names them.
    clash = skewed._replace(core=skewed.state._replace(sigma_plus=2).core)
    with pytest.raises(InconsistentChernPair, match="gaps 0 != 1 at flux 1/2"):
        render_svg([clash])


def test_render_rejects_inconsistent_slope_pair():
    node = tree.node_at("UL")
    state = node.state
    # sigma_+ bumped and sigma_- lowered by more: the slopes no longer sum
    # to q_c, so the two congruences name different gaps.
    tampered = node._replace(core=state._replace(
        sigma_plus=state.sigma_plus + 1, sigma_minus=state.sigma_minus - 2).core)
    with pytest.raises(InconsistentChernPair,
                       match=r"slopes \+3/-1 give gaps 1 != 3 at flux 2/5"):
        render_svg([tree.root(), tampered])
    with pytest.raises(InconsistentChernPair):
        cell_geometry(tampered)
    # Bumping one and lowering the other by the same amount keeps the sum,
    # and with it the congruence: only the verifier's slope checks see it.
    shifted = node._replace(core=state._replace(
        sigma_plus=state.sigma_plus + 1, sigma_minus=state.sigma_minus - 1).core)
    assert render_svg([shifted]).count("<polygon") == 2


def test_wannier_lines_small_table():
    lines = wannier_lines(3)
    assert [(l.sigma, l.tau, l.flux, l.r) for l in lines] == [
        (1, 0, F(1, 2), 1),
        (1, 0, F(1, 3), 1),
        (-1, 1, F(1, 3), 2),
        (-1, 1, F(2, 3), 1),
        (1, 0, F(2, 3), 2),
    ]
    with pytest.raises(ValueError):
        wannier_lines(1)


def test_wannier_lines_pass_through_their_gap_points():
    for line in wannier_lines(12):
        p, q = line.flux.numerator, line.flux.denominator
        assert line.sigma * p + line.tau * q == line.r
        assert -q < 2 * line.sigma <= q


def test_wannier_rows_agree_with_wannier_lines():
    rows = list(wannier_rows(30))
    lines = wannier_lines(30)
    assert len(rows) == len(lines) > 0
    for (sigma, tau, p, q, r), line in zip(rows, lines):
        assert (sigma, tau, F(p, q), r) == (line.sigma, line.tau, line.flux, line.r)
        assert (p, q) == (line.flux.numerator, line.flux.denominator)


def test_wannier_rows_reject_small_q_max_on_the_call():
    for q_max in (1, 0, -5):
        with pytest.raises(ValueError, match="q_max must be at least 2"):
            wannier_rows(q_max)


def test_decimal9_formatting():
    assert decimal9(F(1, 3)) == "0.333333333"
    assert decimal9(F(2, 3)) == "0.666666667"
    assert decimal9(F(-1, 2)) == "-0.500000000"
    assert decimal9(F(5)) == "5.000000000"
    assert decimal9(F(1, 2 * 10 ** 9)) == "0.000000001"
    assert decimal9(F(-1, 2 * 10 ** 9)) == "-0.000000001"
    assert decimal9(F(-1, 3 * 10 ** 9)) == "-0.000000000"
    assert decimal9(F(-7, 2)) == "-3.500000000"


# Denominators that make exact halves at the ninth decimal, so ties come up.
_TIE_DENOMINATORS = st.sampled_from([1, 2, 8, 10 ** 9, 2 * 10 ** 9, 4 * 10 ** 9 // 5])


@given(st.one_of(st.integers(-2 ** 400, 2 ** 400), st.integers(-3, 3)),
       st.one_of(st.integers(1, 2 ** 300), _TIE_DENOMINATORS),
       st.integers(1, 2 ** 64))
def test_fixed9_rounds_as_the_fraction_oracle(n, d, k):
    # n*k / d*k is unreduced whenever k > 1: `_fixed9` must not need lowest terms.
    # A small n over a large d rounds to zero and must keep its sign.
    assert _fixed9(n * k, d * k) == decimal9(F(n, d))


def test_render_options_validation():
    assert RenderOptions().palette == DEFAULT_PALETTE
    with pytest.raises(ValueError):
        RenderOptions(palette=("#000000",))
    with pytest.raises(ValueError):
        RenderOptions(width=80, margin=40)
    with pytest.raises(ValueError):
        RenderOptions(chain_preview=-1)
    with pytest.raises(ValueError, match=r"^margin must be >= 0$"):
        RenderOptions(margin=-5)
    with pytest.raises(ValueError, match=r"^margin must be >= 0$"):
        RenderOptions()._replace(margin=-1)
    assert RenderOptions(margin=0).margin == 0


@pytest.mark.parametrize("color", ["#abc", "#A0B1C2", "red", "DarkSlateGray"])
def test_render_options_accept_hex_colors_and_letter_names(color):
    assert RenderOptions(palette=(color,) * 8).palette == (color,) * 8


@pytest.mark.parametrize("color", ["a&b", "#ffff", "#12345", "#ggg", "", "#", "red ",
                                   "rgb(1,2,3)", "\u00e9t\u00e9", '"/><script>', 7])
def test_render_options_reject_a_color_outside_the_grammar(color):
    palette = DEFAULT_PALETTE[:5] + (color,) + DEFAULT_PALETTE[6:]
    with pytest.raises(ValueError) as info:
        RenderOptions(palette=palette)
    assert str(info.value) == (f"palette color 6 is not #rgb, #rrggbb or a name of "
                               f"ASCII letters: {color!r}")
    with pytest.raises(ValueError):
        RenderOptions()._replace(palette=palette)


def test_render_is_byte_deterministic():
    nodes = list(tree.expand(tree.ExpansionLimits(max_depth=2, chain_cap=1)))
    first = render_svg(nodes)
    second = render_svg(list(tree.expand(
        tree.ExpansionLimits(max_depth=2, chain_cap=1))))
    assert first == second
    assert first.encode("utf-8") == second.encode("utf-8")
    with pytest.raises(EmptyInput):
        render_svg([])


def test_render_header_and_root_polygon():
    svg = render_svg([tree.root()])
    assert svg.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
    assert 'data-x-transform="x = 40 + phi * 720"' in svg
    assert 'data-y-transform="y = 760 - rho * 720"' in svg
    assert 'data-word="root"' in svg
    assert ('<polygon points="40.000000000,760.000000000 '
            '40.000000000,40.000000000 760.000000000,40.000000000 '
            '760.000000000,760.000000000" fill="none"') in svg
    assert svg.endswith("</svg>\n")


def test_depth_one_render_uses_generator_palette():
    svg = render_svg(list(tree.expand(tree.ExpansionLimits(max_depth=1))))
    for color in DEFAULT_PALETTE[:6]:
        assert f'fill="{color}" fill-opacity="0.5"' in svg
    assert 'stroke="#7995c4"' in svg
    assert 'data-tail-of="UL"' in svg
    assert svg.count("<circle") == 6 * RenderOptions().chain_preview
