"""The eight generators: frozen matrices, label/state recursions, consistency."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from butterfly_tree import intmat
from butterfly_tree.errors import InvariantViolation, TailDirectionMismatch
from butterfly_tree.farey import mediant
from butterfly_tree.generators import (
    BABY_KINDS,
    ROOT_LABEL,
    ROOT_STATE,
    ButterflyLabel,
    ButterflyState,
    GeneratorKind,
    _check_tail,
    _problems,
    _text,
    apply_label,
    apply_state,
    canonical_matrices,
    label_route,
    state_route,
    step_core,
    tail_generator,
)
from butterfly_tree.tree import node_at, parse_word, word_string
from oracles import det, identity, mat_mul

K = GeneratorKind

# Frozen reference matrices.  The 2x2 acts on (q_R, q_L), the 3x3 on
# (q_R, q_L, delta_sigma), the 4x4 on (q_R, q_L, sigma_plus, sigma_minus).
TWO = {
    K.C_L: ((1, 2), (0, 1)),
    K.C_R: ((1, 0), (2, 1)),
    K.U_L: ((1, 1), (1, 2)),
    K.U_R: ((2, 1), (1, 1)),
    K.D_L: ((1, 1), (1, 2)),
    K.D_R: ((2, 1), (1, 1)),
    K.C_CL: ((0, 1), (-1, 2)),
    K.C_CR: ((2, -1), (1, 0)),
}

THIRD_ROW = {
    K.C_L: (0, 0, 1),
    K.C_R: (0, 0, 1),
    K.U_L: (-1, 0, 1),
    K.U_R: (0, 1, 1),
    K.D_L: (1, 0, 1),
    K.D_R: (0, -1, 1),
    K.C_CL: (0, 0, 1),
    K.C_CR: (0, 0, 1),
}

FOUR = {
    K.C_L: ((1, 2, 0, 0), (0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)),
    K.C_R: ((1, 0, 0, 0), (2, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)),
    K.U_L: ((1, 1, 0, 0), (1, 2, 0, 0), (0, 1, 1, 0), (1, 1, 0, 1)),
    K.U_R: ((2, 1, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 0, 0, 1)),
    K.D_L: ((1, 1, 0, 0), (1, 2, 0, 0), (1, 1, 1, 0), (0, 1, 0, 1)),
    K.D_R: ((2, 1, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 1, 0, 1)),
    K.C_CL: ((0, 1, 0, 0), (-1, 2, 0, 0), (-1, 1, 1, 0), (-1, 1, 0, 1)),
    K.C_CR: ((2, -1, 0, 0), (1, 0, 0, 0), (1, -1, 1, 0), (1, -1, 0, 1)),
}

# Every single-generator application on the two standard example labels,
# plus the four chain steps on the first-generation C-babies.  Worked by
# hand from the label recursion.
APPLICATIONS = (
    (K.U_L, (1, 1, 0), (2, 3, -1)),
    (K.U_L, (2, 3, -1), (5, 8, -3)),
    (K.U_R, (1, 1, 0), (3, 2, 1)),
    (K.U_R, (2, 3, -1), (7, 5, 2)),
    (K.D_L, (1, 1, 0), (2, 3, 1)),
    (K.D_L, (2, 3, -1), (5, 8, 1)),
    (K.D_R, (1, 1, 0), (3, 2, -1)),
    (K.D_R, (2, 3, -1), (7, 5, -4)),
    (K.C_L, (1, 1, 0), (3, 1, 0)),
    (K.C_L, (2, 3, -1), (8, 3, -1)),
    (K.C_R, (1, 1, 0), (1, 3, 0)),
    (K.C_R, (2, 3, -1), (2, 7, -1)),
    (K.C_CR, (3, 1, 0), (5, 3, 0)),
    (K.C_CL, (1, 3, 0), (3, 5, 0)),
    (K.C_CL, (2, 7, -1), (7, 12, -1)),
    (K.C_CR, (8, 3, -1), (13, 8, -1)),
)


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    return tuple(tuple(c * x for x in row) for row in a)


def is_zero(a):
    return all(x == 0 for row in a for x in row)


def test_frozen_two_by_two():
    for kind, expected in TWO.items():
        assert canonical_matrices(kind).two_by_two == expected


def test_frozen_three_by_three():
    for kind in K:
        m = canonical_matrices(kind).three_by_three
        two = TWO[kind]
        assert m == (two[0] + (0,), two[1] + (0,), THIRD_ROW[kind])


def test_frozen_four_by_four():
    for kind, expected in FOUR.items():
        assert canonical_matrices(kind).four_by_four == expected


def test_all_representations_unimodular():
    for kind in K:
        g = canonical_matrices(kind)
        assert det(g.two_by_two) == 1
        assert det(g.three_by_three) == 1
        assert det(g.four_by_four) == 1


def test_two_by_two_is_upper_block_of_larger():
    for kind in K:
        g = canonical_matrices(kind)
        for m in (g.three_by_three, g.four_by_four):
            assert tuple(row[:2] for row in m[:2]) == g.two_by_two


def test_parity_preserving_kinds_are_unipotent():
    """C-type and chain 3x3 matrices have all eigenvalues equal to one."""
    eye = identity(3)
    for kind in (K.C_L, K.C_R, K.C_CL, K.C_CR):
        m = canonical_matrices(kind).three_by_three
        n = mat_sub(m, eye)
        assert is_zero(mat_mul(mat_mul(n, n), n))


def test_ud_kinds_satisfy_characteristic_polynomial():
    """U/D 3x3 eigenvalues are 1 and (3 +- sqrt(5))/2: trace 4, and
    (M - I)(M^2 - 3M + I) annihilates."""
    eye = identity(3)
    for kind in (K.U_L, K.U_R, K.D_L, K.D_R):
        m = canonical_matrices(kind).three_by_three
        assert sum(m[i][i] for i in range(3)) == 4
        quad = mat_sub(mat_sub(mat_mul(m, m), mat_scale(3, m)),
                       mat_scale(-1, eye))
        assert is_zero(mat_mul(mat_sub(m, eye), quad))


def test_chain_generators_are_mutually_inverse():
    for size in ("two_by_two", "three_by_three", "four_by_four"):
        a = getattr(canonical_matrices(K.C_CL), size)
        b = getattr(canonical_matrices(K.C_CR), size)
        eye = identity(len(a))
        assert mat_mul(a, b) == eye
        assert mat_mul(b, a) == eye


def test_label_applications_table():
    for kind, source, expected in APPLICATIONS:
        out = apply_label(kind, ButterflyLabel(*source))
        assert out.as_tuple() == expected, (kind, source)


def test_state_recursion_worked_examples():
    infant = apply_state(K.U_L, ROOT_STATE)
    assert (infant.left, infant.center, infant.right) == (
        Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))
    triplet = infant.triplet
    assert (triplet.left, triplet.center, triplet.right) == (
        Fraction(1, 3), Fraction(2, 5), Fraction(1, 2))
    assert (infant.sigma_plus, infant.sigma_minus) == (2, 3)

    lower = apply_state(K.C_L, ROOT_STATE)
    assert (lower.left, lower.center, lower.right) == (
        Fraction(0), Fraction(1, 4), Fraction(1, 3))
    assert (lower.sigma_plus, lower.sigma_minus) == (2, 2)
    assert (infant.tail_direction, lower.tail_direction) == ("left", "right")

    step = apply_state(K.C_CR, lower)
    assert (step.left, step.center, step.right) == (
        Fraction(1, 3), Fraction(3, 8), Fraction(2, 5))
    assert (step.sigma_plus, step.sigma_minus) == (4, 4)


def test_chain_preconditions_enforced():
    with pytest.raises(TailDirectionMismatch):
        apply_state(K.C_CL, ROOT_STATE)
    with pytest.raises(TailDirectionMismatch):
        apply_state(K.C_CR, ROOT_STATE)
    left_heavy = apply_state(K.C_R, ROOT_STATE)  # q_L = 3 > q_R = 1
    with pytest.raises(TailDirectionMismatch):
        apply_state(K.C_CR, left_heavy)
    with pytest.raises(TailDirectionMismatch):
        apply_label(K.C_CR, left_heavy.label)


def test_label_validation():
    assert ROOT_LABEL.as_tuple() == (1, 1, 0)
    lab = ButterflyLabel(5, 8, -3)
    assert (lab.sigma_plus, lab.sigma_minus) == (5, 8)
    assert lab.q_c == 13 and lab.tail_direction == "left"
    assert ButterflyLabel(3, 1, 0).tail_direction == "right"
    with pytest.raises(InvariantViolation):
        ButterflyLabel(2, 2, 0)  # shared factor
    with pytest.raises(InvariantViolation):
        ButterflyLabel(1, 2, 0)  # parity: delta must be odd when q_c is
    with pytest.raises(InvariantViolation):
        ButterflyLabel(1, 2, 5)  # magnitude: |delta| < q_c
    with pytest.raises(InvariantViolation):
        ButterflyLabel(0, 1, 1)


def test_state_check_flags_tampering():
    assert ROOT_STATE.check() == []
    assert ButterflyState(Fraction(0), Fraction(1), 2, 1).check()
    assert ButterflyState(Fraction(1, 3), Fraction(3, 5), 4, 4).check()
    assert ButterflyState(Fraction(1, 2), Fraction(1, 3), 2, 3).check()


def test_core_check_needs_positive_denominators():
    # The integers of this core pass every other check: a Fraction state
    # would silently read the left edge 0/-1 as 0/1.
    assert _problems((3, -1, 1, 1, -1, 0)) == [
        "denominators must be positive: q_R=3, q_L=-1"]
    assert _problems((1, 0, 1, 0, 1, 0)) == [
        "denominators must be positive: q_R=1, q_L=0"]
    with pytest.raises(InvariantViolation, match="denominators must be positive"):
        ButterflyLabel(3, -1, 0)


def test_error_texts_name_integers_past_the_digit_limit_by_bit_length():
    big = 1 << 20_000  # 6 021 digits, past the default limit of 4 300
    core = (big, 1, 1, big, 1, 0)  # edges 0/1 and 1/big
    assert _problems(core) == []
    with pytest.raises(TailDirectionMismatch,
                       match=r"^C_cL needs q_L > q_R, state has \(<20001-bit integer>, 1\)$"):
        step_core(K.C_CL, core)
    with pytest.raises(InvariantViolation) as info:
        step_core(K.C_L, core[:2] + (2,) + core[3:])
    assert str(info.value) == (
        "C_L on (<20001-bit integer>, 1, 2, <20001-bit integer>, 1, 0) produced a bad "
        "state: slope sum <20001-bit integer> != q_c <20001-bit integer>")
    with pytest.raises(InvariantViolation, match=r"^C_L on \(<20001-bit integer>, 1, 2, "):
        apply_state(K.C_L, ButterflyState.from_core(core[:2] + (2,) + core[3:]))
    assert _problems((big, 1, 1, big, 1, 1)) == [
        "edges out of order: 1, 1/<20001-bit integer>",
        "edges not friendly: determinant <20000-bit integer>"]
    assert _problems((big, 0, 1, big, 1, 0)) == [
        "denominators must be positive: q_R=<20001-bit integer>, q_L=0"]
    assert _problems((big, 1, 0, big + 1, 1, 0)) == [
        "slopes must be positive: (0, <20001-bit integer>)"]


def test_generator_kind_tokens():
    assert K.from_token("UL") is K.U_L
    assert K.from_token("tl") is K.C_CL
    assert K.from_token("TR") is K.C_CR
    assert K.from_token("C_cL") is K.C_CL
    assert {k.token for k in K} == {"CL", "CR", "UL", "UR", "DL", "DR",
                                    "TL", "TR"}
    with pytest.raises(ValueError):
        K.from_token("XX")


# The linear scan that `from_token` ran before it became one dict lookup,
# kept as the oracle for every spelling.
OLD_TOKENS = {K.C_L: "CL", K.C_R: "CR", K.U_L: "UL", K.U_R: "UR",
              K.D_L: "DL", K.D_R: "DR", K.C_CL: "TL", K.C_CR: "TR"}


def scanned_token(text):
    key = text.strip().upper().replace("_", "")
    for kind, token in OLD_TOKENS.items():
        if key == token or key == kind.value.upper().replace("_", ""):
            return kind
    raise ValueError(f"unknown generator token {text!r}")


ACCEPTED = [spelled for kind, token in OLD_TOKENS.items()
            for name in (token, kind.value)
            for spelled in (name, name.lower(), name.swapcase(), "_".join(name),
                            f"  {name}\t", f"_{name}_\n")]
REJECTED = ["", " ", "_", "C", "T", "CC", "CLL", "TLR", "XX", "T L", "C.L",
            "C-L", "S1", "CcLR", "ccr l", "\u00c7L", "C_L_C_R"]


def test_from_token_matches_the_linear_scan():
    assert len(ACCEPTED) == 96
    for text in ACCEPTED:
        assert K.from_token(text) is scanned_token(text), text
    for text in REJECTED:
        with pytest.raises(ValueError) as oracle:
            scanned_token(text)
        with pytest.raises(ValueError) as got:
            K.from_token(text)
        assert str(got.value) == str(oracle.value)


def test_parse_word_matches_from_token_on_every_part():
    def split_then_convert(text):  # the oracle: from_token on each part
        parts = [p for p in text.replace(",", ".").replace(" ", ".").split(".") if p]
        return tuple(K.from_token(p) for p in parts)

    for text in ACCEPTED + [".".join(ACCEPTED), ",".join(ACCEPTED)]:
        assert parse_word(text) == split_then_convert(text), text
    for text in REJECTED + ["UL." + text for text in REJECTED]:
        try:
            want = split_then_convert(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                parse_word(text)
            assert str(got.value) == str(exc)
        else:
            assert parse_word(text) == want, text


def test_cell_classes():
    assert K.C_L.cell_class == "C-cell"
    assert K.U_R.cell_class == "E-cell"
    assert K.C_CL.cell_class == "chain"
    assert BABY_KINDS == (K.C_L, K.C_R, K.U_L, K.U_R, K.D_L, K.D_R)


@st.composite
def valid_states(draw):
    """Arbitrary valid butterfly state: random Stern-Brocot interval plus
    a random positive split of q_c into the two slopes."""
    lo, hi = Fraction(0), Fraction(1)
    for step in draw(st.lists(st.booleans(), max_size=10)):
        mid = mediant(lo, hi)
        if step:
            lo = mid
        else:
            hi = mid
    q_c = lo.denominator + hi.denominator
    sigma_plus = draw(st.integers(1, q_c - 1))
    return ButterflyState(lo, hi, sigma_plus, q_c - sigma_plus)


@given(valid_states(), st.sampled_from(list(K)))
def test_representation_consistency_everywhere(state, kind):
    if kind.is_chain and kind is not state.tail_generator:
        return
    core = state.core
    q_r, q_l, s_p, s_m = core[:4]
    stepped = step_core(kind, core)
    assert state_route(kind, core) == stepped
    assert label_route(kind, (q_r, q_l, s_p - s_m)) == (
        stepped[0], stepped[1], stepped[2] - stepped[3])
    mats = canonical_matrices(kind)
    assert intmat.mat_vec(mats.four_by_four, (q_r, q_l, s_p, s_m)) == stepped[:4]
    assert intmat.mat_vec(mats.three_by_three, (q_r, q_l, s_p - s_m)) == (
        stepped[0], stepped[1], stepped[2] - stepped[3])
    assert intmat.mat_vec(mats.two_by_two, (q_r, q_l)) == stepped[:2]
    assert intmat.mat_vec(mats.two_by_two, core[4:]) == stepped[4:]


@given(valid_states())
def test_sibling_asymmetry_relations(state):
    """The up/down sibling pairs differ in delta-sigma by exactly q_c."""
    label = state.label
    q_c = state.q_c
    assert (apply_label(K.U_R, label).delta_sigma
            - apply_label(K.U_L, label).delta_sigma) == q_c
    assert (apply_label(K.D_L, label).delta_sigma
            - apply_label(K.D_R, label).delta_sigma) == q_c


@given(valid_states(), st.sampled_from(list(K)))
def test_state_recursion_preserves_invariants(state, kind):
    if kind.is_chain and kind is not state.tail_generator:
        return
    out = apply_state(kind, state)
    assert out.check() == []
    assert out.q_c == state.q_c + {
        K.C_L: 2 * state.q_l,
        K.C_R: 2 * state.q_r,
        K.U_L: state.q_c + state.q_l,
        K.D_L: state.q_c + state.q_l,
        K.U_R: state.q_c + state.q_r,
        K.D_R: state.q_c + state.q_r,
        K.C_CL: 2 * abs(state.q_l - state.q_r),
        K.C_CR: 2 * abs(state.q_l - state.q_r),
    }[kind]
    if not kind.is_chain:
        assert state.left <= out.left < out.right <= state.right


def _unsplit_step(kind, core):
    """The oracle of `step_core`: the whole step as one block of matrix
    arithmetic, then every check on the result."""
    q_r, q_l, s_p, s_m, p_r, p_l = core
    if kind.is_chain:
        _check_tail(kind, q_r, q_l, "state")
    new = (intmat.mat_vec(FOUR[kind], (q_r, q_l, s_p, s_m))
           + intmat.mat_vec(TWO[kind], (p_r, p_l)))
    problems = _problems(new)
    if problems:
        raise InvariantViolation(f"{kind.value} on {_text(core)} "
                                 "produced a bad state: " + "; ".join(problems))
    return new


def _apply_state_oracle(kind, state):
    """The oracle of `apply_state`: the recursion, then the checks on the result."""
    new = ButterflyState.from_core(state_route(kind, state.core))
    problems = new.check()
    if problems:
        raise InvariantViolation(
            f"{kind.value} on {_text(state.core)} produced a bad state: " + "; ".join(problems))
    return new


def _outcome(step, *args):
    """The result of a call, or the type and text of what it raised."""
    try:
        return step(*args)
    except Exception as exc:  # the type and text are compared
        return type(exc), str(exc)


@st.composite
def tree_cores(draw):
    """The core `node_at` gives a random word: at each letter one of the six
    babies or, when there is a tail, the tail letter."""
    word, core = [], ROOT_STATE.core
    for pick in draw(st.lists(st.integers(0, 6), max_size=12)):
        tail = tail_generator(core[0], core[1])
        kinds = BABY_KINDS + ((tail,) if tail is not None else ())
        kind = kinds[pick % len(kinds)]
        word.append(kind)
        core = state_route(kind, core)
    return node_at(word_string(word)).core


@st.composite
def tampered_cores(draw):
    """A tree core with one field moved by +/-k, unfriendly numerators, or a
    zero or negative denominator."""
    core = list(draw(tree_cores()))
    how = draw(st.sampled_from(["shift", "numerators", "denominator"]))
    if how == "shift":
        field = draw(st.integers(0, 5))
        core[field] += draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 5))
    elif how == "numerators":
        core[4], core[5] = draw(st.integers(-3, 40)), draw(st.integers(-3, 40))
    else:
        core[draw(st.integers(0, 1))] = draw(st.integers(-3, 0))
    return tuple(core)


@given(st.one_of(tree_cores(), tampered_cores()), st.sampled_from(list(K)))
def test_step_core_equals_the_unsplit_step(core, kind):
    assert _outcome(step_core, kind, core) == _outcome(_unsplit_step, kind, core)


@given(st.one_of(tree_cores(), tampered_cores()), st.sampled_from(list(K)))
def test_apply_state_keeps_its_results_and_texts(core, kind):
    q_r, q_l, s_p, s_m, p_r, p_l = core
    if q_r == 0 or q_l == 0:
        return  # no Fraction has a zero denominator
    # Built by hand: `from_core` refuses a negative denominator, which a
    # Fraction moves to its numerator.
    state = ButterflyState(Fraction(p_l, q_l), Fraction(p_r, q_r), s_p, s_m)
    assert _outcome(apply_state, kind, state) == _outcome(_apply_state_oracle, kind, state)


def test_error_texts_bound_every_integer_past_332_bits():
    small, big = 2 ** 332 - 1, 2 ** 332
    assert _text(small) == str(small) and _text(-small) == str(-small)
    assert _text(big) == _text(-big) == "<333-bit integer>"
    assert _text((big, 3)) == "(<333-bit integer>, 3)"
    assert _text(ROOT_STATE.core) == "(1, 1, 1, 1, 1, 0)"
    state = ButterflyState.from_core((big, 1, 1, big, 1, 0))
    assert _text(state.core) == "(<333-bit integer>, 1, 1, <333-bit integer>, 1, 0)"
    with pytest.raises(TailDirectionMismatch,
                       match=r"^C_cL needs q_L > q_R, state has \(<333-bit integer>, 1\)$"):
        step_core(K.C_CL, state.core)
