"""Integer labeling of gaps and bands at rational flux p/q.

Every spectral gap r = 1..q-1 of the q-band problem at flux p/q carries a
unique integer pair (sigma, tau) with

    p*sigma + q*tau = r,   sigma in (-q/2, q/2],

sigma being the slope of the gap's density line rho = sigma*phi + tau and
the gap's Hall conductance.  Band Chern numbers are the first differences
of the bounding gap slopes and satisfy p*N + q*M = 1 bandwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence, Union

from .errors import InconsistentChernPair, InvariantViolation, NotCoprime


def _require_coprime(p: int, q: int) -> None:
    if q < 1:
        raise NotCoprime(f"denominator must be positive, got {q}")
    if gcd(p, q) != 1:
        raise NotCoprime(f"{p}/{q} is not reduced")


@dataclass(frozen=True)
class GapLabel:
    """Gap r at flux p/q with its density line rho = sigma*phi + tau."""

    r: int
    sigma: int
    tau: int


@dataclass(frozen=True)
class BandLabel:
    """Band index (1-based), its Chern number N and partner M with pN + qM = 1."""

    index: int
    chern: int
    m: int


def gap_rows(p: int, q: int) -> Iterator[tuple[int, int, int]]:
    """(r, sigma, tau) for the q-1 gaps of flux p/q, in gap order r = 1..q-1.

    sigma solves p*sigma = r (mod q) in the window (-q/2, q/2]: it steps
    by p^-1 mod q from one gap to the next.  tau is then forced by
    p*sigma + q*tau = r.  The coprimality check runs on the call, not on
    the first row.
    """
    _require_coprime(p, q)
    return _gap_rows(p, q)


def _gap_rows(p: int, q: int) -> Iterator[tuple[int, int, int]]:
    inv, half, residue = pow(p, -1, q), q // 2, 0
    for r in range(1, q):
        residue += inv
        if residue >= q:
            residue -= q
        sigma = residue - q if residue > half else residue
        tau, rem = divmod(r - p * sigma, q)
        if rem:
            raise InvariantViolation(
                f"gap {r} at {p}/{q}: sigma {sigma} leaves remainder {rem}")
        yield r, sigma, tau


def gap_labels(p: int, q: int) -> list[GapLabel]:
    """Labels for the q-1 gaps of flux p/q: the `gap_rows` as GapLabels."""
    return [GapLabel(*row) for row in gap_rows(p, q)]


def band_cherns(p: int, q: int) -> list[BandLabel]:
    """Chern numbers of the q bands at flux p/q.

    N_i = sigma_i - sigma_{i-1} with the closed gaps below band 1 and above
    band q carrying sigma = 0.  Each band also gets the unique M with
    p*N + q*M = 1.
    """
    _require_coprime(p, q)
    slopes = [0] + [sigma for _, sigma, _ in gap_rows(p, q)] + [0]
    bands = []
    for i in range(1, q + 1):
        n = slopes[i] - slopes[i - 1]
        m, rem = divmod(1 - p * n, q)
        if rem:
            raise InvariantViolation(
                f"band {i} at {p}/{q}: Chern {n} leaves remainder {rem}")
        bands.append(BandLabel(i, n, m))
    return bands


def recover_edges(q_r: int, q_l: int) -> tuple[int, int]:
    """Numerators (p_L, p_R) of the unique friendly pair with these denominators.

    Solves p_L*q_R = -1 (mod q_L) for p_L in [0, q_L), then p_R from the
    friendly determinant p_L*q_R - p_R*q_L = -1.  The pair (1, 1) maps to
    numerators (0, 1), the root edges.
    """
    if q_r < 1 or q_l < 1:
        raise NotCoprime(f"denominators must be positive, got ({q_r}, {q_l})")
    if gcd(q_r, q_l) != 1:
        raise NotCoprime(f"denominators ({q_r}, {q_l}) share a factor")
    if q_l == 1:
        return 0, 1
    p_l = (-pow(q_r, -1, q_l)) % q_l
    p_r, rem = divmod(p_l * q_r + 1, q_l)
    if rem:
        raise InvariantViolation(f"({q_r}, {q_l}): p_L {p_l} leaves remainder {rem}")
    return p_l, p_r


def hierarchy_gap_cherns(sigma0: int, q0: int,
                         n_range: Union[int, Iterable[int]]) -> Union[int, list[int]]:
    """Slopes sigma0 + n*q0 of the gaps converging on a parent gap.

    The minigaps accumulating on a gap of slope sigma0 at flux p0/q0 step
    their slopes by the parent denominator.  Accepts one n or an iterable.
    """
    if q0 < 1:
        raise NotCoprime(f"denominator must be positive, got {q0}")
    if isinstance(n_range, int):
        return sigma0 + n_range * q0
    return [sigma0 + n * q0 for n in n_range]


def central_gap(sigma_plus: int, sigma_minus: int, p_c: int, q_c: int) -> int:
    """Gap index r_c of the central gap at flux p_c/q_c (in lowest terms).

    The two diagonal density lines through the center cross at the same
    gap: sigma_plus * p_c = -(-sigma_minus * p_c) mod q_c.  Raises
    InconsistentChernPair when the two slopes disagree (impossible for
    states built by the generators, reachable by hand-tampered ones).
    """
    r_plus = (sigma_plus * p_c) % q_c
    r_minus = (-sigma_minus * p_c) % q_c
    if r_plus != r_minus:
        raise InconsistentChernPair(
            f"slopes +{sigma_plus}/-{sigma_minus} give gaps "
            f"{r_plus} != {r_minus} at flux {Fraction(p_c, q_c)}")
    return r_plus


def center_gap_index(state) -> tuple[int, Fraction]:
    """Gap index r_c and density r_c/q_c of the central gap of a butterfly."""
    center = state.center
    r_c = central_gap(state.sigma_plus, state.sigma_minus,
                      center.numerator, center.denominator)
    return r_c, Fraction(r_c, center.denominator)


def gap_label_oracle(p: int, q: int, r: int,
                     sigma_span: Sequence[int] | None = None) -> list[tuple[int, int]]:
    """Brute-force solutions of p*sigma + q*tau = r with sigma in the window.

    Independent of gap_rows: scans the sigma window directly.  Used by
    tests as the oracle for uniqueness and agreement.
    """
    _require_coprime(p, q)
    if sigma_span is None:
        sigma_span = range(-q, q + 1)
    out = []
    for sigma in sigma_span:
        if not (-q < 2 * sigma <= q):
            continue
        num = r - p * sigma
        if num % q == 0:
            out.append((sigma, num // q))
    return out
