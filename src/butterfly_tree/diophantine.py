"""Integer labeling of gaps and bands at rational flux p/q.

Every spectral gap r = 1..q-1 of the q-band problem at flux p/q carries a
unique integer pair (sigma, tau) with

    p*sigma + q*tau = r,   sigma in (-q/2, q/2],

sigma being the slope of the gap's density line rho = sigma*phi + tau and
the gap's Hall conductance.  Band Chern numbers are the first differences
of the bounding gap slopes and satisfy p*N + q*M = 1 bandwise.
"""

from __future__ import annotations

from math import gcd
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import InconsistentChernPair, InvariantViolation, NotCoprime

if TYPE_CHECKING:
    from fractions import Fraction


def _require_coprime(p: int, q: int) -> None:
    if q < 1:
        raise NotCoprime(f"denominator must be positive, got {q}")
    if gcd(p, q) != 1:
        raise NotCoprime(f"{p}/{q} is not reduced")


class GapLabel(NamedTuple):
    """Gap r at flux p/q with its density line rho = sigma*phi + tau."""

    r: int
    sigma: int
    tau: int


class BandLabel(NamedTuple):
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


def reduced_fluxes(q_max: int) -> Iterator[tuple[int, int]]:
    """(p, q) of every reduced flux p/q in (0, 1) with q <= q_max, in order
    of q, then p.  q_max < 2 raises on the call, before any flux."""
    if q_max < 2:
        raise ValueError("q_max must be at least 2")
    return ((p, q) for q in range(2, q_max + 1) for p in range(1, q) if gcd(p, q) == 1)


def wannier_rows(q_max: int) -> Iterator[tuple[int, int, int, int, int]]:
    """(sigma, tau, p, q, r) for every gap of every `reduced_fluxes(q_max)`
    flux p/q, gaps in the order of `gap_rows`."""
    return ((sigma, tau, p, q, r)
            for p, q in reduced_fluxes(q_max) for r, sigma, tau in gap_rows(p, q))


def gap_labels(p: int, q: int) -> list[GapLabel]:
    """Labels for the q-1 gaps of flux p/q: the `gap_rows` as GapLabels."""
    return [GapLabel(*row) for row in gap_rows(p, q)]


def band_cherns(p: int, q: int) -> list[BandLabel]:
    """Chern numbers of the q bands at flux p/q.

    N_i = sigma_i - sigma_{i-1} with the closed gaps below band 1 and above
    band q carrying sigma = 0.  Each band also gets the unique M with
    p*N + q*M = 1.
    """
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


def hierarchy_gap_cherns(sigma0: int, q0: int, n: int) -> int:
    """Slope sigma0 + n*q0 of the n-th gap converging on a parent gap.

    The minigaps accumulating on a gap of slope sigma0 at flux p0/q0 step
    their slopes by the parent denominator.
    """
    if q0 < 1:
        raise NotCoprime(f"denominator must be positive, got {q0}")
    return sigma0 + n * q0


def central_gap(sigma_plus: int, sigma_minus: int, p_c: int,
                q_c: int) -> tuple[int, int, int]:
    """(p_c, q_c, r_c): the center flux p_c/q_c in lowest terms and its gap index.

    Takes any multiple of the center, such as the mediant sums of tampered
    edges.  The two diagonal density lines through the center cross at the
    same gap: sigma_plus * p_c = -(-sigma_minus * p_c) mod q_c.  Raises
    InconsistentChernPair when the two slopes disagree (impossible for
    states built by the generators, reachable by hand-tampered ones).
    """
    g = gcd(p_c, q_c)  # 1 unless the edges are not friendly
    p_c, q_c = p_c // g, q_c // g
    r_plus = (sigma_plus * p_c) % q_c
    r_minus = (-sigma_minus * p_c) % q_c
    if r_plus != r_minus:
        import fractions
        raise InconsistentChernPair(
            f"slopes +{sigma_plus}/-{sigma_minus} give gaps "
            f"{r_plus} != {r_minus} at flux {fractions.Fraction(p_c, q_c)}")
    return p_c, q_c, r_plus


def center_gap_index(state) -> tuple[int, Fraction]:
    """Gap index r_c and density r_c/q_c of the central gap of a ButterflyState."""
    import fractions  # a plain import: `from fractions import` costs about 2 us a call
    q_r, q_l, s_p, s_m, p_r, p_l = state.core
    _, q_c, r_c = central_gap(s_p, s_m, p_l + p_r, q_l + q_r)
    return r_c, fractions.Fraction(r_c, q_c)

