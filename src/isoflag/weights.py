"""Weight data for the split orthogonal model on a punctured line.

A weight assigns to each of the s punctures a rational alpha in [0, 1/2] and
a non-increasing, antisymmetric q-vector beta (beta_i + beta_{q+1-i} = 0,
beta_i < 1/2).  Everything downstream (admissibility regions, the degree
interval, compactness bookkeeping, monodromy phases) is derived from this
data exactly.  The checks a decision reads, validity and region membership,
are integer comparisons in units of N, the lcm of every alpha and beta
denominator: N alpha and N beta are integers, so beta < 1/2 is 2 N beta < N,
and so on.  Fractions are built only for the stats, the degree interval,
compactness and monodromy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InputError

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Weight:
    """Immutable (tuples throughout): its violations, stats, region
    membership and scaling by N = lcm of every alpha and beta denominator
    (n, n_alpha, n_beta, n_abs_alpha, all ints) are computed once, on first
    use, and kept."""

    q: int
    s: int
    alpha: tuple[Fraction, ...]               # one per puncture
    beta: tuple[tuple[Fraction, ...], ...]    # q entries per puncture

    @classmethod
    def make(cls, q: int, s: int, alpha, beta) -> "Weight":
        return cls(q, s,
                   tuple(Fraction(a) for a in alpha),
                   tuple(tuple(Fraction(b) for b in row) for row in beta))

    @cached_property
    def _violations(self) -> tuple[str, ...]:
        return tuple(_check_weight(self))

    @cached_property
    def _stats(self) -> "WeightStats":
        per = self._n_positive_beta
        return WeightStats(
            abs_alpha=Fraction(self.n_abs_alpha, self.n),
            abs_beta=Fraction(sum(per), self.n),
            abs_beta1=Fraction(sum(row[0] for row in self.n_beta), self.n),
            per_puncture_abs_beta=tuple(Fraction(x, self.n) for x in per),
        )

    @cached_property
    def _membership(self) -> "RegionMembership":
        """alpha^j > |beta^j| and |alpha| + |beta| < 1, times N."""
        per = self._n_positive_beta
        in_w = all(a > b for a, b in zip(self.n_alpha, per)) \
            and self.n_abs_alpha + sum(per) < self.n
        strict = all(
            all(row[i] > row[i + 1] for i in range(self.q - 1)) for row in self.n_beta
        )
        return RegionMembership(in_w=in_w, in_w_prime=in_w and strict)

    @cached_property
    def n(self) -> int:
        return math.lcm(*(a.denominator for a in self.alpha),
                        *(b.denominator for row in self.beta for b in row))

    @cached_property
    def n_beta(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(b.numerator * (self.n // b.denominator) for b in row)
                     for row in self.beta)

    @cached_property
    def n_alpha(self) -> tuple[int, ...]:
        return tuple(a.numerator * (self.n // a.denominator) for a in self.alpha)

    @cached_property
    def n_abs_alpha(self) -> int:
        return sum(self.n_alpha)

    @cached_property
    def _n_positive_beta(self) -> tuple[int, ...]:
        """N |beta^j|, the sum of puncture j's positive N beta_i^j."""
        return tuple(sum(b for b in row if b > 0) for row in self.n_beta)


@dataclass(frozen=True)
class WeightStats:
    abs_alpha: Fraction
    abs_beta: Fraction
    abs_beta1: Fraction
    per_puncture_abs_beta: tuple[Fraction, ...]


def validate_weight(w: Weight) -> list[str]:
    """Check the defining constraints; an empty list means the weight is valid.

    Violations are data, not exceptions: each entry names the failing
    constraint and the indices where it fails.  The list is fresh on every
    call; the check itself runs once per weight.
    """
    return list(w._violations)


def _check_weight(w: Weight) -> list[str]:
    """The violations of validate_weight, each constraint compared times N
    once the shapes are known to be right."""
    violations = []
    if w.q < 2:
        violations.append("q must be at least 2")
    if w.s < 3:
        violations.append("s must be at least 3")
    if len(w.alpha) != w.s:
        violations.append(f"alpha must have s={w.s} entries, got {len(w.alpha)}")
        return violations
    if len(w.beta) != w.s or any(len(row) != w.q for row in w.beta):
        violations.append("beta must be an s x q array")
        return violations
    n = w.n
    for j in range(w.s):
        if not (0 <= 2 * w.n_alpha[j] <= n):
            violations.append(f"alpha[{j + 1}] not in [0, 1/2]")
        row = w.n_beta[j]
        for i in range(w.q):
            if 2 * row[i] >= n:
                violations.append(f"beta_i^j<1/2 fails at (i={i + 1}, j={j + 1})")
            if i + 1 < w.q and row[i] < row[i + 1]:
                violations.append(f"non-increasing fails at (i={i + 1}, j={j + 1})")
        for i in range(w.q):
            if row[i] + row[w.q - 1 - i] != 0:
                violations.append(f"antisymmetry fails at (i={i + 1}, j={j + 1})")
                break
    return violations


def require_valid(w: Weight) -> None:
    if w._violations:
        raise InputError("invalid weight: " + "; ".join(w._violations))


def weight_stats(w: Weight) -> WeightStats:
    """|alpha|, |beta|, |beta_1| and the per-puncture positive-part sums."""
    require_valid(w)
    return w._stats


@dataclass(frozen=True)
class RegionMembership:
    in_w: bool
    in_w_prime: bool


def region_membership(w: Weight) -> RegionMembership:
    """Membership in the admissible region (alpha^j > |beta^j| per puncture and
    |alpha| + |beta| < 1) and in its full-measure refinement where every
    puncture's beta is strictly decreasing.  The weight is checked on every
    call; the membership is computed once per weight."""
    require_valid(w)
    return w._membership


@dataclass(frozen=True)
class JInterval:
    lower: Fraction
    upper: Fraction
    contained_integer: int | None


def j_interval_bounds(abs_alpha: Fraction, abs_beta1: Fraction) -> JInterval:
    """The open degree interval (-1 + (|beta_1| - |alpha|)/2, -|alpha|) and the
    unique integer strictly inside it, if any.

    The interval has length at most 1, so it contains at most one integer;
    when one is present it is always -1 and then 0 < |alpha| < 1.
    """
    lower = Fraction(-1) + (abs_beta1 - abs_alpha) / 2
    upper = -abs_alpha
    contained = None
    if lower < upper:
        cand = lower.numerator // lower.denominator + 1  # smallest integer > lower
        if lower < cand < upper:
            contained = cand
    return JInterval(lower, upper, contained)


def j_interval(w: Weight) -> JInterval:
    stats = weight_stats(w)
    return j_interval_bounds(stats.abs_alpha, stats.abs_beta1)


@dataclass(frozen=True)
class CompactnessResult:
    eta_forced_zero: bool
    failing_condition: str | None


def compactness_criterion(w: Weight, d: int) -> CompactnessResult:
    """Whether the three inequalities forcing the upper Higgs block to vanish
    hold for line-bundle degree d:

        (1) alpha^j > beta_1^j at every puncture
        (2) |alpha| - |beta_1| < 2
        (3) 2 d > -2 + |beta_1| - |alpha|
    """
    stats = weight_stats(w)
    for j in range(w.s):
        if not w.alpha[j] > w.beta[j][0]:
            return CompactnessResult(False, f"(1) alpha^j > beta_1^j fails at j={j + 1}")
    if not stats.abs_alpha - stats.abs_beta1 < 2:
        return CompactnessResult(False, "(2) |alpha| - |beta_1| < 2 fails")
    if not 2 * d > -2 + stats.abs_beta1 - stats.abs_alpha:
        return CompactnessResult(False, "(3) 2 deg > -2 + |beta_1| - |alpha| fails")
    return CompactnessResult(True, None)


@dataclass(frozen=True)
class Monodromy:
    phases: tuple[tuple[Fraction, ...], ...]  # per puncture: (alpha, -alpha, beta_1..beta_q)
    all_unit_modulus: bool
    toledo: Fraction


def _normalize_phase(x: Fraction) -> Fraction:
    """Reduce mod 1 into (-1/2, 1/2]."""
    x = x - (x.numerator // x.denominator)  # into [0, 1)
    if x > _HALF:
        x -= 1
    return x


def monodromy_and_toledo(w: Weight, d: int) -> Monodromy:
    """Boundary monodromy eigenvalues as exact rational phases, plus the
    relative component label d + |alpha|.

    Eigenvalues are exp(2*pi*i*phase) with the phases stored exactly, so unit
    modulus is a structural fact rather than a numerical one.
    """
    stats = weight_stats(w)
    phases = tuple(
        tuple(_normalize_phase(x) for x in (w.alpha[j], -w.alpha[j]) + w.beta[j])
        for j in range(w.s)
    )
    return Monodromy(phases=phases, all_unit_modulus=True, toledo=d + stats.abs_alpha)


def correspondence_caveats(w: Weight) -> list[str]:
    """Boundary situations that are admissible as weights but sit outside the
    hypotheses of the analytic correspondence: alpha^j = 1/2, or alpha^j equal
    to some beta_i^j.  Flagged, never forbidden."""
    notes = []
    for j in range(w.s):
        if w.alpha[j] == _HALF:
            notes.append(f"alpha[{j + 1}] = 1/2 (boundary weight)")
        for i in range(w.q):
            if w.alpha[j] == w.beta[j][i]:
                notes.append(f"alpha[{j + 1}] equals beta_{i + 1}[{j + 1}]")
    return notes
