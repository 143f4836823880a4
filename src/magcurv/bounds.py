"""Inequality verification: Harnack, eigenvalue, covering-diameter and
Cheeger bounds, and BoundsReport. Every check takes its steps in one order
(``_steps``), and the path bounds share one hypothesis check that finds their
path lengths under the budget (``_path_lengths``).

Every record stores both sides of its inequality; pass means
LHS <= RHS + 1e-9 * max(1, |RHS|). Eigenpairs are normalized to
max_z |f(z)| = 1 before recording, so left- and right-hand sides are directly
comparable across pairs. Bounds whose right-hand side is nonpositive are
reported as passing trivially with an explicit vacuous flag, never suppressed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .combinatorics import DEFAULT_BUDGET, cheeger_number, magnetic_girth
from .curvature import _inv_n, _not_nan, kappa_max
from .errors import PreconditionError, SizeError
from .graphs import MagneticGraph, Record, diameter, is_connected, signature_status
from .lift import lift_diameter
from .operators import energy, spectrum

__all__ = [
    "INEQ_TOL",
    "HarnackRecord",
    "AlphaRecord",
    "EigenvalueBoundRecord",
    "CheegerBoundRecord",
    "LiftDiameterResult",
    "BoundsReport",
    "harnack_check",
    "alpha_bound_check",
    "eigenvalue_lower_bound",
    "cheeger_bound_check",
    "lift_diameter_check",
    "verify_report",
]

INEQ_TOL = 1e-9
TRIVIAL_EIGENVALUE = 1e-12


def _passes(lhs: float, rhs: float) -> bool:
    return bool(lhs <= rhs + INEQ_TOL * max(1.0, abs(rhs)))


def _steps(g: MagneticGraph, n: float, kappa, hypotheses, *args):
    """(1/n, kappa, hypotheses(g, *args)) in the order every check takes: n,
    then kappa (NaN rejected, +-inf kept), then the hypotheses, which raise on
    a failure, then the certified kappa_max(g, n) for kappa "auto" or None."""
    invn = _inv_n(n)
    kap = None if kappa == "auto" or kappa is None else _not_nan("kappa", float(kappa))
    found = hypotheses(g, *args)
    return invn, kappa_max(g, n).kappa_max if kap is None else kap, found


def _connected(g: MagneticGraph) -> None:
    if not is_connected(g):
        raise PreconditionError("connected")


def _record_or_skip(check, *args):
    """(check(*args), None), or (None, the reason) when a hypothesis fails
    or a search exceeds its budget."""
    try:
        return check(*args), None
    except PreconditionError as exc:
        return None, f"hypothesis failed: {exc.hypothesis}"
    except SizeError as exc:
        return None, f"budget: {exc}"


def _normalized_eigenpairs(g: MagneticGraph):
    """Nontrivial eigenpairs (i, lambda, f) of -Laplacian, each f scaled to
    max |f| = 1, with the local energy |grad f|^2 of f."""
    spec = spectrum(g)
    out = []
    for i, lam in enumerate(spec.eigenvalues):
        if lam <= TRIVIAL_EIGENVALUE:
            continue
        f = spec.eigenvectors[:, i]
        f = f / np.abs(f).max()
        out.append((i, float(lam), f, energy(g, f)))
    return out


@dataclass(frozen=True)
class HarnackRecord(Record):
    """max_x |grad f|^2(x) <= ((8 - 2/n) lambda - 4 kappa) max_z |f|^2(z)."""

    eigen_index: int
    lam: float = field(metadata={"json": "lambda"})
    lhs: float
    rhs: float
    slack: float
    passed: bool


def harnack_check(g: MagneticGraph, n: float, kappa="auto") -> list[HarnackRecord]:
    """Check the eigenfunction Harnack inequality for every nontrivial eigenpair.

    kappa = "auto" certifies the tightest instance, kappa_max(g, n).
    Eigenvalues below 1e-12 are skipped as trivial. Requires a connected
    graph, checked after n and kappa.
    """
    invn, kap, _ = _steps(g, n, kappa, _connected)
    return [_harnack_record(invn, kap, *pair) for pair in _normalized_eigenpairs(g)]


def _harnack_record(invn: float, kappa: float, i: int, lam: float, f: np.ndarray,
                    grad: np.ndarray) -> HarnackRecord:
    """The Harnack record of one normalized eigenpair (i, lam, f) with energy grad."""
    lhs = float(grad.max())
    rhs = ((8.0 - 2.0 * invn) * lam - 4.0 * kappa)
    return HarnackRecord(eigen_index=i, lam=lam, lhs=lhs, rhs=rhs,
                         slack=rhs - lhs, passed=_passes(lhs, rhs))


@dataclass(frozen=True)
class AlphaRecord(Record):
    """|grad f|^2(x) + alpha lambda |f|^2(x), per vertex, against the
    alpha-parameterized right-hand side."""

    eigen_index: int
    lam: float = field(metadata={"json": "lambda"})
    alpha: float
    applicable: bool
    ill_conditioned: bool
    lhs_per_vertex: tuple[float, ...]
    rhs: float
    passed: bool


def alpha_bound_check(g: MagneticGraph, n: float, kappa: float,
                      alpha: float) -> list[AlphaRecord]:
    """Per-eigenpair, per-vertex check of the alpha-parameterized energy bound.

    An eigenpair is applicable when alpha > 2 - 2 kappa / lambda; a denominator
    below 1e-8 * max(1, lambda) flags the record ill-conditioned. At
    alpha = 4 - 2 kappa / lambda the right-hand side reduces exactly to the
    Harnack one. Inapplicable alphas are reported, not raised; n, then a NaN
    kappa, then a NaN alpha is rejected.
    """
    invn, kappa, alpha = _inv_n(n), _not_nan("kappa", kappa), _not_nan("alpha", alpha)
    return [_alpha_record(invn, kappa, alpha, *pair) for pair in _normalized_eigenpairs(g)]


def _alpha_record(invn: float, kappa: float, alpha: float, i: int, lam: float,
                  f: np.ndarray, grad: np.ndarray) -> AlphaRecord:
    """The alpha-bound record of one normalized eigenpair (i, lam, f) with energy grad."""
    applicable = alpha > 2.0 - 2.0 * kappa / lam
    denom = (alpha - 2.0) * lam + 2.0 * kappa
    ill = abs(denom) <= 1e-8 * max(1.0, lam)
    lhs = grad + alpha * lam * np.abs(f) ** 2
    ok = applicable and not ill
    rhs = (((alpha * alpha - 4.0 * invn) * lam + 2.0 * kappa * alpha) / denom * lam
           if ok else math.nan)
    passed = ok and all(_passes(float(v), rhs) for v in lhs)
    return AlphaRecord(eigen_index=i, lam=lam, alpha=alpha,
                       applicable=applicable, ill_conditioned=ill,
                       lhs_per_vertex=tuple(float(v) for v in lhs),
                       rhs=rhs, passed=passed)


@dataclass(frozen=True)
class EigenvalueBoundRecord(Record):
    """lambda_min of -magnetic Laplacian against the curvature/path bound.

    ``bound`` uses (2D + ell*girth)^2 in numerator and denominator; for
    transparency ``bound_alt`` keeps the squared length only in the numerator
    and uses (2 + ell*girth)^2 in the denominator; ``lift_bound`` substitutes
    the actual lift diameter.
    """

    lambda_min: float
    diameter: int
    lift_diameter: int
    girth: int
    max_degree: float
    n: float
    kappa: float
    bound: float
    bound_alt: float
    lift_bound: float
    passed: bool
    passed_lift: bool
    vacuous: bool
    vacuous_lift: bool


def _path_lengths(g: MagneticGraph, budget: int) -> tuple[int, int, int, int]:
    """(girth, D, 2D + ell * girth, lift diameter) once the hypotheses of the
    path bounds hold: connected, unbalanced, entire signature (the closed-walk
    holonomies generate Z_ell), finite magnetic girth; the first to fail is
    named in PreconditionError. The girth and lift searches check the budget
    (SizeError); the lift's is asked first, so it refuses before D's BFS."""
    _connected(g)
    status = signature_status(g)
    if status.balanced:
        raise PreconditionError("unbalanced")
    if not status.entire:
        raise PreconditionError("entire signature")
    girth = magnetic_girth(g, budget=budget)
    if girth == math.inf:
        raise PreconditionError("finite magnetic girth")
    d_lift, dia, girth = int(lift_diameter(g, budget)), int(diameter(g)), int(girth)
    return girth, dia, 2 * dia + g.ell * girth, d_lift


@dataclass(frozen=True)
class LiftDiameterResult(Record):
    lift_diameter: int
    bound: int
    passed: bool


def lift_diameter_check(g: MagneticGraph, budget: int = DEFAULT_BUDGET) -> LiftDiameterResult:
    """Check the covering-diameter estimate: lift diameter <= 2*D + ell*girth.

    Hypotheses (connected, unbalanced, entire signature, finite magnetic
    girth) are enforced; the violated one is named in the PreconditionError.
    The girth search and the lift BFS check the budget themselves (SizeError).
    """
    _, _, bound, d_lift = _path_lengths(g, budget)
    return LiftDiameterResult(lift_diameter=d_lift, bound=bound, passed=d_lift <= bound)


def _curvature_path_bound(kappa: float, d: float, invn: float, length_sq_num: float,
                          length_sq_den: float) -> float:
    return (1.0 + 4.0 * kappa * d * length_sq_num) / (d * (8.0 - 2.0 * invn) * length_sq_den)


def eigenvalue_lower_bound(g: MagneticGraph, n: float, kappa="auto",
                           budget: int = DEFAULT_BUDGET) -> EigenvalueBoundRecord:
    """Lower-bound the least eigenvalue of -magnetic Laplacian by curvature and
    extremal path quantities.

    Hypotheses, checked after n and kappa: connected, unbalanced, entire
    signature, finite magnetic girth; the failed one is named in
    PreconditionError. The girth search and the lift BFS check the budget
    before any curvature is computed (SizeError). Both the (2D +
    ell*girth)-based bound and the lift-diameter bound are checked.
    """
    invn, kap, (girth, dia, length, lift_dia) = _steps(g, n, kappa, _path_lengths, budget)
    d = g.max_degree
    lam_min = float(spectrum(g).eigenvalues[0])
    bound = _curvature_path_bound(kap, d, invn, length ** 2, length ** 2)
    bound_alt = _curvature_path_bound(kap, d, invn, length ** 2,
                                      (2 + g.ell * girth) ** 2)
    lift_bound = _curvature_path_bound(kap, d, invn, lift_dia ** 2, lift_dia ** 2)
    return EigenvalueBoundRecord(
        lambda_min=lam_min, diameter=dia, lift_diameter=lift_dia,
        girth=girth, max_degree=d, n=n, kappa=kap,
        bound=bound, bound_alt=bound_alt, lift_bound=lift_bound,
        passed=_passes(bound, lam_min), passed_lift=_passes(lift_bound, lam_min),
        vacuous=bound <= 0.0, vacuous_lift=lift_bound <= 0.0)


@dataclass(frozen=True)
class CheegerBoundRecord(Record):
    """Sandwich lambda/2 <= h1 <= 2 sqrt(2 d lambda), plus the curvature/path
    lower bound on h1 when its hypotheses hold (None otherwise)."""

    lambda_min: float
    h1: float
    max_degree: float
    lower: float
    upper: float
    lower_passed: bool
    upper_passed: bool
    curvature_lower: float | None
    curvature_lower_passed: bool | None
    curvature_lower_vacuous: bool | None


def cheeger_bound_check(g: MagneticGraph, n: float, kappa="auto",
                        budget: int = DEFAULT_BUDGET) -> CheegerBoundRecord:
    """Verify the Cheeger sandwich with the exact Cheeger number.

    The curvature/path lower bound is half of eigenvalue_lower_bound's bound,
    since h1 >= lambda / 2; when its hypotheses fail, or the girth search or
    the lift BFS exceeds the budget, it is recorded as not applicable rather
    than raised.
    """
    path, _ = _record_or_skip(eigenvalue_lower_bound, g, n, kappa, budget)
    return _cheeger_record(g, path, budget)


def _cheeger_record(g: MagneticGraph, path: EigenvalueBoundRecord | None,
                    budget: int) -> CheegerBoundRecord:
    """The Cheeger record around the path-bound record, None when it was skipped."""
    lam = float(spectrum(g).eigenvalues[0]) if path is None else path.lambda_min
    h1 = cheeger_number(g, budget=budget).h1
    d = g.max_degree
    lower = 0.5 * lam
    # on a balanced graph lambda is 0, and its rounding noise is not squared up
    upper = 2.0 * math.sqrt(2.0 * d * lam) if lam > TRIVIAL_EIGENVALUE else 0.0
    curvature_lower = None if path is None else 0.5 * path.bound
    return CheegerBoundRecord(
        lambda_min=lam, h1=h1, max_degree=d, lower=lower, upper=upper,
        lower_passed=_passes(lower, h1), upper_passed=_passes(h1, upper),
        curvature_lower=curvature_lower,
        curvature_lower_passed=None if path is None else _passes(curvature_lower, h1),
        curvature_lower_vacuous=None if path is None else curvature_lower <= 0.0)


@dataclass(frozen=True)
class BoundsReport:
    """All verified inequalities for one graph, with hypothesis flags."""

    num_vertices: int
    ell: int
    n: float
    kappa: float
    connected: bool
    balanced: bool
    entire: bool
    girth_finite: bool | None   # None: the girth search exceeded the budget
    harnack: tuple[HarnackRecord, ...]
    alpha: tuple[AlphaRecord, ...]
    eigenvalue: EigenvalueBoundRecord | None
    eigenvalue_skipped: str | None
    cheeger: CheegerBoundRecord | None
    cheeger_skipped: str | None

    @property
    def all_passed(self) -> bool:
        ok = all(r.passed for r in self.harnack)
        ok = ok and all(r.passed for r in self.alpha
                        if r.applicable and not r.ill_conditioned)
        if self.eigenvalue is not None:
            ok = ok and self.eigenvalue.passed and self.eigenvalue.passed_lift
        if self.cheeger is not None:
            ok = ok and self.cheeger.lower_passed and self.cheeger.upper_passed
            if self.cheeger.curvature_lower_passed is not None:
                ok = ok and self.cheeger.curvature_lower_passed
        return ok

    def to_json_dict(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "ell": self.ell,
            "n": self.n,
            "kappa": self.kappa,
            "hypotheses": {"connected": self.connected, "balanced": self.balanced,
                           "entire": self.entire, "girth_finite": self.girth_finite},
            "harnack": [r.to_json_dict() for r in self.harnack],
            "alpha": [r.to_json_dict() for r in self.alpha],
            "eigenvalue_bound": None if self.eigenvalue is None else self.eigenvalue.to_json_dict(),
            "eigenvalue_bound_skipped": self.eigenvalue_skipped,
            "cheeger": None if self.cheeger is None else self.cheeger.to_json_dict(),
            "cheeger_skipped": self.cheeger_skipped,
            "all_passed": self.all_passed,
        }

    def to_markdown(self) -> str:
        def fmt(x):
            if x is None:
                return "-"
            if isinstance(x, bool):
                return "pass" if x else "FAIL"
            if isinstance(x, float):
                return format(x, ".12g")
            return str(x)

        lines = [
            f"# Verification report (N={self.num_vertices}, ell={self.ell}, "
            f"n={fmt(self.n)}, kappa={fmt(self.kappa)})",
            "",
            f"hypotheses: connected={self.connected} balanced={self.balanced} "
            f"entire={self.entire} girth_finite={self.girth_finite}",
            "",
            "| check | parameter | LHS | RHS | status |",
            "|---|---|---|---|---|",
        ]
        for r in self.harnack:
            lines.append(f"| harnack | lambda={fmt(r.lam)} | {fmt(r.lhs)} "
                         f"| {fmt(r.rhs)} | {fmt(r.passed)} |")
        for r in self.alpha:
            status = ("n/a" if not r.applicable
                      else "ill-cond" if r.ill_conditioned else fmt(r.passed))
            lines.append(f"| alpha-bound | alpha={fmt(r.alpha)}, lambda={fmt(r.lam)} "
                         f"| {fmt(max(r.lhs_per_vertex))} | {fmt(r.rhs)} | {status} |")
        if self.eigenvalue is not None:
            e = self.eigenvalue
            lines.append(f"| eigenvalue bound | L=2D+ell*g | {fmt(e.bound)} "
                         f"| {fmt(e.lambda_min)} | {fmt(e.passed)} |")
            lines.append(f"| eigenvalue bound | lift diameter | {fmt(e.lift_bound)} "
                         f"| {fmt(e.lambda_min)} | {fmt(e.passed_lift)} |")
        else:
            lines.append(f"| eigenvalue bound | - | - | - | skipped: {self.eigenvalue_skipped} |")
        if self.cheeger is not None:
            c = self.cheeger
            lines.append(f"| cheeger lower | lambda/2 | {fmt(c.lower)} | {fmt(c.h1)} "
                         f"| {fmt(c.lower_passed)} |")
            lines.append(f"| cheeger upper | 2 sqrt(2 d lambda) | {fmt(c.h1)} "
                         f"| {fmt(c.upper)} | {fmt(c.upper_passed)} |")
            if c.curvature_lower is not None:
                lines.append(f"| cheeger curvature lower | - | {fmt(c.curvature_lower)} "
                             f"| {fmt(c.h1)} | {fmt(c.curvature_lower_passed)} |")
        else:
            lines.append(f"| cheeger | - | - | - | skipped: {self.cheeger_skipped} |")
        lines.append("")
        lines.append(f"overall: {'all pass' if self.all_passed else 'FAILURES PRESENT'}")
        return "\n".join(lines)


def verify_report(g: MagneticGraph, n: float = 2.0, kappa="auto",
                  budget: int = DEFAULT_BUDGET) -> BoundsReport:
    """Run every applicable inequality check on one graph.

    Requires a connected graph, checked after n and kappa and before
    kappa_max. kappa = "auto" uses the certified kappa_max(g, n), and every
    check gets the same kappa; every eigenpair gets one alpha record at the
    reduction value alpha = 4 - 2 kappa / lambda.
    A failed hypothesis or a search over budget skips, with its reason, only
    the records that need it; a girth overrun also sets girth_finite to None.
    """
    invn, kap, _ = _steps(g, n, kappa, _connected)
    status = signature_status(g)
    pairs = _normalized_eigenpairs(g)
    harnack = [_harnack_record(invn, kap, *pair) for pair in pairs]
    alpha_records = [_alpha_record(invn, kap, 4.0 - 2.0 * kap / pair[1], *pair)
                     for pair in pairs]
    girth, _ = _record_or_skip(magnetic_girth, g, budget)
    eigen_rec, eigen_skip = _record_or_skip(eigenvalue_lower_bound, g, n, kap, budget)
    cheeger_rec, cheeger_skip = _record_or_skip(_cheeger_record, g, eigen_rec, budget)
    return BoundsReport(
        num_vertices=g.num_vertices, ell=g.ell, n=n, kappa=kap,
        connected=True, balanced=status.balanced, entire=status.entire,
        girth_finite=None if girth is None else girth != math.inf,
        harnack=tuple(harnack), alpha=tuple(alpha_records),
        eigenvalue=eigen_rec, eigenvalue_skipped=eigen_skip,
        cheeger=cheeger_rec, cheeger_skipped=cheeger_skip)
