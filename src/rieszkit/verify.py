"""Estimate-verification harness.

Each check samples one inequality from the theory on concrete inputs,
estimates the implied constant, and tracks its stability under rescaling.
"Uniformly bounded" is operationalized as: the empirical maximum over a
seeded campaign is finite and its per-radius maxima drift by less than a
factor of 4 across the campaign's radii (0.25, 1 and 4 by default).
A campaign does not re-run its norms on a refined lattice; only the
pointwise atom bound also measures its drift, under a doubled set of outer
sample points (its values of T read no lattice), and it labels, evaluates
and bounds each sample set in one pass.  The maximal check reads
its ratios exactly on the whole line and fails only on an infinite one.
Checks never assert sharp constants.  Every check audits its hypotheses
before any costly work, and ``require_hypotheses`` raises HypothesisFailed
for the first that fails.
The checks that take atoms read their A_infinity gate and moment degree
from ``atoms.atom_class``, as ``atoms gen`` does.
A step of the proofs that holds by construction, such as the triangle
inequality |x - A_i xi| >= |x - A_i x0| / 2 for outer x, is a property test
of the package (``tests/test_geometry.py``), not a check.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING

import numpy as np

# the builtin sha256, as random.py takes its sha512: the OpenSSL-backed
# digests would load libcrypto, ~3.5 MB resident, for one digest per report
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .config import derived_degree
from .errors import AuditItem, ConfigError, MisclassifiedSample, require_hypotheses
from .geometry import (MAX_EXTENT, Ball, BallFamily, MatrixFamily, as_point, classify_batch,
                       default_ball_family, expanded_balls)
from .operators import (ExponentProfile, apply_T_ball_1d, apply_T_batch,
                        indicator_maximal_1d)
from .quadrature import (PowerProfile, graded_edges, integrate_cells_1d, lebesgue_ball,
                         radial_profile)
from .records import asdict, field, record
from .weights import (PowerWeight, _exp, check_matrix_compatibility, critical_indices,
                      estimate_A1_constant, estimate_Ap_constant, estimate_Apq_constant,
                      estimate_RH_constant, eval_weight_batch, power_mean, radial_factors,
                      weight_power, weight_singularities, weight_to_dict, weighted_measure)

if TYPE_CHECKING:
    from .atoms import AtomParams, CampaignSpec

#: a campaign's per-radius maxima, and the pointwise bound's worst ratio
#: under a doubled sample set, count as uniformly bounded when they drift by
#: less than this factor
STABILITY_FACTOR = 4.0
RATIO_FLOOR = 1e-14
CHAIN_RTOL = 1e-12


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@record
class VerificationReport:
    check_id: str
    verdict: str                       # "pass" | "fail"
    worst: float
    hypotheses: list = field(default_factory=list)
    stability: dict = field(default_factory=dict)
    sample: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def passed(self) -> bool:
        return self.verdict == "pass"


def config_hash(obj) -> str:
    return sha256(json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()[:16]


def _drift(values) -> float:
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite or any(not math.isfinite(v) for v in values):
        return math.inf
    return max(finite) / min(finite)


def _worst(values, lowest: bool = False):
    """Index of the largest of ``values`` (the smallest with ``lowest``), or
    None when there are none.  A NaN is the worst value and the first one is
    returned: Python's max and min skip a NaN, so a check would pass over
    it.  Every sup and inf over computed ratios goes through here."""
    values = list(values)
    for i, v in enumerate(values):
        if math.isnan(v):
            return i
    if not values:
        return None
    return (min if lowest else max)(range(len(values)), key=values.__getitem__)


def _at_worst(values, lowest: bool = False) -> float:
    """The value ``_worst`` picks, or 0 when there is none."""
    i = _worst(values, lowest)
    return 0.0 if i is None else values[i]


def _class_audit(name: str, rep, detail: str = "") -> AuditItem:
    """A class audit from its estimate; a failure's detail is ``excluded_by``."""
    return AuditItem(name, rep.constant, rep.verdict == "finite", rep.excluded_by or detail)


# ---------------------------------------------------------------------------
# Pointwise atom bound on the outer region
# ---------------------------------------------------------------------------


def outer_sample_points(ball: Ball, family: MatrixFamily, per_side: int = 6,
                        refine: int = 1) -> np.ndarray:
    """Points in the outer region of a ball on the line, as an (N, 1) array:
    A_k x0 + 2 M r tau and then A_k x0 - 2 M r tau for each k and each tau on
    a geometric grid in [1.25, 16], less those that ``classify_batch`` puts
    in an expanded ball."""
    taus = np.geomspace(1.25, 16.0, per_side * refine)
    offsets = np.column_stack([taus, -taus]).ravel()
    pts = np.concatenate([b.center + b.radius * offsets for b in expanded_balls(ball, family)])
    return pts[classify_batch(pts[:, None], ball, family)[0], None]


def check_pointwise_atom_bound(params: AtomParams, profile: ExponentProfile,
                               family: MatrixFamily, center,
                               radii=(0.25, 1.0, 4.0), seed: int = 0,
                               samples=None, audits=None) -> VerificationReport:
    """Estimate the constant in the outer-region pointwise bound on the line
    and test its stability across atom radii and a doubled sample set;
    ``audits`` defaults to ``atoms.class_audits``.

    Each sample set is labelled by one ``classify_batch`` call (a point in
    an expanded ball raises MisclassifiedSample), evaluated by one
    ``apply_T_batch`` call and bounded at once: by the decay form
    w(B)^{-1/p} r^{n+d+1} |x - A_k x0|^{alpha-n-d-1} and, for alpha > 0, by
    w(B)^{-1/p} (M_beta chi_B(A_k^{-1} x))^{(n+d+1)/n} in closed form, both
    from logarithms, so a huge or tiny ball under- or overflows no power
    that the product would cancel.
    """
    n = params.dimension
    if n != 1:
        raise ValueError("the pointwise atom bound is implemented on the line")
    from .atoms import class_audits, construct_atom

    if audits is None:
        audits = class_audits(params.weight, params.p, params.d)[0]
    require_hypotheses(audits)

    order = n + params.d + 1
    centers = np.array([family.apply(j, center)[0] for j in range(family.m)])
    inverses = np.array([inv[0, 0] for inv in family.inverses])
    witnesses = []
    cstar = {}
    agreement = []
    for r in radii:
        ball = Ball(center, r)
        fn = construct_atom(ball, params, seed).function()
        log_wfac = -math.log(weighted_measure(params.weight, 1.0, ball)) / params.p
        for refine in (1, 2):
            pts = (np.array([as_point(x, n) for x in samples]) if samples is not None
                   else outer_sample_points(ball, family, refine=refine))
            is_outer, k = classify_batch(pts, ball, family)
            if not np.all(is_outer):
                raise MisclassifiedSample(
                    f"sample {pts[np.argmin(is_outer)].tolist()} lies in an expanded ball")
            x = pts[:, 0]
            lhs = np.abs(apply_T_batch(fn, pts, profile, family))
            # both sides scale alike under dilation, so a huge or tiny ball
            # reads the unit ball's ratio; a right side that underflows to 0
            # leaves it undefined
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                decay = np.exp(log_wfac + order * math.log(r)
                               + (profile.alpha - order) * np.log(np.abs(x - centers[k])))
                maximal = None
                if profile.alpha > 0.0:
                    mval = indicator_maximal_1d(ball, inverses[k] * x, profile.alpha * n / order)
                    maximal = np.exp(log_wfac + order / n * np.log(mval))
                rhs = decay if maximal is None else maximal
                ratios = np.where(rhs > 0.0, lhs / rhs, math.nan).tolist()
                if maximal is not None:
                    agreement += (decay / maximal)[maximal > 0].tolist()
            if refine == 1:
                witnesses += [{"radius": r, "x": pt, "region": kx, "lhs": lx, "rhs_decay": dx,
                               "rhs_maximal": mx, "ratio": rx} for pt, kx, lx, dx, mx, rx in zip(
                    pts.tolist(), k.tolist(), lhs.tolist(), decay.tolist(),
                    [None] * len(k) if maximal is None else maximal.tolist(), ratios)]
            cstar[(r, refine)] = _at_worst(ratios)
            if samples is not None:
                break

    base = [cstar[(r, 1)] for r in radii]
    refined = [cstar.get((r, 2), cstar[(r, 1)]) for r in radii]
    drift_radii = _drift(base)
    drift_refine = _drift([_at_worst(base), _at_worst(refined)])
    # a non-finite constant makes its drift infinite
    verdict = "pass" if max(drift_radii, drift_refine) < STABILITY_FACTOR else "fail"
    extras = {}
    if agreement:
        extras["form_agreement"] = {"min": _at_worst(agreement, lowest=True),
                                    "max": _at_worst(agreement)}
    return VerificationReport(
        "pointwise-atom-bound", verdict, _at_worst(base), audits,
        stability={"by_radius": {str(r): cstar[(r, 1)] for r in radii},
                   "refined": {str(r): refined[i] for i, r in enumerate(radii)},
                   "drift_radii": drift_radii, "drift_refine": drift_refine},
        sample={"center": list(np.atleast_1d(center)), "radii": list(radii),
                "seed": seed},
        witnesses=witnesses, extras=extras,
        provenance={"seed": seed, "config_hash": config_hash(
            {"check": "pointwise", "params": params.to_dict(), "alpha": profile.alpha})})


# ---------------------------------------------------------------------------
# Ball inequality from the reverse Holder condition
# ---------------------------------------------------------------------------


def check_rh_ball_inequality(w, p: float, alpha: float, family: BallFamily) -> VerificationReport:
    """[w^p(B)]^{-1/p} [w^q(B)]^{1/q} <= [w^p]_{RH_{q/p}}^{1/p} |B|^{-alpha/n}."""
    n = w.dimension
    if not (0.0 < p < n / alpha):
        raise ValueError("need 0 < p < n / alpha")
    q = 1.0 / (1.0 / p - alpha / n)
    wp = weight_power(w, p)
    rh = estimate_RH_constant(wp, q / p, family)
    audits = [_class_audit(f"w^p in RH_{q / p:g}", rh)]
    require_hypotheses(audits)
    slacks, samples = [], []
    for ball in family:
        log_vol = math.log(lebesgue_ball(n, ball.radius))
        # from the logarithms of the means of w^p (orders q/p and 1), where
        # the scale of w cancels instead of overflowing
        log_lhs = ((power_mean(wp, q / p, ball, log=True)
                    - power_mean(wp, 1.0, ball, log=True)) / p
                   + (1.0 / q - 1.0 / p) * log_vol)
        log_rhs = math.log(rh.constant) / p - alpha / n * log_vol
        ratio = _exp(log_lhs - log_rhs)
        slacks.append(1.0 - ratio)
        samples.append({"ball": ball.to_dict(), "lhs": _exp(log_lhs), "rhs": _exp(log_rhs),
                        "ratio": ratio})
    k = _worst(slacks, lowest=True)
    worst_slack, witnesses = slacks[k], [samples[k]]
    verdict = "pass" if worst_slack >= -1e-10 else "fail"
    return VerificationReport(
        "rh-ball-inequality", verdict, worst_slack, audits,
        sample={"p": p, "q": q, "alpha": alpha, "family_size": len(family)},
        witnesses=witnesses,
        extras={"mean_slack": float(np.mean(slacks)), "max_slack": float(np.max(slacks))},
        provenance={"config_hash": config_hash({"w": weight_to_dict(w), "p": p,
                                                "alpha": alpha})})


# ---------------------------------------------------------------------------
# Critical-index chains
# ---------------------------------------------------------------------------


def _chain_leq(a: float, b: float, slack: float) -> bool:
    if math.isinf(b):
        return True
    if math.isinf(a):
        return False
    return a <= b + slack


def check_critical_index_chains(w, p: float, q: float | None,
                                family: BallFamily) -> VerificationReport:
    """Index chains relating the reverse Holder indices of w, w^p (and w^q).

    Without q:  p * r_{w^p} <= r_w <= r_{w^p}   (hypothesis: w^{1/p} in A_1).
    With q:     p * r_{w^p} <= q * r_{w^q}      (hypothesis: w^q in A_1).
    Infinite indices satisfy the chains vacuously.  The indices are exact
    and r_{w^t} = r_w / t, so the chains are identities up to rounding
    (``CHAIN_RTOL`` of the largest finite term).
    """
    audits = []
    if q is None:
        if not (0.0 < p < 1.0):
            raise ValueError("the two-sided chain needs 0 < p < 1")
        hyp = estimate_A1_constant(weight_power(w, 1.0 / p), family)
        audits.append(_class_audit("w^{1/p} in A_1", hyp))
    else:
        if not (0.0 < p < q):
            raise ValueError("the comparison chain needs 0 < p < q")
        hyp = estimate_A1_constant(weight_power(w, q), family)
        audits.append(_class_audit("w^q in A_1", hyp))
    require_hypotheses(audits)

    r_w = critical_indices(w).rh_critical
    r_wp = critical_indices(weight_power(w, p)).rh_critical
    values = {"r_w": r_w, "r_wp": r_wp}
    if q is not None:
        values["r_wq"] = r_wq = critical_indices(weight_power(w, q)).rh_critical
    terms = [r_w, p * r_wp] + ([] if q is None else [q * r_wq])
    slack = CHAIN_RTOL * max([1.0] + [t for t in terms if math.isfinite(t)])
    if q is None:
        ok = (_chain_leq(p * r_wp, r_w, slack) and _chain_leq(r_w, r_wp, slack))
        worst = 0.0 if ok else max(p * r_wp - r_w, r_w - r_wp)
    else:
        ok = _chain_leq(p * r_wp, q * r_wq, slack)
        worst = 0.0 if ok else p * r_wp - q * r_wq
    return VerificationReport(
        "critical-index-chain", "pass" if ok else "fail", worst, audits,
        stability={}, sample={"p": p, "q": q},
        extras={"indices": values, "slack": slack},
        provenance={"config_hash": config_hash({"w": weight_to_dict(w), "p": p, "q": q})})


# ---------------------------------------------------------------------------
# Maximal-operator norm inequalities
# ---------------------------------------------------------------------------


def check_maximal_inequalities(w, p: float, test_balls,
                               alpha: float | None = None) -> VerificationReport:
    """Operator-norm ratio of the (fractional) maximal operator on indicators.

    alpha None: sup_f ||Mf||_{L^p_w} / ||f||_{L^p_w} needs w in A_p.
    alpha set:  sup_f ||M_alpha f||_{L^q_{w^q}} / ||f||_{L^p_{w^p}} with
    1/q = 1/p - alpha/n needs w in A_{p,q}.
    Both need p > 1: at p = 1 the operators have only the weak-type bound,
    and the strong-type ratio is unbounded over balls.

    On the line M_beta chi_B = |B| (|B| + dist(x, B))^(beta-1)
    (``indicator_maximal_1d``) is |B|^beta in B = [lo, hi] and
    |B| |x - e|^(beta-1) outside, e the end of B farther from x.  So each
    norm is read exactly on the whole line by
    ``line_integral.log_line_integral`` (the left side over (-inf, lo],
    [lo, hi] and [hi, inf)), with ``err_est`` the ratio's relative change
    when every panel is halved.  A ratio is +inf exactly when an integral
    diverges, and only a non-finite ratio fails the check; the class audit,
    read from the exponents, refuses such a weight first.
    """
    if w.dimension != 1:
        raise ValueError("maximal-inequality sweeps are implemented on the line")
    if not p > 1.0:
        raise ValueError("the maximal operators are bounded on L^p_w only for p > 1")
    radial = radial_factors(w)
    if radial is None:
        raise ValueError("the maximal check needs the weight beyond a tabulated grid")
    fam = default_ball_family(w.dimension)
    if alpha is None:
        rep = estimate_Ap_constant(w, p, fam)
        audits = [_class_audit(f"w in A_{p:g}", rep, "required for the strong-type bound")]
        q, beta, s_num, s_den = p, 0.0, 1.0, 1.0
    else:
        q = 1.0 / (1.0 / p - alpha)
        rep = estimate_Apq_constant(w, p, q, fam)
        audits = [_class_audit(f"w in A_pq(p={p:g},q={q:g})", rep)]
        # ||M_alpha f||_{L^q_{w^q}} / ||f||_{L^p_{w^p}}
        beta, s_num, s_den = alpha, q, p
    require_hypotheses(audits)
    # only this check compiles the rule (see ``line_integral``)
    from .line_integral import log_line_integral

    # the weight's scale cancels in the ratio
    num_w, den_w = ([(float(c[0]), radial_profile(prof.exponent * t, prof.s * t))
                     for c, prof in radial[1]] for t in (s_num, s_den))
    far = PowerProfile(q * (beta - 1.0))
    witnesses = []
    for ball in test_balls:
        c = float(ball.center[0])
        lo, hi = c - ball.radius, c + ball.radius
        if not (lo < c < hi and math.isfinite(hi - lo)):
            raise ValueError(f"test ball B({c:g}, {ball.radius:g}) has no finite positive length")
        log_size = math.log(hi - lo)
        log_num = np.logaddexp.reduce([
            q * log_size + np.array(log_line_integral(num_w + [(hi, far)], -math.inf, lo)),
            beta * q * log_size + np.array(log_line_integral(num_w, lo, hi)),
            q * log_size + np.array(log_line_integral(num_w + [(lo, far)], hi, math.inf))])
        with np.errstate(over="ignore"):
            coarse, ratio = np.exp(log_num / q - np.array(log_line_integral(den_w, lo, hi)) / p)
        # an infinite ratio is decided by the exponents, not by the panels
        witnesses.append({"center": [c], "radius": ball.radius, "ratio": float(ratio),
                          "err_est": float(abs(ratio / coarse - 1.0))
                          if math.isfinite(ratio) else 0.0})
    ratios = [row["ratio"] for row in witnesses]
    return VerificationReport(
        "maximal-inequality", "pass" if all(math.isfinite(v) for v in ratios) else "fail",
        _at_worst(ratios), audits,
        sample={"p": p, "alpha": alpha, "test_count": len(test_balls)}, witnesses=witnesses,
        provenance={"config_hash": config_hash({"w": weight_to_dict(w), "p": p,
                                                "alpha": alpha})})


# ---------------------------------------------------------------------------
# Theorem campaigns
# ---------------------------------------------------------------------------


def _merge_intervals(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return out


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``values`` sorted without repeats, as np.unique gives them (which
    imports numpy.ma)."""
    out = np.sort(values)
    return out[np.concatenate([[True], out[1:] != out[:-1]])]


def _split_edges_at(edges: np.ndarray, points) -> np.ndarray:
    inside = [p for p in points if edges[0] < p < edges[-1]]
    if not inside:
        return edges
    return _sorted_unique(np.concatenate([edges, np.asarray(inside, dtype=float)]))


def _expanded_intervals(ball: Ball, family: MatrixFamily) -> list:
    """The expanded balls of ``ball`` on the line, merged into sorted intervals."""
    return _merge_intervals([[float(b.center[0] - b.radius), float(b.center[0] + b.radius)]
                             for b in expanded_balls(ball, family)])


def _truncation_extent(intervals, outer_octaves: int) -> float:
    """Half-width of the truncated line that the norm of T a is integrated
    over: outer_octaves dyadic octaves beyond the expanded balls, so it
    dilates with them."""
    scale = max(abs(lo) + abs(hi) for lo, hi in intervals)
    return scale * 2.0**outer_octaves


def _ball_norm_split(atoms, profile: ExponentProfile, family: MatrixFamily,
                     norm_weight, weight_exponent: float, norm_exponent: float,
                     spec: CampaignSpec):
    """Inner (expanded balls) and outer contributions to the target norm of
    each atom in ``atoms``, which all lie on one ball.

    Returns (norm, inner, outer, tail_bound), four arrays with one entry per
    atom: norm is the e-th root of inner + outer, the integral of |T a|^e w^s
    over the truncated line, formed from logarithms so that no dilated ball
    over- or underflows it; the tail is estimated from the closed decay form
    and reported, not added.  The cells, the weight values and T itself
    (``operators.apply_T_ball_1d``) are evaluated once for the ball, and
    each atom's entries are bit for bit those of a one-atom call.
    """
    ball = atoms[0].ball
    n = ball.dimension
    if n != 1:
        raise ValueError("theorem campaigns are implemented on the line")
    fns = [atom.function() for atom in atoms]
    e = norm_exponent
    sw = weight_exponent
    wsings = weight_singularities(norm_weight, sw)

    def log_integrand(xs):
        with np.errstate(divide="ignore"):
            return (e * np.log(np.abs(apply_T_ball_1d(fns, xs, profile, family)))
                    + sw * np.log(eval_weight_batch(norm_weight, xs[:, None], extended=True)))

    breakpoints = [0.0] if profile.alpha == 0.0 else []
    breakpoints += [float(s.center_array()[0]) for s in wsings]

    intervals = _expanded_intervals(ball, family)
    star_diameter = 4.0 * family.norm_bound * ball.radius
    # inner_resolution cells per expanded-ball diameter
    inner_cells = [_split_edges_at(np.linspace(lo, hi, max(64, int(
        spec.inner_resolution * (hi - lo) / star_diameter)) + 1), breakpoints)
        for lo, hi in intervals]

    extent = _truncation_extent(intervals, spec.outer_octaves)
    h0 = 2.0 * family.norm_bound * ball.radius / spec.outer_resolution
    spans = [(intervals[0][0], -extent), (intervals[-1][1], extent)]
    for (a_lo, a_hi), (b_lo, b_hi) in zip(intervals, intervals[1:]):
        midpt = 0.5 * (a_hi + b_lo)
        spans += [(a_hi, midpt), (midpt, b_lo)]
    outer_cells = [_split_edges_at(edges, breakpoints) for edges in (
        graded_edges(near, far, h0, block=spec.outer_resolution) for near, far in spans)
        if edges[-1] - edges[0] > 0]

    def shifted_integral(edges):
        """The cell rule over ``edges`` of exp(log-integrand - top), top the
        largest finite log-integrand at the midpoints (each evaluated once)."""
        mids = 0.5 * (edges[:-1] + edges[1:])
        logs = log_integrand(mids)
        top = np.max(np.where(np.isfinite(logs), logs, -math.inf), axis=1)
        top = np.where(np.isfinite(top), top, 0.0)

        def integrand(xs):
            at = np.minimum(np.searchsorted(mids, xs), mids.size - 1)
            hit = mids[at] == xs
            vals = np.take(logs, at, axis=1)        # C order: rows sum as a lone atom's
            if not np.all(hit):
                vals[:, ~hit] = log_integrand(xs[~hit])
            return np.exp(vals - top[:, None])

        return integrate_cells_1d(integrand, edges, wsings), top

    # the cell sets are summed relative to the largest top, so that no exp
    # over- or underflows however large e; a divergent rule's math.inf stays
    parts = [[shifted_integral(edges) for edges in cells] for cells in (inner_cells, outer_cells)]
    shift = np.max([top for part in parts for _, top in part], axis=0)
    with np.errstate(invalid="ignore"):
        inner, outer = (sum((np.where(np.isinf(v), v, v * np.exp(top - shift)) for v, top in part),
                            np.zeros(len(atoms))) for part in parts)

    # decay-form tail estimate beyond the truncation: w^s grows like |x|^wexp,
    # the sum of the factors' power exponents (log factors are 1 out there)
    d = atoms[0].params.d
    decay = e * (n + d + 1 - profile.alpha)
    radial = radial_factors(norm_weight)
    wexp = sum(p.exponent for _, p in radial[1]) * sw if radial else 0.0
    tail_exp = -decay + wexp
    if tail_exp < -1.0:
        at_edge = np.exp(log_integrand(np.array([extent]))[:, 0] - shift)
        tail = 2.0 * at_edge * extent / (-tail_exp - 1.0)
    else:
        tail = np.full(len(atoms), math.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        norm, scale = np.exp((np.log(inner + outer) + shift) / e), np.exp(shift)
        # a part that underflows against a shift past the float range is 0, not 0 * inf
        return (norm, *(np.where(v == 0.0, 0.0, v * scale) for v in (inner, outer, tail)))


def _compatibility_audit(w, family) -> AuditItem:
    comp, detail = check_matrix_compatibility(w, family)
    return AuditItem("w(A_j x) <= C w(x)", comp, detail is None, detail or "")


def _thm_zero_audits(w, family, spec):
    from .atoms import atom_class

    a_infinity, thresh, d_min, d = atom_class(w, spec.p, spec.d)
    audits = [a_infinity, _compatibility_audit(w, family)]
    singular = family.singular_differences()
    detail = ""
    if singular:
        i, j, cond = singular[-1]
        detail = f"A_{i} - A_{j} has condition number {cond:.3e}"
    audits.append(AuditItem("pairwise differences invertible", not singular,
                            not singular, detail))
    audits.append(AuditItem("p in (0, 1]", spec.p, 0.0 < spec.p <= 1.0))
    audits.append(AuditItem("p0 above the atomic threshold", spec.p0,
                            spec.p0 > thresh, f"threshold {thresh:.4g}"))
    return audits, d_min, d


def _thm_positive_audits(w, profile, family, spec):
    n = w.dimension
    fam_balls = default_ball_family(w.dimension)
    audits = []
    if spec.s is None or not (0.0 < spec.s < 1.0):
        audits.append(AuditItem("s in (0, 1)", spec.s if spec.s is not None else "missing",
                                False))
        return audits, None, None
    audits.append(AuditItem("s in (0, 1)", spec.s, True))
    audits.append(AuditItem("p in [s, 1]", spec.p, spec.s <= spec.p <= 1.0))
    try:
        aux = weight_power(w, n / ((n - profile.alpha) * spec.s))
        a1 = estimate_A1_constant(aux, fam_balls)
        audits.append(_class_audit("w^{n/((n-alpha)s)} in A_1", a1))
    except ValueError as exc:
        audits.append(AuditItem("w^{n/((n-alpha)s)} in A_1", "not a weight", False,
                                str(exc)))
    idx = critical_indices(w)
    ratio = idx.rh_conjugate()
    audits.append(AuditItem("r_w/(r_w - 1) < n/alpha", ratio,
                            ratio < n / profile.alpha,
                            f"reverse Holder index {idx.rh_critical:.4g}"))
    audits.append(_compatibility_audit(w, family))
    audits.append(AuditItem("p0 inside (r_w/(r_w-1), n/alpha)", spec.p0,
                            ratio < spec.p0 < n / profile.alpha))
    # the A_1 audit above makes w^p, the atoms' weight, an A_1 weight: q = 1
    d_min = max(0, math.floor(n * (1.0 / spec.p - 1.0)))
    d = spec.d if spec.d is not None else derived_degree(d_min, spec.p)
    return audits, d_min, d


def run_theorem_campaign(kind: str, w, profile: ExponentProfile, family: MatrixFamily,
                         spec: CampaignSpec, jobs: int = 1) -> VerificationReport:
    """Uniform-atom-bound campaign for the zero-order and positive-order theorems.

    kind "thm-zero": atoms for w itself, target norm L^p_w.
    kind "thm-positive": atoms for w^p, target norm L^q_{w^q} with
    1/q = 1/p - alpha/n (the Riesz-potential corollary is the m = 1 identity
    case of the same pipeline).
    Raises ConfigError at ``campaign`` when an atom's truncated line reaches
    MAX_EXTENT, before any audit runs, and HypothesisFailed when any audited
    hypothesis is violated, the moment degree included.
    """
    n = w.dimension
    if kind not in ("thm-zero", "thm-positive"):
        raise ValueError("kind must be 'thm-zero' or 'thm-positive'")
    from .atoms import AtomParams, AtomSampler, degree_audit, sample_atom_campaign

    sampler = AtomSampler(tuple(np.asarray(c, dtype=float) for c in spec.centers),
                          tuple(spec.radii))
    for i in range(min(spec.count, len(spec.centers) * len(spec.radii))):
        extent = _truncation_extent(_expanded_intervals(sampler.ball(i), family),
                                    spec.outer_octaves)
        if not extent < MAX_EXTENT:
            raise ConfigError("campaign", f"the truncated line reaches {extent:.3g}, where "
                              f"squared distances overflow (limit {MAX_EXTENT:.3g})")

    if kind == "thm-zero":
        if profile.alpha != 0.0:
            raise ValueError("the zero-order campaign needs alpha = 0")
        audits, d_min, d = _thm_zero_audits(w, family, spec)
        atom_weight = w
        norm_weight, weight_exponent, norm_exponent = w, 1.0, spec.p
        q = spec.p
    else:
        if profile.alpha <= 0.0:
            raise ValueError("the positive-order campaign needs alpha > 0")
        audits, d_min, d = _thm_positive_audits(w, profile, family, spec)
        atom_weight = weight_power(w, spec.p) if spec.p != 1.0 else w
        q = 1.0 / (1.0 / spec.p - profile.alpha / n)
        norm_weight, weight_exponent, norm_exponent = w, q, q

    if d_min is not None:  # None only when an item above has failed
        audits.append(degree_audit(d, d_min))
    require_hypotheses(audits)
    params = AtomParams(spec.p, spec.p0, d, atom_weight, n)
    atoms = sample_atom_campaign(params, sampler, spec.count, spec.seed)

    # one task per ball, in order of first appearance; rows return in atom order
    groups = {}
    for i, atom in enumerate(atoms):
        key = (atom.ball.center.tobytes(), atom.ball.radius)
        groups.setdefault(key, []).append(i)
    tasks = [([atoms[i] for i in members], profile, family, norm_weight, weight_exponent,
              norm_exponent, spec) for members in groups.values()]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as ex:
            ball_rows = list(ex.map(_campaign_worker, tasks))
    else:
        ball_rows = [_campaign_worker(task) for task in tasks]
    rows = [None] * len(atoms)
    for members, group_rows in zip(groups.values(), ball_rows):
        for i, row in zip(members, group_rows):
            rows[i] = row

    by_radius = {}
    for row in rows:
        by_radius.setdefault(row["radius"], []).append(row["norm"])
    radius_max = {r: _at_worst(v) for r, v in by_radius.items()}
    drift = _drift(list(radius_max.values()))
    max_norm = _at_worst([r["norm"] for r in rows])
    finite = all(math.isfinite(r["norm"]) for r in rows)
    verdict = "pass" if (finite and drift < STABILITY_FACTOR) else "fail"

    extras = {"q": q, "d": d, "atom_weight": weight_to_dict(atom_weight),
              "inner_share": sum(r["inner"] for r in rows)
              / max(sum(r["inner"] + r["outer"] for r in rows), RATIO_FLOOR)}
    if kind == "thm-zero" and rows:
        # spot check: the zero-order operator maps the first atom into L^{p0}
        flat = PowerWeight(0.0, n)
        norm0 = _ball_norm_split([atoms[0]], profile, family, flat, 1.0, spec.p0, spec)[0]
        extras["lp0_spot_check"] = float(norm0[0])

    return VerificationReport(
        f"theorem-{'thm1' if kind == 'thm-zero' else 'ta'}", verdict, max_norm, audits,
        stability={"max_by_radius": {str(k): v for k, v in radius_max.items()},
                   "drift": drift},
        sample=spec.to_dict(),
        witnesses=rows,
        extras=extras,
        provenance={"seed": spec.seed,
                    "config_hash": config_hash({"kind": kind, "w": weight_to_dict(w),
                                                "alpha": profile.alpha,
                                                "spec": spec.to_dict()})})


def _campaign_worker(args):
    """The witness rows of one ball's atoms, in their order (serial and
    process-pool runs)."""
    atoms, profile, family, norm_weight, weight_exponent, norm_exponent, spec = args
    splits = _ball_norm_split(atoms, profile, family, norm_weight, weight_exponent,
                              norm_exponent, spec)
    return [{"center": atom.ball.center.tolist(), "radius": atom.ball.radius,
             "seed": atom.seed, "norm": float(v), "inner": float(i), "outer": float(o),
             "tail_bound": float(t)}
            for atom, v, i, o, t in zip(atoms, *splits)]
