"""Construction, validation and sampling of weighted Hardy-space atoms.

An atom for the weight w with parameters (p, p0, d) is supported in a ball
B = B(x0, r), obeys the size bound ||a||_{p0} <= |B|^{1/p0} w(B)^{-1/p},
and has vanishing moments against every monomial of degree at most d.
``atom_class`` is the one place that derives the admissible (p0, d) from
the weight's critical indices, with the A_infinity audit they rest on; the
theorem and pointwise checks and ``atoms gen`` all read it.

Atoms are built from seeded random polynomials in the centred, radius-scaled
variable u = (y - x0) / r: the moment conditions are enforced by the
orthogonal projection in the unweighted L^2 inner product on the unit ball,
in closed form from the ball's monic orthogonal polynomials, and the size
bound is then saturated by scaling.  Saturation is deliberate: the
verification campaigns stress the uniform operator bounds hardest at the
norm ceiling.

Both read ||a||_{p0} exactly (``_p0_norm``), and ``validate_atom`` reads
the moments against ((y - x0) / r)^beta as exact integer ratios
(``operators._polynomial_moments``, which the far field shares), so it
checks what ``construct_atom`` built independently of any quadrature
scheme; only a plane atom at p0 != 2 still takes cells.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import product as _iterproduct

import numpy as np

from .errors import AuditItem, ConfigError, DegenerateProfile
from .geometry import Ball
from .quadrature import gauss_jacobi, lebesgue_ball
from .operators import PolynomialProfile, SampledFunction, _polynomial_moments
from .records import asdict, record
from .rng import PCG64, generate_state
from .weights import AP_CAP, critical_indices, weight_to_dict, weighted_measure

A2_REL_TOL = 1e-8
MOMENT_REL_TOL = 1e-10
DEGENERACY_TOL = 1e-12


# ---------------------------------------------------------------------------
# Orthogonal polynomials of the unit ball
# ---------------------------------------------------------------------------


def multiindices(dimension: int, max_degree: int):
    """All multi-indices in ``dimension`` variables of total degree <= max_degree."""
    return sorted((k for k in _iterproduct(range(max_degree + 1), repeat=dimension)
                   if sum(k) <= max_degree), key=lambda k: (sum(k), k))


@lru_cache(maxsize=None)
def _monic_ball_polynomial(alpha: tuple):
    """The monic orthogonal polynomial V_alpha = u^alpha + (lower degree) of
    the unit ball in n = len(alpha) variables for Lebesgue measure, which is
    orthogonal to every polynomial of degree < |alpha| (Dunkl & Xu,
    Orthogonal Polynomials of Several Variables, 2001; on the line the monic
    Legendre polynomials), as (multi-index, coefficient) pairs:
    V_alpha = sum_{gamma <= alpha / 2} (-alpha)_{2 gamma} u^(alpha - 2 gamma)
    / (4^|gamma| gamma! ((2 - n) / 2 - |alpha|)_|gamma|), each coefficient
    one integer ratio rounded once."""
    n, m = len(alpha), sum(alpha)
    out = []
    for gamma in _iterproduct(*(range(a // 2 + 1) for a in alpha)):
        g = sum(gamma)
        num = math.prod(math.perm(a, 2 * c) for a, c in zip(alpha, gamma))
        den = (2**g * math.prod(math.factorial(c) for c in gamma)
               * math.prod(2 - n - 2 * m + 2 * j for j in range(g)))
        out.append((tuple(a - 2 * c for a, c in zip(alpha, gamma)), num / den))
    return tuple(out)


def project_away_moments(coeffs: dict, d: int, dimension: int) -> dict:
    """Subtract the L^2 projection on the unit ball onto polynomials of
    degree <= d from sum_alpha m_alpha u^alpha, of degree at most d + 2: the
    residual is sum_{|alpha| > d} m_alpha V_alpha (``_monic_ball_polynomial``),
    as V_alpha - u^alpha has degree <= d and V_alpha is orthogonal to it.
    No system is solved; the keys come out in ``multiindices`` order."""
    out = dict.fromkeys(multiindices(dimension, d + 2), 0.0)
    for alpha, m in coeffs.items():
        if sum(alpha) > d:
            for key, v in _monic_ball_polynomial(alpha):
                out[key] += m * v
    return out


# ---------------------------------------------------------------------------
# Parameters and the atom class
# ---------------------------------------------------------------------------


@record(frozen=True)
class AtomParams:
    """Exponents and weight defining one atom class."""

    p: float
    p0: float
    d: int
    weight: object
    dimension: int

    def __post_init__(self):
        if not (0.0 < self.p <= 1.0):
            raise ValueError("atom exponent p must lie in (0, 1]")
        if not (self.p0 > 1.0 and math.isfinite(self.p0)):
            raise ValueError("atom exponent p0 must be finite and exceed 1")
        if self.d < 0:
            raise ValueError("moment degree d must be nonnegative")

    def to_dict(self) -> dict:
        return {"p": self.p, "p0": self.p0, "d": self.d,
                "weight": weight_to_dict(self.weight), "dimension": self.dimension}


def atom_class(w, p: float, d: int | None):
    """``(audit, p0_lower, d_min, d)`` for (p, p0, d)-atoms of ``w``, from
    ``critical_indices``:

    - ``audit``, the A_infinity audit item, failed when w is in no A_q up
      to ``weights.AP_CAP`` (``require_hypotheses`` raises it);
    - ``p0_lower``, the open lower end max(1, p r_w / (r_w - 1)) for p0
      (``CriticalIndices.rh_conjugate``);
    - ``d_min``, the least moment degree floor(n (q_w / p - 1)), exact on
      the floats q_w and p (integer ratios); None when the audit fails;
    - ``d``, the given degree, or else ``d_min`` within ``config.MAX_DEGREE``
      (past it the config is refused at ``atom.p``).
    """
    idx = critical_indices(w)
    finite = math.isfinite(idx.q_critical)
    audit = AuditItem("weight in A_infinity (finite Muckenhoupt index)", idx.q_critical,
                      finite, "" if finite else f"q_critical = inf (no A_q up to {AP_CAP:g})")
    d_min = None
    if finite:
        (qn, qd), (pn, pd) = idx.q_critical.as_integer_ratio(), float(p).as_integer_ratio()
        d_min = max(0, w.dimension * (qn * pd - pn * qd) // (qd * pn))
    if d is None and finite:
        from .config import derived_degree  # see atom_from_record

        d = derived_degree(d_min, p)
    return audit, max(1.0, p * idx.rh_conjugate()), d_min, d


def degree_audit(d: int, d_min: int) -> AuditItem:
    return AuditItem("moment degree at least the minimal degree", d, d >= d_min,
                     f"required {d_min}")


def class_audits(w, p: float, d: int | None):
    """``(audits, d)`` from one ``atom_class`` call: the A_infinity audit and,
    once it passes, ``degree_audit``."""
    audit, _, d_min, d = atom_class(w, p, d)
    return [audit] + ([] if d_min is None else [degree_audit(d, d_min)]), d


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------


@record(frozen=True, eq=False)
class Atom:
    ball: Ball
    profile: PolynomialProfile
    params: AtomParams
    seed: int | None = None

    def __post_init__(self):
        if not isinstance(self.profile, PolynomialProfile):
            raise TypeError("an atom's profile must be a PolynomialProfile")

    def function(self) -> SampledFunction:
        return SampledFunction(self.ball, self.profile)

    def to_record(self) -> dict:
        return {"ball": self.ball.to_dict(), "profile": self.profile.to_dict(),
                "params": self.params.to_dict(), "seed": self.seed}


def atom_from_record(rec: dict, path: str = "record") -> Atom:
    """The atom of a manifest record; a malformed field raises ConfigError
    naming its path under ``path``."""
    # imported here, so a process that only builds atoms loads no config
    from .config import _ball_fields, _expect, _get, _integer, _number, build_weight

    ppath = f"{path}.params"
    pp = _get(rec, "params", path)
    n = _integer(pp, "dimension", ppath)
    _expect(n in (1, 2), f"{ppath}.dimension", "only dimensions 1 and 2 are supported")
    ball = Ball(*_ball_fields(_get(rec, "ball", path), n, f"{path}.ball"))
    coeffs = _get(_get(rec, "profile", path), "coeffs", f"{path}.profile")
    weight = build_weight(_get(pp, "weight", ppath), n, path=f"{ppath}.weight")
    p, p0, d = _number(pp, "p", ppath), _number(pp, "p0", ppath), _integer(pp, "d", ppath)
    try:
        return Atom(ball, PolynomialProfile({tuple(k): v for k, v in coeffs}),
                    AtomParams(p, p0, d, weight, n), rec.get("seed"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc))


def write_atom_manifest(atoms, path):
    with open(path, "w") as fh:
        for a in atoms:
            fh.write(json.dumps(a.to_record(), sort_keys=True) + "\n")


def read_atom_manifest(path):
    """The atoms of a JSON-lines manifest; a missing file or a malformed line
    raises ConfigError naming the line and field."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError("(manifest)", f"manifest file not found: {path}")
    out = []
    for i, line in enumerate(lines, 1):
        if line.strip():
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"manifest line {i}", f"invalid JSON: {exc}")
            out.append(atom_from_record(rec, f"manifest line {i}"))
    return out


def _norm_bound(ball: Ball, params: AtomParams) -> float:
    vol = lebesgue_ball(ball.dimension, ball.radius)
    wb = weighted_measure(params.weight, 1.0, ball)
    try:
        bound = vol ** (1.0 / params.p0) * wb ** (-1.0 / params.p)
    except (OverflowError, ZeroDivisionError):
        bound = math.inf
    # a w(B) that under- or overflows would scale the atom by 0 or inf
    if not (0.0 < wb < math.inf and 0.0 < bound < math.inf):
        raise DegenerateProfile(f"the size bound of the ball of radius {ball.radius:g} "
                                f"is not a positive finite float (w(B) = {wb:g})")
    return bound


def polynomial_zeros(coeffs) -> np.ndarray:
    """The complex zeros of sum_k coeffs[k] u^k (coeffs[-1] != 0), all at
    once by Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973) from a
    circle of radius |coeffs[0] / coeffs[-1]|^(1/n), the zeros' geometric
    mean.  A zero stops moving once |p(z)| is within 4 eps of
    sum_k |c_k| |z|^k, its rounding level, and all stop after 64 steps.  The
    iteration runs in long double (a 64-bit mantissa on x86), which takes a
    degree-18 atom's zeros from ~1e-12 to ~1e-15 off.  A zero whose
    imaginary part is at most 1e-12 max(1, |z|) is returned real.  No LAPACK
    runs."""
    a = np.asarray(coeffs, dtype=np.longdouble) / np.longdouble(coeffs[-1])
    n = a.size - 1
    radius = abs(a[0]) ** (1.0 / n) if n and a[0] else 1.0
    z = radius * np.exp(1j * (2.0 * np.pi * np.arange(n, dtype=np.longdouble) + 0.5) / n)
    off_diagonal = ~np.eye(n, dtype=bool)
    for _ in range(64 if n else 0):
        p, dp, size, modulus = np.zeros_like(z), np.zeros_like(z), np.zeros(n, a.dtype), abs(z)
        for c in a[::-1]:
            p, dp, size = p * z + c, dp * z + p, size * modulus + abs(c)
        moving = abs(p) > 4.0 * np.finfo(np.longdouble).eps * size
        if not moving.any():
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = p / dp
            pull = np.sum(np.where(off_diagonal, 1.0 / (z[:, None] - z), 0.0), axis=1)
            step = ratio / (1.0 - ratio * pull)
        z = np.where(moving & np.isfinite(step), z - step, z)
    z = z.astype(complex)
    real = abs(z.imag) <= 1e-12 * np.maximum(1.0, abs(z))
    return np.where(real, z.real + 0j, z)


def _p0_norm(profile: PolynomialProfile, ball: Ball, p0: float) -> float:
    """||a||_{p0} over the ball for a = profile.  At p0 = 2, a Gauss rule
    exact for a^2 on [-1, 1] or, in polar coordinates, on the unit disk, so
    no digit is lost to cancellation; at other p0, on the line, the
    whole-line rule over [-1, 1] of prod_k |u - z_k|^p0 at the zeros z_k
    (``polynomial_zeros``) times |c|^p0 for the leading coefficient c, in
    logarithms; in the plane, cells at ``quadrature.default_scheme(2)`` of
    |a| over its largest sample raised to p0, so that no power over- or
    underflows (a first pass of the same cells finds that sample)."""
    n, degree = ball.dimension, profile.degree()
    if not profile.coeffs:
        return 0.0
    if p0 == 2.0:
        t, logw = gauss_jacobi(degree + 1, 0.0, n - 1.0)
        pts, wts = t[:, None], np.exp(logw)
        if n == 2:
            # radii (1 + t) / 2, whose rule's weight 1 + t is the polar
            # Jacobian, on 2 degree + 1 equal angles
            turn = np.exp(2j * math.pi * np.arange(2 * degree + 1) / (2 * degree + 1))
            z = np.outer(0.5 * (1.0 + t), turn).ravel()
            pts = np.column_stack([z.real, z.imag])
            wts = np.repeat(wts * (math.pi / (2.0 * turn.size)), turn.size)
        vals = profile.eval(Ball(np.zeros(n), 1.0), pts)
        big = float(np.max(np.abs(vals)))
        return big * math.sqrt(float(np.sum(wts * (vals / big) ** 2))) * ball.radius ** (n / 2.0)
    if n == 2:
        from .quadrature import integrate_ball

        fn, samples = SampledFunction(ball, profile), []
        integrate_ball(lambda pts: samples.append(np.abs(fn.eval(pts))) or samples[-1], ball)
        big = max(float(np.max(v, initial=0.0)) for v in samples)
        replay = iter(samples)
        return big * integrate_ball(lambda pts: (next(replay) / big) ** p0, ball) ** (1.0 / p0)
    from .line_integral import log_line_integral
    from .quadrature import PowerProfile

    coeffs = [profile.coeffs.get((k,), 0.0) for k in range(degree + 1)]
    power = PowerProfile(p0)
    log_int = log_line_integral([(z, power) for z in polynomial_zeros(coeffs)], -1.0, 1.0)[0]
    return math.exp(math.log(abs(coeffs[-1])) + (math.log(ball.radius) + log_int) / p0)


def construct_atom(ball: Ball, params: AtomParams, seed: int) -> Atom:
    """Seeded random polynomial of degree d+2, projected and saturated.

    The coefficients, in ``multiindices`` order, are uniform on [-1, 1):
    the draws of numpy's ``default_rng(seed).uniform(-1.0, 1.0)``, taken
    from ``rng.PCG64``.  The remaining degrees of freedom after the moment projection are the
    interesting ones; a residual below the degeneracy tolerance raises
    DegenerateProfile so the caller can resample.
    """
    n = params.dimension
    rng = PCG64(seed)
    keys = multiindices(n, params.d + 2)
    raw = {k: rng.uniform(-1.0, 1.0) for k in keys}
    prof = PolynomialProfile(project_away_moments(raw, params.d, n))
    unit = Ball(np.zeros(n), 1.0)
    if _p0_norm(prof, unit, 2.0) < DEGENERACY_TOL * _p0_norm(PolynomialProfile(raw), unit, 2.0):
        raise DegenerateProfile(f"projection annihilated the seed-{seed} profile")
    norm = _p0_norm(prof, ball, params.p0)
    if norm <= 0.0:
        raise DegenerateProfile(f"seed-{seed} profile has zero norm")
    target = _norm_bound(ball, params)
    return Atom(ball, prof.scaled(target / norm), params, seed)


@record
class AtomValidation:
    passed: bool
    support_ok: bool
    size_ok: bool
    size_margin: float       # (bound - norm) / bound, >= -tolerance when ok
    moments_ok: bool
    moment_margins: dict     # beta -> |moment| / tolerance
    norm: float
    bound: float

    def to_dict(self) -> dict:
        return {"passed": self.passed, "support_ok": self.support_ok,
                "size_ok": self.size_ok, "size_margin": self.size_margin,
                "moments_ok": self.moments_ok,
                "moment_margins": {str(list(k)): v for k, v in self.moment_margins.items()},
                "norm": self.norm, "bound": self.bound}


def validate_atom(atom: Atom) -> AtomValidation:
    """Check support, the size bound and the vanishing moments.

    The norm is ``_p0_norm``'s.  The moments are those against
    ((y - x0) / r)^beta, |beta| <= d, which span the same polynomials as
    y^beta: r^n times the exact unit-ball moments of the stored polynomial,
    with no off-centre binomial expansion.  Each must be at most
    MOMENT_REL_TOL norm r^{n (1 - 1/p0)}, so validation is dilation stable.
    """
    params = atom.params
    n = params.dimension
    norm = _p0_norm(atom.profile, atom.ball, params.p0)
    bound = _norm_bound(atom.ball, params)
    size_ok = norm <= bound * (1.0 + A2_REL_TOL)

    r = atom.ball.radius
    betas = tuple(multiindices(n, params.d))
    moments = r**n * _polynomial_moments(tuple(atom.profile.coeffs.items()), betas)
    tol = MOMENT_REL_TOL * norm * r ** (n * (1.0 - 1.0 / params.p0))
    margins = {beta: abs(mom) / tol if tol > 0 else math.inf
               for beta, mom in zip(betas, moments.tolist())}
    moments_ok = bool(np.all(np.abs(moments) <= tol))
    return AtomValidation(size_ok and moments_ok, True, size_ok,
                          (bound - norm) / bound, moments_ok, margins, norm, bound)


@record(frozen=True, eq=False)
class AtomSampler:
    """Deterministic campaign lattice: centers crossed with dyadic radii."""

    centers: tuple
    radii: tuple

    def ball(self, i: int) -> Ball:
        c = self.centers[i % len(self.centers)]
        r = self.radii[(i // len(self.centers)) % len(self.radii)]
        return Ball(c, r)


@record(frozen=True)
class CampaignSpec:
    """Atom sampling and integration lattice for a theorem campaign."""

    count: int = 50
    seed: int = 0
    centers: tuple = ((0.0,), (1.0,), (-2.0,))
    radii: tuple = (0.25, 1.0, 4.0)
    p: float = 1.0
    p0: float = 2.0
    s: float | None = None          # only for the positive-order theorem
    d: int | None = None            # None derives the minimal degree
    outer_octaves: int = 8
    inner_resolution: int = 256
    outer_resolution: int = 64

    def to_dict(self) -> dict:
        return asdict(self)


def derive_seed(campaign_seed: int, index: int, retry: int = 0) -> int:
    """The seed of atom ``index`` at resampling attempt ``retry``: the first
    word of numpy's SeedSequence over the three integers (``rng``)."""
    return generate_state((campaign_seed, index, retry), 1)[0]


def sample_atom_campaign(params: AtomParams, sampler: AtomSampler, count: int,
                         seed: int, max_retries: int = 8) -> list:
    """``count`` validated atoms on the lattice of the sampler, reproducible by seed."""
    if count < 1:
        raise ValueError("campaign needs at least one atom")
    atoms = []
    for i in range(count):
        ball = sampler.ball(i)
        for retry in range(max_retries):
            try:
                atoms.append(construct_atom(ball, params, derive_seed(seed, i, retry)))
                break
            except DegenerateProfile as exc:
                last = exc
        else:
            raise DegenerateProfile(f"atom {i}: {max_retries} resampling attempts were all "
                                    f"degenerate (last: {last})")
    return atoms
