"""Seeded invariant battery behind the `verify` CLI command.

Each check exercises one contract of the library on a small corpus and
returns pass/fail with a detail string.  Two checks encode the idealized
conditioned-law behavior of the repelling family; they are expected to
fail (the midpoint lattice weights provably differ from the conditioned
limit law at occupancy 2, see the lattice module docstring) and are
reported as such without affecting the exit status unless strict mode is
requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import compare, factors, lattice, measures, oracle, stein
from .size_bias import CouplingSpec, size_bias, sum_size_bias

EXPECTED_FAIL = {
    "repelling_conditioning_exactness",
    "repelling_closed_form_dominance",
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _random_measure(rng: np.random.Generator, max_support: int = 40) -> measures.GibbsMeasure:
    n = int(rng.integers(3, max_support + 1))
    weights = rng.uniform(0.05, 1.0, size=n + 1)
    omega = float(rng.uniform(0.2, 5.0))
    return measures.from_pmf(weights, omega=omega)


def _standard_measures() -> list[measures.GibbsMeasure]:
    return [
        measures.poisson(1.0),
        measures.poisson(5.0),
        measures.binomial(10, 0.3),
        measures.geometric(0.4),
        measures.discrete_uniform(6),
        measures.negative_binomial(2.0, 0.45),
        measures.hypergeometric(20, 6, 7),
    ]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_normalization_and_cumulatives(rng) -> tuple[bool, str]:
    worst = 0.0
    for m in _standard_measures():
        t = m.cumulatives()
        worst = max(
            worst,
            abs(sum(m.pmf) - 1.0),
            abs(t.F[-1] - 1.0),
            abs(t.Fbar[0] - 1.0),
            max(
                (abs(t.F[k] + t.Fbar[k + 1] - 1.0) for k in range(m.support_max)),
                default=0.0,
            ),
        )
    return worst <= 1e-12, f"max cumulative defect {worst:.2e}"


def check_detailed_balance(rng) -> tuple[bool, str]:
    worst = 0.0
    for m in _standard_measures():
        pmf, b = m.pmf, m.birth_rates
        for k in range(m.support_max):
            lhs, rhs = pmf[k] * b[k], pmf[k + 1] * (k + 1)
            worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
    return worst <= 1e-12, f"max relative balance defect {worst:.2e}"


def check_reparametrization(rng) -> tuple[bool, str]:
    worst = 0.0
    for m in [measures.poisson(2.0), measures.geometric(0.3), _random_measure(rng)]:
        rr = factors.rate_range(m)
        for alpha in (0.1, 2.0, 10.0):
            m2 = m.reparametrized(alpha)
            worst = max(worst, float(np.max(np.abs(m2.pmf - m.pmf))))
            worst = max(
                worst,
                float(
                    np.max(
                        np.abs(m2.birth_rates - m.birth_rates)
                        / np.maximum(m.birth_rates, 1e-300)
                    )
                ),
            )
            rr2 = factors.rate_range(m2)
            if math.isfinite(rr.sup_rate):
                worst = max(worst, abs(rr2.sup_rate - rr.sup_rate) / max(rr.sup_rate, 1.0))
            worst = max(worst, abs(rr2.inf_rate - rr.inf_rate) / max(rr.inf_rate, 1.0))
    return worst <= 1e-12, f"max reparametrization drift {worst:.2e}"


def check_pmf_roundtrip(rng) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(5):
        m = _random_measure(rng)
        m2 = measures.from_pmf(m.pmf, omega=m.omega)
        worst = max(worst, float(np.max(np.abs(m2.pmf - m.pmf))))
        m3 = measures.GibbsMeasure.from_json(m.to_json())
        if m3.omega != m.omega or not np.array_equal(m3.V, m.V):
            return False, "serialization round trip is not value-exact"
    return worst <= 1e-12, f"max roundtrip drift {worst:.2e}"


def check_stein_residual(rng) -> tuple[bool, str]:
    worst = 0.0
    for m in [measures.poisson(1.0), measures.geometric(0.4), measures.binomial(10, 0.3)]:
        for _ in range(10):
            f = rng.uniform(0.0, 1.0, m.support_max + 1)
            sol = stein.solve(m, f)
            res = max(abs(sol.residual(k)) for k in range(m.support_max + 1))
            worst = max(worst, res)
    return worst <= 1e-10, f"max residual {worst:.2e}"


def check_forward_backward(rng) -> tuple[bool, str]:
    # The two partial-sum routes are identical in exact arithmetic; in
    # doubles the comparison is meaningful where j*pmf(j) is not tiny
    # (elsewhere the forced route divides a rounding-level sum by a
    # vanishing mass).  The exact identity has its own rational oracle in
    # the test suite.
    worst = 0.0
    for m in [measures.poisson(2.0), measures.geometric(0.5)]:
        f = rng.uniform(0.0, 1.0, m.support_max + 1)
        gf = stein.solve(m, f, method="forward").g
        gb = stein.solve(m, f, method="backward").g
        for j in range(1, m.support_max + 1):
            if j * m.pmf[j] >= 1e-5:
                worst = max(worst, abs(gf[j] - gb[j]) / max(1.0, abs(gf[j])))
    return worst <= 1e-10, f"max forward/backward gap {worst:.2e}"


def check_linearity(rng) -> tuple[bool, str]:
    m = measures.poisson(1.5)
    f1 = rng.uniform(0.0, 1.0, m.support_max + 1)
    f2 = rng.uniform(0.0, 1.0, m.support_max + 1)
    worst = 0.0
    for alpha in (0.0, 0.3, 0.7, 1.0):
        mix = stein.solve(m, alpha * f1 + (1 - alpha) * f2).g
        combo = alpha * stein.solve(m, f1).g + (1 - alpha) * stein.solve(m, f2).g
        worst = max(worst, float(np.max(np.abs(mix - combo))))
    return worst <= 1e-12, f"max linearity defect {worst:.2e}"


def check_characterization(rng) -> tuple[bool, str]:
    worst = 0.0
    for m in [measures.poisson(2.0), measures.binomial(8, 0.6)]:
        for _ in range(10):
            g = rng.uniform(-1.0, 1.0, m.support_max + 2)
            worst = max(worst, abs(stein.stationarity_defect(m, g)))
    return worst <= 1e-10, f"max stationarity defect {worst:.2e}"


def check_increment_exactness(rng) -> tuple[bool, str]:
    worst = 0.0
    for m in [measures.poisson(1.0), measures.geometric(0.5), measures.binomial(10, 0.3)]:
        if not factors.condition(m, "rate_sandwich").holds:
            return False, f"sandwich condition unexpectedly fails for {m.label()}"
        exact_inc = stein.sup_increment_table(m).tolist()
        for j in range(1, min(m.support_max, 25) + 1):
            exact = exact_inc[j - 1]
            formula = factors.increment_bound(m, j)[0].value
            worst = max(worst, abs(exact - formula))
    return worst <= 1e-10, f"max identity gap {worst:.2e}"


def check_extremal_attainment(rng) -> tuple[bool, str]:
    worst = 0.0
    m = measures.poisson(2.0)
    exact_inc = stein.sup_increment_table(m).tolist()
    for j in (1, 2, 5, 8):
        f_star = oracle.extremal_indicator(m, j, "increment")
        sol = stein.solve(m, f_star)
        attained = abs(sol.g[j + 1] - sol.g[j])
        worst = max(worst, abs(attained - exact_inc[j - 1]))
    return worst <= 1e-10, f"max attainment gap {worst:.2e}"


def check_closed_form_suprema(rng) -> tuple[bool, str]:
    # the supremum tables against the box supremum of the explicit coefficients,
    # over B and over B0 at two support bounds
    worst = 0.0
    for m in _standard_measures():
        n = m.support_max
        for s in (None, n // 2, 1):
            solution = stein.sup_solution_table(m, s).tolist()
            increment = stein.sup_increment_table(m, s).tolist()
            for j in range(1, n + 1):
                for closed, coeffs in (
                    (solution[j - 1], oracle.solution_coefficients(m, j)),
                    (increment[j - 1], oracle.increment_coefficients(m, j)),
                ):
                    ref, _ = oracle._box_supremum(coeffs, s)
                    worst = max(worst, abs(closed - ref) / max(ref, 1e-300))
    return worst <= 1e-12, f"max relative gap {worst:.2e}"


def check_certificate_dominance(rng) -> tuple[bool, str]:
    margin = math.inf
    for m in _standard_measures():
        exact_norm = stein.sup_solution_norm(m)
        cert = factors.supnorm_bound(m)
        if cert.applicable:
            margin = min(margin, cert.value - exact_norm)
        exact_sol = stein.sup_solution_table(m).tolist()
        exact_incs = stein.sup_increment_table(m).tolist()
        for j in (1, 2, 3):
            if j > m.support_max:
                continue
            exact_inc = exact_incs[j - 1]
            ex, simple = factors.increment_bound(m, j)
            if ex.licensed:
                margin = min(margin, ex.value - exact_inc, simple.value - exact_inc)
            sb = factors.solution_bound(m, j)
            if sb.licensed:
                margin = min(margin, sb.value - exact_sol[j - 1])
    return margin >= -1e-10, f"min dominance margin {margin:.2e}"


def check_size_bias_identity(rng) -> tuple[bool, str]:
    worst = 0.0
    for m in [measures.poisson(1.0), measures.binomial(6, 0.4)]:
        law = size_bias(m.pmf)
        k = np.arange(m.pmf.size)
        for _ in range(10):
            f = rng.uniform(0.0, 1.0, m.pmf.size)
            lhs = float(np.sum(k * m.pmf * f))
            rhs = law.mean * float(np.sum(law.biased * f))
            worst = max(worst, abs(lhs - rhs))
    return worst <= 1e-12, f"max identity defect {worst:.2e}"


def check_size_bias_structure(rng) -> tuple[bool, str]:
    m = measures.poisson(2.0)
    biased = size_bias(m.pmf).biased
    shift_gap = float(np.max(np.abs(biased[1:] - m.pmf[:-1])))
    point = size_bias(np.array([0.7, 0.3])).biased
    bern_ok = abs(point[1] - 1.0) <= 1e-12
    base = size_bias(np.array([0.5, 0.25, 0.25]))
    dom = all(
        sum(base.biased[k:]) >= sum(base.base[k:]) - 1e-12 for k in range(base.base.size)
    )
    ok = shift_gap <= 1e-12 and bern_ok and dom
    return ok, f"shift gap {shift_gap:.2e}, bernoulli point mass {bern_ok}, dominance {dom}"


def check_sum_construction(rng) -> tuple[bool, str]:
    import itertools

    worst = 0.0
    for _ in range(3):
        p = rng.uniform(0.05, 0.95, size=6)
        spec = CouplingSpec.independent_bernoulli(p)
        law = np.zeros(7)
        for bits in itertools.product((0, 1), repeat=6):
            pr = math.prod(p[i] if b else 1 - p[i] for i, b in enumerate(bits))
            law[sum(bits)] += pr
        direct = size_bias(law).biased
        worst = max(worst, float(np.max(np.abs(sum_size_bias(spec) - direct))))
    return worst <= 1e-12, f"max construction gap {worst:.2e}"


def check_tv_subset_supremum(rng) -> tuple[bool, str]:
    import itertools

    worst = 0.0
    for _ in range(3):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        tv = compare.tv_distance(p, q)
        best = max(
            abs(sum(p[list(s)]) - sum(q[list(s)]))
            for r in range(7)
            for s in itertools.combinations(range(6), r)
        )
        worst = max(worst, abs(tv - best))
    return worst <= 1e-12, f"max subset-supremum gap {worst:.2e}"


def check_conditioning_sharpness(rng) -> tuple[bool, str]:
    worst = 0.0
    laws = [measures.poisson(1.0), measures.geometric(0.4)] + [
        _random_measure(rng, 30) for _ in range(5)
    ]
    for m in laws:
        for n in (1, 2, 4):
            if n >= m.support_max:
                continue
            cond = m.restricted(n)
            tv = compare.tv_distance(cond.pmf, m.pmf)
            tail = float(np.sum(m.pmf[n + 1 :]))
            worst = max(worst, abs(tv - tail))
    return worst <= 1e-12, f"max sharpness defect {worst:.2e}"


def check_comparison_dominance(rng) -> tuple[bool, str]:
    margin = math.inf
    for _ in range(10):
        n = int(rng.integers(5, 30))
        w1 = rng.uniform(0.05, 1.0, n + 1)
        w2 = rng.uniform(0.05, 1.0, n + 1)
        m1 = measures.from_pmf(w1, omega=float(rng.uniform(0.5, 3.0)))
        m2 = measures.from_pmf(w2, omega=float(rng.uniform(0.5, 3.0)))
        rep = compare.generator_comparison_bound(m1, m2)
        margin = min(margin, rep.certified_bound - rep.exact_tv)
        small = m2.restricted(int(rng.integers(2, n)))
        rep2 = compare.generator_comparison_extended(small, m2)
        margin = min(margin, rep2.certified_bound - rep2.exact_tv)
    return margin >= -1e-10, f"min dominance margin {margin:.2e}"


def check_lattice_brute_force(rng) -> tuple[bool, str]:
    worst = 0.0
    for model in [lattice.repelling_model(1.0), lattice.product_model(1.0)]:
        for n in (2, 3, 5):
            if n < model.min_cells:
                continue
            for k in range(2, min(n, 4) + 1):
                closed = model.Wn(n, k)
                brute = oracle.lattice_weight_brute(model, n, k)
                worst = max(worst, abs(closed - brute) / brute)
    return worst <= 1e-10, f"max relative weight gap {worst:.2e}"


def check_product_sandwich(rng) -> tuple[bool, str]:
    ok = True
    for n in range(3, 9):
        for k in range(2, n + 1):
            w = lattice.product_model(1.0).Wn(n, k)
            lo = ((n - 1) / n) ** (k * k) * k ** (-float(k))
            hi = k ** (-float(k))
            ok = ok and lo < w < hi
    return ok, "strict sandwich holds" if ok else "sandwich violated"


def check_product_ratio_sum(rng) -> tuple[bool, str]:
    worst_ratio = 0.0
    model = lattice.product_model(1.0)
    for n in range(3, 9):
        rep = lattice.lattice_comparison_report(model, n)
        cap = 2.0 * math.exp(math.e) / n
        worst_ratio = max(worst_ratio, rep.terms[1] / cap)
    return worst_ratio <= 1.0, f"max ratio-term/cap {worst_ratio:.3f}"


def check_ideal_gas_tail(rng) -> tuple[bool, str]:
    worst = 0.0
    model = lattice.ideal_gas_model(1.0)
    for n in (2, 4, 6):
        rep = lattice.lattice_comparison_report(model, n)
        worst = max(
            worst,
            abs(rep.certified_bound - rep.tail_term),
            abs(rep.exact_tv - rep.tail_term),
        )
    return worst <= 1e-12, f"max reduction defect {worst:.2e}"


def check_repelling_ratio_identity_above_two(rng) -> tuple[bool, str]:
    model = lattice.repelling_model(1.0)
    worst = 0.0
    for n in range(3, 10):
        for k in range(3, n + 1):
            lhs = model.Wn(n, k) / model.Wn(n, k - 1)
            rhs = model.W(k) / model.W(k - 1)
            worst = max(worst, abs(lhs - rhs) / rhs)
    return worst <= 1e-12, f"max ratio gap for k >= 3: {worst:.2e}"


def check_lattice_generator_dominance(rng) -> tuple[bool, str]:
    margin = math.inf
    for model, ns in [
        (lattice.ideal_gas_model(1.0), (2, 5)),
        (lattice.repelling_model(1.0), (2, 5, 8)),
        (lattice.product_model(1.0), (3, 6)),
    ]:
        for n in ns:
            rep = lattice.lattice_comparison_report(model, n)
            margin = min(margin, rep.certified_bound - rep.exact_tv)
    return margin >= -1e-10, f"min generator-bound margin {margin:.2e}"


def check_repelling_conditioning_exactness(rng) -> tuple[bool, str]:
    model = lattice.repelling_model(1.0)
    worst = 0.0
    for n in range(2, 7):
        rep = lattice.lattice_comparison_report(model, n)
        worst = max(worst, abs(rep.exact_tv - rep.tail_term))
    return worst <= 1e-12, f"max |tv - tail| {worst:.2e} (k=2 weight-ratio mismatch)"


def check_repelling_closed_form_dominance(rng) -> tuple[bool, str]:
    model = lattice.repelling_model(1.0)
    margin = math.inf
    for n in range(2, 7):
        rep = lattice.lattice_comparison_report(model, n)
        margin = min(margin, model.closed_form(n) - rep.exact_tv)
    return margin >= -1e-10, f"min closed-form margin {margin:.2e}"


def check_coupling_bound_poisson(rng) -> tuple[bool, str]:
    p = rng.uniform(0.05, 0.5, size=6)
    spec = CouplingSpec.independent_bernoulli(p)
    target = measures.poisson(float(np.sum(p)))
    cb = lattice.sum_coupling_bound(target, spec)
    rep = lattice.poisson_sum_bounds(spec)
    ok = (
        cb.norm_part == 0.0
        and cb.licensed
        and cb.value <= rep.linear_coupling_bound + 1e-12
        and rep.exact_tv <= cb.value + 1e-10
    )
    return ok, (
        f"norm part {cb.norm_part:.1e}, harmonic {cb.value:.4f} <= linear "
        f"{rep.linear_coupling_bound:.4f}, exact {rep.exact_tv:.4f}"
    )


def check_poisson_sum_chain(rng) -> tuple[bool, str]:
    margin = math.inf
    for _ in range(10):
        p = rng.uniform(0.02, 0.9, size=int(rng.integers(2, 9)))
        spec = CouplingSpec.independent_bernoulli(p)
        rep = lattice.poisson_sum_bounds(spec)
        margin = min(
            margin,
            rep.improved_bound - rep.exact_tv,
            rep.independent_bound - rep.improved_bound,
            rep.harmonic_coupling_bound - rep.exact_tv,
        )
    p_iid = np.full(8, 0.2)
    rep = lattice.poisson_sum_bounds(CouplingSpec.independent_bernoulli(p_iid))
    iid_eq = abs(rep.improved_bound - rep.independent_bound) <= 1e-12
    return margin >= -1e-10 and iid_eq, f"min margin {margin:.2e}, iid equality {iid_eq}"


CHECKS: list[tuple[str, Callable]] = [
    ("normalization_and_cumulatives", check_normalization_and_cumulatives),
    ("detailed_balance", check_detailed_balance),
    ("reparametrization_invariance", check_reparametrization),
    ("pmf_and_serialization_roundtrip", check_pmf_roundtrip),
    ("stein_residual_random_f", check_stein_residual),
    ("forward_backward_agreement", check_forward_backward),
    ("solution_linearity", check_linearity),
    ("stationarity_characterization", check_characterization),
    ("increment_exactness_when_licensed", check_increment_exactness),
    ("extremal_attainment", check_extremal_attainment),
    ("closed_form_suprema_match_reference", check_closed_form_suprema),
    ("certificate_dominance", check_certificate_dominance),
    ("size_bias_identity", check_size_bias_identity),
    ("size_bias_structure", check_size_bias_structure),
    ("sum_construction_enumeration", check_sum_construction),
    ("tv_subset_supremum", check_tv_subset_supremum),
    ("conditioning_sharpness", check_conditioning_sharpness),
    ("comparison_dominance", check_comparison_dominance),
    ("lattice_weight_brute_force", check_lattice_brute_force),
    ("product_weight_sandwich", check_product_sandwich),
    ("product_ratio_sum_cap", check_product_ratio_sum),
    ("ideal_gas_reduces_to_tail", check_ideal_gas_tail),
    ("repelling_ratio_identity_above_two", check_repelling_ratio_identity_above_two),
    ("lattice_generator_dominance", check_lattice_generator_dominance),
    ("repelling_conditioning_exactness", check_repelling_conditioning_exactness),
    ("repelling_closed_form_dominance", check_repelling_closed_form_dominance),
    ("coupling_bound_poisson_reduction", check_coupling_bound_poisson),
    ("poisson_sum_bound_chain", check_poisson_sum_chain),
]


def run_checks(seed: int) -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed)
        try:
            ok, detail = fn(rng)
        except Exception as exc:  # a crash is a failure with the exception as detail
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail))
    return results


def run_verification(seed: int, strict: bool = False) -> int:
    """Run the battery; returns the process exit code and prints one line per check."""
    results = run_checks(seed)
    first_failure = None
    print(f"# seed={seed}")
    for r in results:
        if r.ok:
            status = "PASS"
        elif r.name in EXPECTED_FAIL:
            status = "FAIL (expected, documented defect)"
        else:
            status = "FAIL"
        print(f"{status:<36} {r.name}: {r.detail}")
        if not r.ok and (strict or r.name not in EXPECTED_FAIL) and first_failure is None:
            first_failure = r.name
    if first_failure is not None:
        print(f"first failing property: {first_failure}")
        return 1
    return 0
