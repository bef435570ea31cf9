"""Every record of the family registry holds on instances of its family."""

import functools
import math

import numpy as np
import pytest

import gibbs_stein as gs
from gibbs_stein.compare import solution_norm
from gibbs_stein.factors import BoundCertificate, closed_form_bounds, supnorm_bound
from gibbs_stein.lattice import limit_measure
from gibbs_stein.measures import FAMILIES
from gibbs_stein.stein import sup_solution_norm

INSTANCES = {
    "poisson": [lambda: gs.poisson(1e-3), lambda: gs.poisson(1.0), lambda: gs.poisson(30.0)],
    "binomial": [lambda: gs.binomial(1, 0.5), lambda: gs.binomial(10, 0.3),
                 lambda: gs.binomial(40, 0.8)],
    "geometric": [lambda: gs.geometric(0.2), lambda: gs.geometric(0.5),
                  lambda: gs.geometric(0.9, truncation=6)],
    "negative_binomial": [lambda: gs.negative_binomial(0.5, 0.4),
                          lambda: gs.negative_binomial(2.0, 0.45),
                          lambda: gs.negative_binomial(7.5, 0.6)],
    "hypergeometric": [lambda: gs.hypergeometric(20, 5, 6), lambda: gs.hypergeometric(60, 12, 20)],
    "discrete_uniform": [lambda: gs.discrete_uniform(0), lambda: gs.discrete_uniform(1),
                         lambda: gs.discrete_uniform(12)],
    "repelling_limit": [lambda: limit_measure(gs.repelling_model(0.5)),
                        lambda: limit_measure(gs.repelling_model(2.0))],
    "product_limit": [lambda: limit_measure(gs.product_model(1.0)),
                      lambda: limit_measure(gs.product_model(2.0))],
}


def _exact(m, cert, increments):
    if cert.quantity == "increment_at_j":
        return increments[cert.j - 1]
    if cert.quantity == "increment_uniform":
        return max(increments)
    assert cert.quantity == "solution_norm"
    return sup_solution_norm(m)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_record_holds_on_instances(kind):
    family = FAMILIES[kind]
    assert INSTANCES.get(kind), f"no test instances for the {kind} family"
    for make in INSTANCES[kind]:
        m = make()
        assert m.kind == kind
        if family.rates is not None:
            lo, hi = family.rates(**family.values(m.params))
            b = m.birth_rates[: m.support_max]
            assert np.all(b >= lo * (1 - 1e-12)) and np.all(b <= hi * (1 + 1e-12)), m.label()
        if m.support_max == 0:
            continue
        increments = gs.sup_increment_table(m).tolist()
        certs = [supnorm_bound(m), *closed_form_bounds(m)]
        if family.increment_at is not None:
            values = family.values(m.params)
            certs += [BoundCertificate("increment_at_j", family.increment_at(j, **values), "increment_at", j=j)
                      for j in range(1, m.support_max + 1)]
        for cert in certs:
            if not cert.licensed:
                continue
            assert math.isfinite(cert.value), (m.label(), cert.formula)
            assert cert.value >= _exact(m, cert, increments) - 1e-10, (m.label(), cert.formula)


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_family_values_name_a_missing_parameter(kind):
    family = FAMILIES[kind]
    assert family.kind == kind
    name = family.args[-1][0]
    params = {arg: 1 for arg, _ in family.args[:-1]}
    with pytest.raises(ValueError, match=f"^{kind} measure lacks parameter '{name}'$"):
        family.values(params)


@functools.cache
def _norm_laws():
    """Every family's instances, 20 random pmf laws, and lattice laws of the three models."""
    rng = np.random.default_rng(20081)
    laws = [make() for makes in INSTANCES.values() for make in makes]
    laws += [gs.from_pmf(rng.uniform(0.05, 1.0, int(rng.integers(2, 40))), omega=float(rng.uniform(0.5, 3.0)))
             for _ in range(20)]
    laws += [gs.lattice_measure(make(z), n) for make in (gs.ideal_gas_model, gs.repelling_model, gs.product_model)
             for z in (0.5, 2.0) for n in (3, 12)]
    return laws


# f_support of the test class as a function of N: all of B, then B0 at N//2 and at 1
TEST_CLASSES = {"B": lambda n: None, "B0_half": lambda n: n // 2, "B0_one": lambda n: 1}


@pytest.mark.parametrize("extended", [False, True], ids=["own_support", "extended"])
@pytest.mark.parametrize("test_class", TEST_CLASSES)
def test_exact_solution_norm_never_exceeds_the_rate_spread_certificate(test_class, extended):
    # comparisons multiply by the exact norm, so the rate-spread certificate must dominate it
    # over B0 and for the pure-death extension as well as over B
    checked = 0
    for m in _norm_laws():
        cert = supnorm_bound(m)
        if not cert.applicable or m.support_max == 0:
            continue
        n = m.support_max
        floor = 1.0 / (n + 1) if extended else 0.0
        exact = solution_norm(m, f_support=TEST_CLASSES[test_class](n), extended=extended)
        assert exact <= max(cert.value, floor), m.label()
        checked += 1
    assert checked >= 40


def test_exact_solution_norm_overflows_only_with_the_certificate():
    # pmf(1) = 2e-310 / 2 is subnormal: F Fbar / (j pmf(j)) leaves the double range
    m = gs.from_pmf([1.0, 2e-310, 2e-20, 1.0])
    cert = supnorm_bound(m)
    assert math.isinf(sup_solution_norm(m)) and cert.applicable and math.isinf(cert.value)
