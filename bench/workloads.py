"""Seeded benchmark workloads: input decks, timed operations, output checks.

Each workload turns a seed into a *deck*: a list of plain input records made
with a seeded numpy generator and stratified sampling (see `_lattice`:
every parameter range is cut into equal strata, log-uniform where the
workload says so, and each stratum gets one jittered draw), so the mix of
sizes, and of inputs that hit known defects, is nearly the same for every
seed.  The deck is shuffled by the same generator.  An operation takes one
record and calls the library's public functions; its output is checked
afterwards, outside the timed region.

Known defects are left in the input ranges on purpose and show up as failed
operations: Poisson and binomial laws whose pmf underflows (lambda above
about 745, large binomial n), product lattice gases with n >= 89, and
`poisson_sum_bounds` truncating its Poisson target below the number of
summands.  A little below either underflow ceiling the pmf is already
subnormal, which can make an exact norm, and so a certified bound,
infinite.  Failure causes are named `known:*`
for these, `check:*` for a failed output check and `error:*` for any other
raise or nonzero exit; only `known:*` failures leave a run correct.

A licensed bound must be finite: +inf is a true bound but certifies
nothing, so it fails its check unless a known defect explains it, or, for
the rate-spread norm bound, the formula's value really exceeds the double
range.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gibbs_stein as gs
from gibbs_stein import cli

# Certified bounds must reach the exact value up to this absolute margin,
# the margin the library's own tests and `verify` use.
DOMINANCE_TOL = 1e-10
# Largest Stein residual |b_k g(k+1) - k g(k) - (f(k) - mu(f))| accepted.
RESIDUAL_TOL = 1e-10
# Relative agreement of an exact norm with its 50-digit recomputation.
ORACLE_RTOL = 1e-12
# Operations per deck whose exact norm is recomputed in high precision.
ORACLE_CASES = 2
MAX_LOG = math.log(sys.float_info.max)

KNOWN_CAUSES = (
    ("known:underflow", "underflows double precision"),
    ("known:target_truncation", "must live inside the target support"),
)


def classify(message: str, fallback: str) -> str:
    """Name the cause of a failure from its error message.

    A known defect gets a `known:` name; anything else is `error:<fallback>`.
    """
    for cause, pattern in KNOWN_CAUSES:
        if pattern in message:
            return cause
    return f"error:{fallback}"


@dataclass
class Checked:
    """What the output checks found for one operation."""

    failed: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)  # failures explained by a known defect
    pairs: list[tuple[float, float]] = field(default_factory=list)  # (certified bound, exact TV)
    output_bytes: int = 0

    def dominates(self, bound, exact: float, what: str):
        if bound is None or not isinstance(bound, (int, float)) or math.isnan(bound):
            self.failed.append(f"{what}_not_a_number")
        elif math.isinf(bound):  # true, but it certifies nothing
            self.failed.append(f"{what}_not_finite")
        elif bound < exact - DOMINANCE_TOL:
            self.failed.append(f"{what}_below_exact")

    def bound_pair(self, bound: float, exact_tv: float, what: str):
        self.dominates(bound, exact_tv, what)
        self.pairs.append((bound, exact_tv))


def _lattice(rng: np.random.Generator, count: int, dims: int) -> np.ndarray:
    """`count` points in [0, 1)^dims, one per stratum of width 1/count in every coordinate.

    Strata are paired across coordinates by the ranks of a Kronecker
    sequence (Roberts' R_d), so the joint design fills the cube evenly and
    the same way for every seed; the seed jitters each point within its
    strata.  Random pairing instead would let the seed decide, say, whether
    the largest n meets a small or a large mean, which swings the cost of a
    whole deck.
    """
    g = 2.0
    for _ in range(64):
        g = (1.0 + g) ** (1.0 / (dims + 1))
    i = np.arange(count)[:, None]
    seq = (0.5 + i * g ** -np.arange(1.0, dims + 1)) % 1.0
    ranks = np.argsort(np.argsort(seq, axis=0), axis=0)
    return (ranks + rng.random((count, dims))) / count


def _log_scale(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** u


# An exact norm divides by pmf entries; a subnormal one can make it infinite.
SUBNORMAL_NORM = "norm_subnormal_pmf"


def _subnormal(m) -> bool:
    """Whether some pmf entry of `m` lies below the normal double range (the underflow ceiling)."""
    return bool(m.pmf.min() < sys.float_info.min)


def _max_residual(m, g: np.ndarray, f: np.ndarray, mu_f: float) -> float:
    n = m.support_max
    k = np.arange(n + 1, dtype=float)
    lhs = m.birth_rates * g[1 : n + 2] - k * g[: n + 1]
    return float(np.max(np.abs(lhs - (f[: n + 1] - mu_f))))


def oracle_norm(pmf: np.ndarray, f_support: int | None = None) -> float:
    """sup_j sup_f |g_f(j)| over [0,1]-valued f (vanishing above f_support), in 50 digits.

    Treats the float pmf table as exact and uses the closed form of the
    box supremum: the positive and negative coefficient masses of g_f(j)
    are F(min(j-1, s)) Fbar(j) / (j pmf(j)) and (F(s) - F(j-1)) F(j-1) / (j pmf(j)).
    """
    import mpmath  # imported here so that set-up time does not include it

    with mpmath.workdps(50):
        p = [mpmath.mpf(float(x)) for x in pmf]
        n = len(p) - 1
        s = n if f_support is None else min(f_support, n)
        F = []
        acc = mpmath.mpf(0)
        for x in p:
            acc += x
            F.append(acc)
        total = F[-1]
        best = mpmath.mpf(0)
        for j in range(1, n + 1):
            scale = j * p[j]
            fbar = total - F[j - 1]
            pos = F[min(j - 1, s)] * fbar / scale
            neg = (F[s] - F[j - 1]) * F[j - 1] / scale if s >= j else mpmath.mpf(0)
            best = max(best, pos, neg)
        return float(best)


def _oracle_check(out: Checked, value: float, exact: float):
    if not abs(value - exact) <= ORACLE_RTOL * abs(exact):
        out.failed.append("exact_norm_vs_oracle")


# ---------------------------------------------------------------------------
# compare_large
# ---------------------------------------------------------------------------

def _build(family: str, params: tuple):
    if family == "poisson":
        return gs.poisson(params[0])
    if family == "binomial":
        return gs.binomial(int(params[0]), params[1])
    return gs.negative_binomial(params[0], params[1])


def compare_large_deck(rng: np.random.Generator, size: int) -> list[dict]:
    """Measure pairs (a law against a perturbed or restricted copy) for big-N comparisons.

    Lattice coordinates per family: size parameter, shape parameter, copy
    kind (perturbed below 1/2), and the perturbation or restriction amount.
    """
    per = size // 3
    deck = []
    for family, count in (("poisson", per), ("binomial", per), ("negative_binomial", size - 2 * per)):
        for u in _lattice(rng, count, 4):
            if family == "poisson":
                lam = float(_log_scale(u[0], 40.0, 1000.0))
                rec = {"params": (lam,), "mean": lam, "sd": lam**0.5}
            elif family == "binomial":
                n, p = int(round(_log_scale(u[0], 100.0, 800.0))), 0.2 + 0.6 * float(u[1])
                rec = {"params": (n, p), "mean": n * p, "sd": (n * p * (1 - p)) ** 0.5}
            else:
                mean = float(_log_scale(u[0], 40.0, 600.0))
                r = mean * float(_log_scale(u[1], 0.5, 2.0))
                rec = {"params": (r, r / (r + mean)), "mean": mean,
                       "sd": (mean * (1 + mean / r)) ** 0.5}
            rec["family"] = family
            if u[2] < 0.5:
                delta = float(0.005 + 0.045 * (2 * u[3] % 1.0)) * (1.0 if u[3] < 0.5 else -1.0)
                head, *rest = rec["params"]
                if family == "binomial":
                    rec["copy"] = ("perturbed", (head, rest[0] * (1 + delta)))
                else:
                    rec["copy"] = ("perturbed", (head * (1 + delta), *rest))
            else:
                rec["copy"] = ("restricted", int(rec["mean"] + (0.5 + 2.5 * u[3]) * rec["sd"]))
            rec["indicator"] = rng.random(8).tolist()
            deck.append(rec)
    return [deck[i] for i in rng.permutation(len(deck))]


def compare_large_op(rec: dict):
    m1 = _build(rec["family"], rec["params"])
    how, arg = rec["copy"]
    if how == "perturbed":
        m2 = _build(rec["family"], arg)
    else:
        m2 = m1.restricted(min(arg, m1.support_max - 1))
    # the same dispatch as `gibbs-stein compare`
    if m1.support_max == m2.support_max:
        rep = gs.generator_comparison_bound(m1, m2)
    elif m1.support_max < m2.support_max:
        rep = gs.generator_comparison_extended(m1, m2)
    else:
        rep = gs.generator_comparison_extended(m2, m1)
    size = m1.support_max + 1
    f = gs.TestFunction.indicator(sorted({int(x * size) for x in rec["indicator"]}), size)
    return m1, m2, rep, gs.solve(m1, f)


def compare_large_check(rec: dict, result, oracle: bool) -> Checked:
    m1, m2, rep, sol = result
    out = Checked()
    if math.isinf(rep.certified_bound) and (_subnormal(m1) or _subnormal(m2)):
        out.known.append(SUBNORMAL_NORM)
    else:
        out.bound_pair(rep.certified_bound, rep.exact_tv, "certified_bound")
    if not _max_residual(m1, sol.g, sol.f, sol.mu_f) <= RESIDUAL_TOL:
        # pmf values below the normal range carry fewer significant bits: the
        # underflow ceiling the log-space rewrite on the roadmap removes
        if _subnormal(m1):
            out.known.append("stein_residual_subnormal_pmf")
        else:
            out.failed.append("stein_residual")
    if oracle:
        small, big = sorted((m1, m2), key=lambda m: m.support_max)
        if small.support_max == big.support_max:
            _oracle_check(out, rep.g_norms[0], oracle_norm(m1.pmf))
            _oracle_check(out, rep.g_norms[1], oracle_norm(m2.pmf))
        else:
            # extended comparison: the small law's norm is capped below by 1/(n+1)
            n = small.support_max
            _oracle_check(out, rep.g_norms[0], max(oracle_norm(small.pmf), 1.0 / (n + 1)))
            _oracle_check(out, rep.g_norms[1], oracle_norm(big.pmf, f_support=n))
    return out


# ---------------------------------------------------------------------------
# cli_small_reports
# ---------------------------------------------------------------------------

SMALL_FAMILIES = ("poisson", "binomial", "geometric", "negative_binomial",
                  "hypergeometric", "discrete_uniform")


def _small_measure(u: np.ndarray, family: str) -> tuple[str, int]:
    """A built-in descriptor with support N <= 150 and a safe ladder top J <= N.

    `u` is a lattice point in [0, 1)^3 that sets the family's parameters.
    """
    if family == "poisson":
        lam = float(_log_scale(u[0], 0.5, 60.0))
        return f"poisson:{lam!r}", max(1, int(lam))
    if family == "binomial":
        n = int(_log_scale(u[0], 5.0, 150.0))
        return f"binomial:{n},{0.1 + 0.8 * float(u[1])!r}", n
    if family == "geometric":
        p = 0.2 + 0.7 * float(u[0])
        return f"geometric:{p!r}", max(1, int(math.log(1e-3) / math.log(1 - p)))
    if family == "negative_binomial":
        r, mean = 5.0 + 5.0 * float(u[1]), 1.0 + 9.0 * float(u[0])
        return f"negative_binomial:{r!r},{r / (r + mean)!r}", max(1, int(mean))
    if family == "hypergeometric":
        pop = 20 + int(281 * u[0])
        succ = 1 + int(u[1] * (pop // 2 - 1))
        draws = 1 + int(u[2] * (pop - succ - 1))
        return f"hypergeometric:{pop},{succ},{draws}", min(succ, draws)
    n = 2 + int(149 * u[0])
    return f"discrete_uniform:{n}", n


def _split(total: int, parts: int) -> list[int]:
    return [total // parts + (k < total % parts) for k in range(parts)]


def cli_small_deck(rng: np.random.Generator, size: int) -> list[list[str]]:
    """argv lists for in-process `gibbs-stein` calls; `{out}` marks the output path.

    A quarter each of `bounds`, `lattice`, `compare` and `solve` calls, split
    evenly over the families (or lattice models), each with its own lattice
    of parameters.
    """
    deck = []
    common = ["--format", "json", "--out", "{out}"]
    kinds = ("bounds", "lattice", "compare", "solve")
    for kind, per_kind in zip(kinds, _split(size, len(kinds))):
        if kind == "lattice":
            models = ("product", "repelling", "ideal_gas")
            for model, count in zip(models, _split(per_kind, len(models))):
                low = 3.0 if model == "product" else 1.0
                for u in _lattice(rng, count, 4):
                    ns = sorted({int(x) for x in _log_scale(u[:3], low, 120.0)})
                    lam = float(_log_scale(u[3], 0.5, 2.0))
                    deck.append(["lattice", "--model", model, "--lambda", repr(lam),
                                 "--n", ",".join(map(str, ns)), *common])
            continue
        for family, count in zip(SMALL_FAMILIES, _split(per_kind, len(SMALL_FAMILIES))):
            for u in _lattice(rng, count, 3):
                desc, top = _small_measure(u, family)
                if kind == "bounds":
                    deck.append(["bounds", "--measure", desc, "--j", f"1..{top}", *common])
                elif kind == "compare":
                    values = desc.partition(":")[2].split(",")
                    if family in ("hypergeometric", "discrete_uniform"):
                        values[-1] = str(max(1, int(values[-1]) - int(rng.integers(1, 4))))
                    else:
                        slot = 1 if family in ("binomial", "negative_binomial") else 0
                        scaled = float(values[slot]) * (1 + rng.uniform(-0.05, 0.05))
                        values[slot] = repr(min(0.95, scaled))
                    deck.append(["compare", "--m1", desc, "--m2", f"{family}:{','.join(values)}",
                                 *common])
                else:
                    if rng.random() < 0.5:
                        points = sorted({int(x) for x in rng.integers(0, top + 1, 4)})
                        f = "indicator:" + ",".join(map(str, points))
                    else:
                        f = f"constant:{rng.uniform(0.0, 1.0)!r}"
                    deck.append(["solve", "--measure", desc, "--f", f, *common])
    return [deck[i] for i in rng.permutation(len(deck))]


class CliFailure(Exception):
    """A CLI call that returned nonzero, with the named cause."""

    def __init__(self, message: str, cause: str):
        super().__init__(message)
        self.cause = cause


class CliRunner:
    """Runs one argv list in process, writing the report to a scratch file."""

    def __init__(self, out_path: str):
        self.out_path = out_path

    def __call__(self, argv: list[str]):
        argv = [self.out_path if a == "{out}" else a for a in argv]
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            message = err.getvalue()
            raise CliFailure(f"exit {code}: {message.strip()}", classify(message, f"cli_exit_{code}"))
        with open(self.out_path) as handle:
            return handle.read()


def _rate_spread_overflows(m) -> bool:
    """Whether the rate-spread norm bound 2 + (hi/(lo+1))^(hi-lo-2) / 2 exceeds the double range."""
    rr = gs.rate_range(m)
    lo, hi = rr.inf_rate, rr.sup_rate
    return (0.0 < lo and hi - 2.0 >= lo
            and math.log(0.5) + (hi - lo - 2.0) * math.log(hi / (lo + 1.0)) > MAX_LOG)


def cli_small_check(argv: list[str], text: str, oracle: bool) -> Checked:
    out = Checked(output_bytes=len(text.encode()))
    report = json.loads(text)
    rows = report["rows"]
    kind = argv[0]
    opts = dict(zip(argv[1::2], argv[2::2]))
    if kind == "bounds":
        m = cli.parse_measure(opts["--measure"])
        exact_inc = {row["j"]: row["value"] for row in rows
                     if row["formula"] == "exact_supremum" and row["quantity"] == "increment_at_j"}
        exact_norm = next(row["value"] for row in rows
                          if row["formula"] == "exact_supremum" and row["quantity"] == "solution_norm")
        for row in rows:
            if row["formula"] == "exact_supremum" or not row["licensed"] or row["value"] is None:
                continue
            q, j = row["quantity"], row["j"]
            if math.isinf(row["value"]) and row["formula"] == "norm_rate_spread" \
                    and _rate_spread_overflows(m):
                continue  # the formula's value is above the double range, so inf is right
            if q == "increment_at_j":
                exact = exact_inc[j]
            elif q == "increment_uniform":
                exact = max(exact_inc.values())
            elif q == "solution_at_j":
                exact = gs.sup_solution_exact(m, j)
            else:
                exact = exact_norm
            out.dominates(row["value"], exact, f"{q}_bound")
            if row["exactness"] == "exact_equality" and abs(row["value"] - exact) > DOMINANCE_TOL:
                out.failed.append(f"{q}_exact_form_mismatch")
        if oracle:
            _oracle_check(out, exact_norm, oracle_norm(m.pmf))
    elif kind == "lattice":
        model = getattr(gs, f"{opts['--model']}_model")(float(opts["--lambda"]))
        for row in rows:
            if math.isinf(row["generator_bound"]) and _subnormal(gs.lattice_measure(model, row["n"])):
                out.known.append(SUBNORMAL_NORM)
                continue
            out.bound_pair(row["generator_bound"], row["exact_tv"], "generator_bound")
    elif kind == "compare":
        out.bound_pair(rows[0]["certified_bound"], rows[0]["exact_tv"], "certified_bound")
    else:
        m = cli.parse_measure(opts["--measure"])
        f = cli.parse_test_function(opts["--f"], m.support_max + 1)
        g = np.array([row["g"] for row in rows], dtype=float)
        mu_f = float(report["mu_f"])
        if not _max_residual(m, g, f, mu_f) <= RESIDUAL_TOL:
            out.failed.append("stein_residual")
    return out


# ---------------------------------------------------------------------------
# bernoulli_sums
# ---------------------------------------------------------------------------

def _leave_one_out_laws(p: np.ndarray) -> np.ndarray:
    """Row i: exact law of sum_{j != i} X_j for independent X_j ~ Bernoulli(p_j), on 0..n-1.

    Built as the convolution of the laws of the coordinates before and after i.
    """
    n = p.size
    prefix = [np.array([1.0])]
    for pj in p[:-1]:
        prefix.append(np.convolve(prefix[-1], [1.0 - pj, pj]))
    out = np.zeros((n, n))
    suffix = np.array([1.0])
    for i in range(n - 1, -1, -1):
        out[i] = np.convolve(prefix[i], suffix)
        suffix = np.convolve(suffix, [1.0 - p[i], p[i]])
    return out


def bernoulli_deck(rng: np.random.Generator, size: int) -> list[dict]:
    """Half independent specs (Poisson approximation), half two-component mixtures.

    The mixtures are split evenly between `poisson_sum_bounds` and
    `sum_coupling_bound` against a binomial; each of the three classes gets
    its own lattice of n and of the mean p.
    """
    classes = (("independent", "poisson_sum", size // 2),
               ("mixture", "poisson_sum", size // 4),
               ("mixture", "coupling", size - size // 2 - size // 4))
    deck = []
    for kind, call, count in classes:
        for u in _lattice(rng, count, 2):
            n, mean = int(round(_log_scale(u[0], 5.0, 60.0))), float(_log_scale(u[1], 0.02, 0.5))
            if kind == "independent":
                p = np.clip(mean * rng.uniform(0.5, 1.5, n), 1e-6, 0.95)
                deck.append({"kind": kind, "call": call, "p": p})
                continue
            w = float(rng.uniform(0.3, 0.7))
            h = float(rng.uniform(0.2, 0.7))
            a = np.clip(mean * math.exp(h) * rng.uniform(0.5, 1.5, n), 1e-6, 0.95)
            b = np.clip(mean * math.exp(-h) * rng.uniform(0.5, 1.5, n), 1e-6, 0.95)
            p = w * a + (1 - w) * b
            cond = (w * a[:, None] * _leave_one_out_laws(a)
                    + (1 - w) * b[:, None] * _leave_one_out_laws(b)) / p[:, None]
            deck.append({"kind": kind, "call": call, "p": p, "cond": cond})
    return [deck[i] for i in rng.permutation(len(deck))]


def bernoulli_op(rec: dict):
    if rec["kind"] == "independent":
        spec = gs.CouplingSpec.independent_bernoulli(rec["p"])
    else:
        spec = gs.CouplingSpec(rec["p"], conditional_sums=rec["cond"])
    if rec["call"] == "poisson_sum":
        return spec, None, gs.poisson_sum_bounds(spec)
    target = gs.binomial(spec.n, spec.lam / spec.n)
    return spec, target, gs.sum_coupling_bound(target, spec)


def bernoulli_check(rec: dict, result, oracle: bool) -> Checked:
    spec, target, rep = result
    out = Checked()
    if target is None:
        out.bound_pair(rep.harmonic_coupling_bound, rep.exact_tv, "harmonic_coupling_bound")
        for name in ("linear_coupling_bound", "independent_bound", "improved_bound"):
            value = getattr(rep, name)
            if value is not None:
                out.dominates(value, rep.exact_tv, name)
        return out
    exact_tv = gs.tv_distance(spec.sum_law(), target.pmf)
    if rep.licensed:
        out.bound_pair(rep.value, exact_tv, "coupling_bound")
    if oracle:
        _oracle_check(out, rep.g_norm, oracle_norm(target.pmf))
    return out


@dataclass(frozen=True)
class Workload:
    deck: Callable[[np.random.Generator, int], list]
    deck_size: int
    pass_seconds: float  # reference operation time of one deck; sets the passes per run
    make_op: Callable[[str], Callable]  # scratch directory -> operation
    check: Callable[[object, object, bool], Checked]  # (input, output, oracle) -> Checked
    oracle_key: Callable[[object], float]  # the ORACLE_CASES lowest keys get the oracle check


WORKLOADS = {
    "compare_large": Workload(
        compare_large_deck, 120, 14.5, lambda scratch: compare_large_op, compare_large_check,
        lambda rec: rec["mean"] + 8 * rec["sd"],
    ),
    "cli_small_reports": Workload(
        cli_small_deck, 800, 8.2, lambda scratch: CliRunner(os.path.join(scratch, "cli-report.json")),
        cli_small_check, lambda argv: 0 if argv[0] == "bounds" else math.inf,
    ),
    "bernoulli_sums": Workload(
        bernoulli_deck, 300, 17.6, lambda scratch: bernoulli_op, bernoulli_check,
        lambda rec: rec["p"].size if rec["call"] == "coupling" else math.inf,
    ),
}
