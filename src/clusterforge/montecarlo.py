"""Cost economics of the chain-joining retry loop.

A joining round builds one L-shape on each of two chains (2 x
``l_build_cost`` bonds) and attempts a fusion that succeeds with
probability p; each failure adds ``failure_penalty`` bonds and the
round repeats.  After k rounds the total cost is
``2*l*k + f*(k-1)``, with k geometrically distributed.

The module gives the closed-form expectation alongside two Monte Carlo
estimators on the same draws: :func:`run_trials` counts each trial's
draws to its first success in one loop and prices the counts, while
:func:`run_recipe_trials` drives the full graph-level recipe and reads
costs off its ledger, so agreement pins the graph machinery to the arithmetic.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable, Mapping

from .fusion import RngStream, _draw_counts
from .graphstate import chain
from .recipes import ResourcesExhaustedError, build_h_shape

__all__ = [
    "CostModel",
    "PRESETS",
    "closed_form_expected_cost",
    "closed_form_cost_variance",
    "closed_form_expected_attempts",
    "TrialStats",
    "run_trials",
    "run_recipe_trials",
    "chi2_sf",
    "geometric_attempts_pvalue",
]


@dataclass(frozen=True)
class CostModel:
    """Bond-cost parameters of one joining pipeline.

    ``l_build_cost`` is the price of a single L-shape, so one joining
    attempt costs twice that; ``failure_penalty`` is the extra price of
    a failed fusion; ``success_probability`` is the per-attempt fusion
    success chance.
    """

    l_build_cost: float = 2
    failure_penalty: float = 2
    success_probability: float = 0.5

    def __post_init__(self):
        # Unlike math.isfinite, this takes ints too large for a float.
        if not all(abs(c) < math.inf for c in (self.l_build_cost, self.failure_penalty)):
            raise ValueError("cost parameters must be finite")
        if self.l_build_cost < 0 or self.failure_penalty < 0:
            raise ValueError("cost parameters must be nonnegative")
        if not 0 < self.success_probability <= 1:
            raise ValueError(
                "non-terminating process: success probability must lie in (0, 1]"
            )

    def attempt_cost(self, attempts: int):
        """Total bonds spent when success arrives on the given attempt."""
        if attempts < 1:
            raise ValueError("attempt count starts at 1")
        return 2 * self.l_build_cost * attempts + self.failure_penalty * (attempts - 1)

    def to_dict(self) -> dict:
        return {
            "l_build_cost": self.l_build_cost,
            "failure_penalty": self.failure_penalty,
            "success_probability": self.success_probability,
        }


PRESETS: dict[str, CostModel] = {
    "ours": CostModel(l_build_cost=2, failure_penalty=2, success_probability=0.5),
    "type2": CostModel(l_build_cost=8, failure_penalty=2, success_probability=0.5),
}


def _finite(moment: Callable[[], float]) -> float:
    """Evaluate a moment, refusing one that a float cannot hold."""
    with contextlib.suppress(OverflowError):
        value = moment()
        if math.isfinite(value):
            return value
    raise ValueError("cost moments overflow a float; lower the costs")


def closed_form_expected_cost(model: CostModel) -> float:
    """Expected total bonds: the fixed point of E = 2l + (1-p)(f + E)."""
    p = model.success_probability
    return _finite(lambda: (2 * model.l_build_cost + (1 - p) * model.failure_penalty) / p)


def closed_form_cost_variance(model: CostModel) -> float:
    """Cost variance: cost is affine in the geometric attempt count."""
    p = model.success_probability
    per_attempt = 2 * model.l_build_cost + model.failure_penalty
    return _finite(lambda: per_attempt**2 * (1 - p) / p**2)


def closed_form_expected_attempts(model: CostModel) -> float:
    return _finite(lambda: 1 / model.success_probability)


@dataclass(frozen=True)
class TrialStats:
    """Summary of a batch of joining trials.

    Carries the exact sums alongside the derived moments so batches
    merge losslessly: with integer costs every field of a merge equals
    what a single combined run would have produced, in any merge order.
    """

    trials: int
    mean_cost: float
    variance: float
    mean_attempts: float
    attempt_histogram: dict[int, int]
    cost_sum: float
    cost_sq_sum: float
    attempt_sum: int

    @classmethod
    def from_sums(
        cls,
        trials: int,
        cost_sum,
        cost_sq_sum,
        attempt_sum: int,
        attempt_histogram: Mapping[int, int],
    ) -> "TrialStats":
        if trials < 1:
            raise ValueError("need at least one trial")
        if sum(attempt_histogram.values()) != trials:
            raise ValueError("attempt histogram does not sum to the trial count")
        mean = _finite(lambda: cost_sum / trials)
        variance = 0.0
        if trials > 1:
            # n*sum(c^2) - sum(c)^2 stays exact for integer costs.
            variance = _finite(
                lambda: (trials * cost_sq_sum - cost_sum**2) / (trials * (trials - 1))
            )
        return cls(
            trials=trials,
            mean_cost=mean,
            variance=float(variance),
            mean_attempts=attempt_sum / trials,
            attempt_histogram=dict(sorted(attempt_histogram.items())),
            cost_sum=cost_sum,
            cost_sq_sum=cost_sq_sum,
            attempt_sum=attempt_sum,
        )

    def merge(self, other: "TrialStats") -> "TrialStats":
        histogram = dict(self.attempt_histogram)
        for k, count in other.attempt_histogram.items():
            histogram[k] = histogram.get(k, 0) + count
        return TrialStats.from_sums(
            self.trials + other.trials,
            self.cost_sum + other.cost_sum,
            self.cost_sq_sum + other.cost_sq_sum,
            self.attempt_sum + other.attempt_sum,
            histogram,
        )

    def standard_error(self) -> float:
        return (self.variance / self.trials) ** 0.5

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "mean_cost": self.mean_cost,
            "variance": self.variance,
            "mean_attempts": self.mean_attempts,
            "attempt_histogram": {str(k): v for k, v in self.attempt_histogram.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def histogram_csv(self) -> str:
        lines = ["attempts,count"]
        lines.extend(f"{k},{v}" for k, v in sorted(self.attempt_histogram.items()))
        return "\n".join(lines) + "\n"


# Runs expecting more draws are refused: a tiny p or a huge trial count
# would otherwise keep a run drawing without visible end.
MAX_EXPECTED_DRAWS = 10**7


def _check_draws(n_trials: int, p: float) -> None:
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if n_trials / p > MAX_EXPECTED_DRAWS:
        raise ValueError(
            f"{n_trials} trials at p={p:g} expect {n_trials / p:.3g} draws, "
            f"more than {MAX_EXPECTED_DRAWS:.0e}"
        )


def run_trials(model: CostModel, n_trials: int, seed: int) -> TrialStats:
    """Sample the abstract retry process; deterministic per seed.

    Trial i draws from substream i of ``RngStream(seed)`` up to its first
    success, so the result does not depend on execution order and batches
    over disjoint index ranges merge to the same stats.  Inputs expecting
    more than ``MAX_EXPECTED_DRAWS`` draws are rejected.
    """
    p = model.success_probability
    _check_draws(n_trials, p)
    counts = _draw_counts(seed, n_trials, p)
    histogram = Counter(counts)
    costs = {k: model.attempt_cost(k) for k in histogram}
    squares = {k: cost * cost for k, cost in costs.items()}
    # Summed in trial order: float sums keep every bit of a per-trial loop.
    cost_sum = reduce(add, map(costs.__getitem__, counts), 0)
    cost_sq_sum = reduce(add, map(squares.__getitem__, counts), 0)
    return TrialStats.from_sums(n_trials, cost_sum, cost_sq_sum, sum(counts), histogram)


def run_recipe_trials(
    n_trials: int,
    seed: int,
    *,
    chain_length: int = 12,
) -> TrialStats:
    """Drive the full graph-level H recipe once per trial.

    Costs and attempt counts come from the recipe ledger, not from the
    cost formula, so these stats check the graph machinery against
    :func:`run_trials` for the standard model.  A trial that exhausts
    its chain pair continues on a fresh pair with the same random
    stream and its ledgers added; a failed attempt costs the same
    whether or not the pair is then swapped out, so the concatenation
    samples exactly the unlimited-chain process.
    """
    _check_draws(n_trials, PRESETS["ours"].success_probability)
    if chain_length < 4:
        # Shorter chains cannot host an L, so no attempt would ever run.
        raise ValueError(f"chain length must be at least 4, got {chain_length}")
    chain_a = chain(chain_length)
    chain_b = chain(chain_length, start=chain_length + 1)
    root = RngStream(seed)
    counts, costs = [], []
    for i in range(n_trials):
        rng = root.substream(i)
        attempts = 0
        bonds = 0
        while True:
            try:
                result = build_h_shape(chain_a, chain_b, rng=rng)
            except ResourcesExhaustedError as e:
                attempts += e.partial.ledger.fusion_attempts
                bonds += e.partial.ledger.bonds_consumed
                continue
            attempts += result.ledger.fusion_attempts
            bonds += result.ledger.bonds_consumed
            break
        counts.append(attempts)
        costs.append(bonds)
    return TrialStats.from_sums(
        n_trials, sum(costs), sum(c * c for c in costs), sum(counts), Counter(counts)
    )


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail P(X >= x) of the chi-square distribution with integer dof.

    Closed forms: for even dof a Poisson sum,
    exp(-x/2) * sum_{i < dof/2} (x/2)^i / i!; for odd dof,
    erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2) * sum_{r=1}^{(dof-1)/2}
    x^(r-1) / (1*3*...*(2r-1)).
    """
    if dof < 1:
        raise ValueError("chi-square needs at least one degree of freedom")
    if x <= 0:
        return 1.0
    if dof % 2 == 0:
        term = total = math.exp(-x / 2)
        for i in range(1, dof // 2):
            term *= x / (2 * i)
            total += term
        return total
    total = math.erfc(math.sqrt(x / 2))
    term = math.sqrt(2 * x / math.pi) * math.exp(-x / 2)
    for r in range(1, (dof + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return total


def geometric_attempts_pvalue(stats: TrialStats, p: float) -> float:
    """Chi-squared goodness of fit of the attempt counts to geometric(p).

    Bins are merged from the tail until every expected count reaches 5;
    the tail bin collects all attempt counts past the largest observed.
    """
    if not 0 < p <= 1:
        raise ValueError("non-terminating process: success probability must lie in (0, 1]")
    n = stats.trials
    kmax = max(stats.attempt_histogram)
    observed = [stats.attempt_histogram.get(k, 0) for k in range(1, kmax + 1)]
    expected = [n * p * (1 - p) ** (k - 1) for k in range(1, kmax + 1)]
    # Open tail: everything past the largest observed attempt count.
    observed.append(0)
    expected.append(n * (1 - p) ** kmax)
    while len(expected) > 1 and expected[-1] < 5:
        expected[-2] += expected[-1]
        observed[-2] += observed[-1]
        expected.pop()
        observed.pop()
    if len(expected) == 1:
        return 1.0
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    return chi2_sf(statistic, len(expected) - 1)
