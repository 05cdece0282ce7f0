"""Cost model, closed forms, and the trial harness."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterforge.fusion import RngStream
from clusterforge.montecarlo import (
    MAX_EXPECTED_DRAWS,
    PRESETS,
    CostModel,
    TrialStats,
    chi2_sf,
    closed_form_cost_variance,
    closed_form_expected_attempts,
    closed_form_expected_cost,
    geometric_attempts_pvalue,
    run_recipe_trials,
    run_trials,
)

OURS = PRESETS["ours"]
TYPE2 = PRESETS["type2"]


# -- model and closed forms ----------------------------------------------------


def test_presets():
    assert OURS == CostModel(l_build_cost=2, failure_penalty=2, success_probability=0.5)
    assert TYPE2 == CostModel(l_build_cost=8, failure_penalty=2, success_probability=0.5)
    assert CostModel() == OURS


def test_model_validation():
    with pytest.raises(ValueError, match="cost parameters must be nonnegative"):
        CostModel(l_build_cost=-1)
    with pytest.raises(ValueError, match="non-terminating process"):
        CostModel(success_probability=0.0)
    with pytest.raises(ValueError, match="non-terminating process"):
        CostModel(success_probability=1.5)
    assert CostModel(success_probability=1.0).success_probability == 1.0
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cost parameters must be finite"):
            CostModel(l_build_cost=bad)
        with pytest.raises(ValueError, match="cost parameters must be finite"):
            CostModel(failure_penalty=bad)


def test_attempt_cost():
    # success on attempt k costs 2*l*k + f*(k-1)
    assert [OURS.attempt_cost(k) for k in (1, 2, 3)] == [4, 10, 16]
    assert [TYPE2.attempt_cost(k) for k in (1, 2)] == [16, 34]
    with pytest.raises(ValueError, match="attempt count starts at 1"):
        OURS.attempt_cost(0)


def test_model_dict():
    assert OURS.to_dict() == {
        "l_build_cost": 2,
        "failure_penalty": 2,
        "success_probability": 0.5,
    }


def test_closed_forms_exact():
    assert closed_form_expected_cost(OURS) == 10.0
    assert closed_form_expected_cost(TYPE2) == 34.0
    assert closed_form_cost_variance(OURS) == 72.0
    assert closed_form_cost_variance(TYPE2) == 648.0
    assert closed_form_expected_attempts(OURS) == 2.0


def test_closed_forms_degenerate_at_certainty():
    sure = CostModel(l_build_cost=3, failure_penalty=9, success_probability=1.0)
    assert closed_form_expected_cost(sure) == 6.0
    assert closed_form_cost_variance(sure) == 0.0
    assert closed_form_expected_attempts(sure) == 1.0


@given(
    st.integers(0, 20),
    st.integers(0, 20),
    st.floats(0.05, 1.0),
)
@settings(max_examples=60)
def test_closed_form_matches_series(l, f, p):
    # direct tail-sum of the geometric series, truncated far out
    model = CostModel(l, f, p)
    direct = sum(p * (1 - p) ** (k - 1) * model.attempt_cost(k) for k in range(1, 3000))
    assert closed_form_expected_cost(model) == pytest.approx(direct, rel=1e-6, abs=1e-6)


# -- TrialStats algebra -----------------------------------------------------------


def test_from_sums_and_validation():
    s = TrialStats.from_sums(2, 14, 116, 3, {1: 1, 2: 1})
    assert s.mean_cost == 7.0
    assert s.variance == (2 * 116 - 14**2) / 2  # = 18 = var of {4, 10}, ddof 1
    assert s.mean_attempts == 1.5
    with pytest.raises(ValueError, match="histogram does not sum"):
        TrialStats.from_sums(3, 14, 116, 3, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="at least one trial"):
        TrialStats.from_sums(0, 0, 0, 0, {})


def test_single_trial_has_zero_variance():
    s = TrialStats.from_sums(1, 4, 16, 1, {1: 1})
    assert s.variance == 0.0
    assert s.standard_error() == 0.0


def test_merge_is_lossless_and_symmetric():
    a = run_trials(OURS, 400, 1)
    b = run_trials(OURS, 600, 2)
    ab, ba = a.merge(b), b.merge(a)
    assert ab == ba
    assert ab.trials == 1000
    # pooled numpy computation from the raw per-trial costs
    costs = []
    for part in (a, b):
        for k, count in part.attempt_histogram.items():
            costs.extend([OURS.attempt_cost(k)] * count)
    assert ab.mean_cost == pytest.approx(np.mean(costs), abs=1e-12)
    assert ab.variance == pytest.approx(np.var(costs, ddof=1), rel=1e-12)


def test_merge_is_associative():
    parts = [run_trials(OURS, 100 + i, 10 + i) for i in range(3)]
    left = parts[0].merge(parts[1]).merge(parts[2])
    right = parts[0].merge(parts[1].merge(parts[2]))
    assert left == right


def test_stats_renderings():
    s = run_trials(OURS, 50, 3)
    doc = json.loads(s.to_json())
    assert set(doc) == {"trials", "mean_cost", "variance", "mean_attempts", "attempt_histogram"}
    assert sum(doc["attempt_histogram"].values()) == 50
    csv = s.histogram_csv()
    lines = csv.splitlines()
    assert lines[0] == "attempts,count"
    assert csv.endswith("\n")
    ks = [int(line.split(",")[0]) for line in lines[1:]]
    assert ks == sorted(ks)


# -- sampling ---------------------------------------------------------------------


def test_run_trials_is_deterministic():
    assert run_trials(OURS, 500, 7) == run_trials(OURS, 500, 7)
    assert run_trials(OURS, 500, 7) != run_trials(OURS, 500, 8)
    with pytest.raises(ValueError, match="at least one trial"):
        run_trials(OURS, 0, 7)


def test_run_trials_rejects_unbounded_draw_counts():
    # n_trials / p beyond MAX_EXPECTED_DRAWS is refused before any draw
    tiny = CostModel(success_probability=1e-300)
    with pytest.raises(ValueError, match="expect 1e\\+300 draws"):
        run_trials(tiny, 1, 0)
    with pytest.raises(ValueError, match="draws"):
        run_trials(OURS, MAX_EXPECTED_DRAWS // 2 + 1, 0)
    assert run_trials(CostModel(success_probability=1e-3), 10, 0).trials == 10
    with pytest.raises(ValueError, match="draws"):
        run_recipe_trials(MAX_EXPECTED_DRAWS, 0)


@pytest.mark.parametrize(
    "moment",
    [
        lambda: run_trials(CostModel(1e200, 1, 0.5), 100, 0),
        lambda: closed_form_cost_variance(CostModel(1e160, 1, 0.5)),
        lambda: run_trials(CostModel(1e308, 1e308, 0.5), 100, 0),
        lambda: closed_form_expected_cost(CostModel(1e308, 1e308, 0.5)),
        lambda: closed_form_expected_cost(CostModel(10**400, 1, 0.5)),
        lambda: closed_form_expected_attempts(CostModel(success_probability=5e-324)),
    ],
    ids=["sampled-variance", "closed-variance", "sampled-inf-nan", "closed-mean-inf",
         "int-cost", "closed-attempts"],
)
def test_cost_moments_that_overflow_a_float_are_refused(moment):
    # Each raised a bare OverflowError or returned inf or nan before.
    with pytest.raises(ValueError, match="cost moments overflow a float"):
        moment()


def test_large_but_finite_cost_moments_are_kept():
    s = run_trials(CostModel(1e150, 1, 0.5), 100, 0)
    assert 1e150 < s.mean_cost < 1e152 and 0 < s.variance < 1e304
    assert closed_form_cost_variance(CostModel(1e150, 1, 0.5)) == pytest.approx(8e300)


def test_run_trials_histogram_determines_sums():
    # cost is a function of the attempt count, so the histogram carries
    # the whole distribution; the sums must agree with it exactly
    s = run_trials(OURS, 5000, 11)
    assert s.attempt_sum == sum(k * c for k, c in s.attempt_histogram.items())
    assert s.cost_sum == sum(OURS.attempt_cost(k) * c for k, c in s.attempt_histogram.items())
    assert s.cost_sq_sum == sum(
        OURS.attempt_cost(k) ** 2 * c for k, c in s.attempt_histogram.items()
    )
    assert s.mean_cost == s.cost_sum / s.trials


def test_run_trials_tracks_closed_form():
    s = run_trials(OURS, 20000, 42)
    assert abs(s.mean_cost - 10.0) < 4 * s.standard_error()
    assert abs(s.mean_attempts - 2.0) < 0.1
    t = run_trials(TYPE2, 20000, 43)
    assert abs(t.mean_cost - 34.0) < 4 * t.standard_error()


def reference_trials(model: CostModel, n_trials: int, seed: int) -> TrialStats:
    """run_trials written out through the stream's own methods, one call per draw."""
    p = model.success_probability
    root = RngStream(seed)
    cost_sum = cost_sq_sum = attempt_sum = 0
    histogram = {}
    for i in range(n_trials):
        rng = root.substream(i)
        attempts = 1
        while not rng.next_bool(p):
            attempts += 1
        cost = model.attempt_cost(attempts)
        cost_sum += cost
        cost_sq_sum += cost * cost
        attempt_sum += attempts
        histogram[attempts] = histogram.get(attempts, 0) + 1
    return TrialStats.from_sums(n_trials, cost_sum, cost_sq_sum, attempt_sum, histogram)


# Trial 0's first draw under seed 7: as p, that draw fails under `<` but passes under `<=`.
DRAWN_P = RngStream(7).substream(0).next_float()


@pytest.mark.parametrize("n_trials", [1, 2000])
@pytest.mark.parametrize(
    "model, seed",
    [
        (OURS, 0),
        (TYPE2, -5),
        (CostModel(2.5, 1.1, 0.3), 2**64 + 3),
        (CostModel(10**30, 3, 0.5), 12),
        (CostModel(success_probability=1.0), 4),
        (CostModel(success_probability=0.01), 9),
        (CostModel(3, 1, DRAWN_P), 7),
    ],
    ids=["ours", "type2", "float-costs", "huge-int-costs", "p=1", "p=0.01", "p=a-draw"],
)
def test_run_trials_matches_the_stream_definition(model, seed, n_trials):
    got, want = run_trials(model, n_trials, seed), reference_trials(model, n_trials, seed)
    assert got.to_json() == want.to_json()
    for field in ("cost_sum", "cost_sq_sum", "attempt_sum"):
        a, b = getattr(got, field), getattr(want, field)
        assert (type(a), a) == (type(b), b), field


def test_run_trials_certain_success():
    s = run_trials(CostModel(success_probability=1.0), 1000, 5)
    assert s.attempt_histogram == {1: 1000}
    assert s.variance == 0.0
    assert s.mean_cost == 4.0


def test_attempts_fit_geometric_distribution():
    s = run_trials(OURS, 20000, 6)
    assert geometric_attempts_pvalue(s, 0.5) > 0.001
    # wildly wrong p must be rejected
    assert geometric_attempts_pvalue(s, 0.05) < 1e-6


def test_pvalue_degenerate_single_bin():
    s = run_trials(CostModel(success_probability=1.0), 100, 5)
    assert geometric_attempts_pvalue(s, 1.0) == 1.0
    with pytest.raises(ValueError, match="non-terminating process"):
        geometric_attempts_pvalue(s, 0.0)


# (x, dof, scipy.stats.chi2.sf(x, dof) from scipy 1.17.1)
CHI2_SF_TABLE = [
    (0.5, 1, 0.47950012218695337),
    (10.0, 1, 0.001565402258002549),
    (40.0, 1, 2.5396285894708634e-10),
    (3.0, 2, 0.22313016014842982),
    (40.0, 2, 2.0611536224385566e-09),
    (3.0, 3, 0.3916251762710877),
    (40.0, 4, 4.328422607120966e-08),
    (10.0, 5, 0.07523524614651217),
    (10.0, 10, 0.44049328506521257),
    (10.0, 11, 0.5303871510010405),
    (3.0, 30, 0.9999999999176028),
    (40.0, 30, 0.10486428110798468),
]


@pytest.mark.parametrize("x, dof, expected", CHI2_SF_TABLE)
def test_chi2_sf_matches_frozen_table(x, dof, expected):
    assert chi2_sf(x, dof) == pytest.approx(expected, rel=1e-12)


def test_chi2_sf_edges():
    assert chi2_sf(0.0, 3) == 1.0
    assert chi2_sf(1e4, 4) == 0.0
    with pytest.raises(ValueError, match="degree of freedom"):
        chi2_sf(1.0, 0)


ROOT = Path(__file__).resolve().parent.parent


def fresh_interpreter(code: str) -> str:
    """Stdout of `code` run in a new interpreter that imports from src/."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_leaves_scipy_out():
    # The CLI module imports every other module of the package.
    code = "import sys, clusterforge.cli; print('scipy' in sys.modules)"
    assert fresh_interpreter(code).strip() == "False"


def test_graph_level_path_leaves_numpy_out():
    # Graph rewrites, fusion, recipes and graph-level trials never touch
    # the tableau or the oracle, so they run without numpy.
    code = """
import sys
from clusterforge import cliffords, fusion, graphstate, montecarlo, recipes
montecarlo.run_recipe_trials(20, 0, chain_length=8)
chains = graphstate.chain(6), graphstate.chain(6, start=7)
recipes.build_h_shape(*chains, rng=fusion.RngStream(11))
print('numpy' in sys.modules)
"""
    assert fresh_interpreter(code).strip() == "False"


def test_tableau_path_leaves_numpy_out():
    # The tableau packs its rows into ints itself, so graph extraction and
    # a replayed tableau rewrite run without numpy.
    stored = ROOT / "tests" / "golden" / "build-ring8-forced-S.out"
    code = f"""
import json, sys
import clusterforge.tableau as tb
from clusterforge import graphstate, recipes
tb.to_graph(tb.from_graph(graphstate.ring(8)))
recipes.replay(json.loads(open({str(stored)!r}).read()))
print('numpy' in sys.modules)
"""
    assert fresh_interpreter(code).strip() == "False"


def test_replay_loads_the_tableau_on_demand():
    # A stored ring8 build ends in a tableau_rewrite step: replaying it from
    # recipes alone must import the tableau and reproduce the stored bytes.
    stored = (ROOT / "tests" / "golden" / "build-ring8-forced-S.out").read_text()
    assert '"op":"tableau_rewrite"' in stored
    code = f"""
import json, sys
from clusterforge import recipes
before = 'clusterforge.tableau' in sys.modules
result = recipes.replay(json.loads({stored!r}))
print(before, 'clusterforge.tableau' in sys.modules)
sys.stdout.write(recipes.result_to_json(result) + "\\n")
"""
    flags, replayed = fresh_interpreter(code).split("\n", 1)
    assert flags == "False True"
    assert replayed == stored


# Run here and under every other interpreter; each must end with the same
# `result`: both samplers, and a forced ladder and ring8 through the builder.
SAMPLER_RUNS = """
import json, sys
from clusterforge.graphstate import chain
from clusterforge.montecarlo import PRESETS, CostModel, run_recipe_trials, run_trials
from clusterforge.recipes import build_h_shape, build_ring8, grow_ladder, result_to_json
models = (PRESETS["ours"], PRESETS["type2"], CostModel(2.5, 1.1, 0.3))
stats = [run_trials(model, 3000, 21) for model in models]
stats += [run_recipe_trials(150, seed, chain_length=n) for seed in (3, 4) for n in (8, 12)]
result = [[s.to_json(), repr(s.cost_sum), repr(s.cost_sq_sum), repr(s.attempt_sum)]
          for s in stats]
h = build_h_shape(chain(6), chain(8, start=7), forced="S")
result += [result_to_json(grow_ladder(h, [chain(4, start=30)], 1, forced="S,S")),
           result_to_json(build_ring8(chain(9), forced="S"))]
"""


def other_interpreters() -> list[str]:
    """Each Python on this host but the running one that meets requires-python.

    Candidates are the python3.N executables on PATH and in pyenv's
    versions.  Wrapper scripts, such as pyenv's shims, are skipped: they
    pick their interpreter at run time.
    """
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1))
    candidates = [path for d in os.environ.get("PATH", "").split(os.pathsep) if d
                  for path in Path(d).glob("python3.*")]
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates += pyenv.glob("versions/*/bin/python3.*")
    own = Path(sys.executable).resolve()
    found = {}
    for path in candidates:
        minor = re.fullmatch(r"python3\.(\d+)", path.name)
        real = path.resolve()
        if not minor or int(minor.group(1)) < floor or real in (own, *found):
            continue
        if not os.access(real, os.X_OK):
            continue
        with open(real, "rb") as fh:
            if fh.read(2) == b"#!":
                continue
        found[real] = str(path)
    return sorted(found.values())


def test_sampler_output_is_the_same_on_every_claimed_python():
    interpreters = other_interpreters()
    if not interpreters:
        pytest.skip("no other interpreter that meets requires-python on this host")
    here = {}
    exec(SAMPLER_RUNS, here)
    code = SAMPLER_RUNS + "print(json.dumps([sys.version, 'numpy' in sys.modules, result]))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    children = [
        subprocess.Popen([exe, "-c", code], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, env=env)
        for exe in interpreters
    ]
    try:
        for exe, child in zip(interpreters, children):
            out, err = child.communicate(timeout=60)
            assert child.returncode == 0, f"{exe}: {err}"
            version, numpy_loaded, result = json.loads(out)
            assert not numpy_loaded, f"{exe} ({version}) loaded numpy"
            assert result == here["result"], f"{exe} ({version}) sampled different bytes"
    finally:
        for child in children:
            child.kill()
            child.wait()
    print(f"sampler runs matched under {len(interpreters)} other interpreters: {interpreters}")


def test_pvalue_over_probability_grid():
    for i, p in enumerate((0.25, 0.5, 0.75, 1.0)):
        s = run_trials(CostModel(success_probability=p), 20000, 100 + i)
        assert geometric_attempts_pvalue(s, p) > 0.001, p
        assert abs(s.mean_attempts - 1 / p) < 5 * (s.variance ** 0.5 or 1.0)


def test_recipe_trials_match_abstract_trials_exactly():
    """Same seed, same draws: the graph-level H pipeline must reproduce
    the abstract geometric process field for field, because each fusion
    consumes exactly one draw and a failed attempt costs 6 bonds whether
    or not the chain pair is then swapped out."""
    assert run_recipe_trials(3000, 99) == run_trials(OURS, 3000, 99)


def test_recipe_trials_frozen_sums():
    s = run_recipe_trials(2000, 123)
    assert (s.cost_sum, s.cost_sq_sum, s.attempt_sum) == (19838, 334460, 3973)
    assert s.attempt_histogram[1] == 991
    with pytest.raises(ValueError, match="at least one trial"):
        run_recipe_trials(0, 1)


def test_recipe_trials_reject_chains_too_short_for_an_l():
    with pytest.raises(ValueError, match="chain length must be at least 4"):
        run_recipe_trials(1, 0, chain_length=3)
    assert run_recipe_trials(1, 0, chain_length=4).trials == 1
