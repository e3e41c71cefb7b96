"""Golden search outputs: the Pareto fronts and an evolution winner.

The vectorized evaluator, the dominance filter and the archive dedup are
all rewritten for speed from time to time; each rewrite promises the
*same* search, not a similar one.  These fixtures pin the full output of
:func:`~repro.search.pareto.pareto_search` (every front genome plus its
objectives, floats written with ``float.hex`` so no digit is lost) and
the winner of an ``objective="edp"`` :func:`evolution_search` run.

Fixtures live under ``tests/baselines/search/``; refresh them with
``pytest --update-goldens`` only when a change is meant to move the
search.
"""

import json
from pathlib import Path

import pytest

from repro.models.specs import get_network_spec
from repro.search import (
    EvoSearchConfig,
    build_candidate_grid,
    evolution_search,
    pareto_search,
    uniform_budget,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "baselines" / "search"
MODELS = ["resnet18", "resnet50"]
SEEDS = [0, 1, 2]


def _grid(model):
    # The grid settings of analysis.experiments.run_search.
    return build_candidate_grid(get_network_spec(model), weight_bits=9,
                                activation_bits=9, use_wrapping=True)


@pytest.fixture(scope="module")
def grids():
    return {model: _grid(model) for model in MODELS}


def _config(seed, objective):
    return EvoSearchConfig(population_size=64, iterations=60, restarts=1,
                           seed=seed, objective=objective)


def _genome(genome):
    """One compact string per genome: ``-`` keeps the conv layer,
    ``RxC`` is the epitome candidate."""
    return " ".join("-" if cand is None else f"{cand[0]}x{cand[1]}"
                    for cand in genome)


def _eval(result):
    return {"latency_ms": result.latency_ms.hex(),
            "energy_mj": result.energy_mj.hex(),
            "crossbars": result.crossbars}


def _check(name, payload, update_goldens):
    path = GOLDEN_DIR / f"{name}.json"
    rendered = json.dumps(payload, indent=1) + "\n"
    if update_goldens:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
    assert path.exists(), (
        f"golden fixture {path.name} missing — run "
        f"pytest --update-goldens to create it")
    assert rendered == path.read_text(), (
        f"search output drifted from golden {path.name} — if the change "
        f"is intentional, refresh with pytest --update-goldens")


def _front_payload(model, seed, budget, front):
    return {
        "model": model, "seed": seed, "budget": budget,
        "feasible": front.feasible,
        "history": front.history,
        "points": [{"genome": _genome(p.genome), **_eval(p.eval)}
                   for p in front.points],
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("model", MODELS)
def test_pareto_front_matches_golden(grids, model, seed, update_goldens):
    grid = grids[model]
    budget = uniform_budget(grid)
    front = pareto_search(grid, budget, _config(seed, "pareto"))
    _check(f"pareto-{model}-seed{seed}",
           _front_payload(model, seed, budget, front), update_goldens)


def test_pareto_early_stop_matches_golden(grids, update_goldens):
    """Patience stops the run once the archive stops changing, so this
    pins the per-generation "archive changed" test (87 of 200
    generations run)."""
    grid = grids["resnet18"]
    budget = uniform_budget(grid)
    front = pareto_search(grid, budget, EvoSearchConfig(
        population_size=32, iterations=200, restarts=1, seed=0, patience=2))
    assert len(front.history) < 200
    _check("pareto-resnet18-seed0-patience2",
           _front_payload("resnet18", 0, budget, front), update_goldens)


def test_evolution_edp_winner_matches_golden(grids, update_goldens):
    grid = grids["resnet50"]
    budget = uniform_budget(grid)
    result = evolution_search(grid, budget, _config(0, "edp"))
    payload = {
        "model": "resnet50", "seed": 0, "budget": budget,
        "feasible": result.feasible,
        "history": [reward.hex() for reward in result.history],
        "genome": _genome(result.genome),
        **_eval(result.eval),
    }
    _check("evolution-edp-resnet50-seed0", payload, update_goldens)
