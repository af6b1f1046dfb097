"""Property check over drawn configurations on small grids: every config
either fails `RunConfig.validate()`, is refused by `World` with a
ConfigError or GenerationError, or runs 200 cycles with a full audit after
every cycle."""

import math
from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from consumerlab.harness import ConfigError, RunConfig, World, run  # noqa: E402
from consumerlab.products import GenerationError  # noqa: E402


# a usable small world for most draws (ws_degree 4 needs five consumers,
# and the type spacing or attempt budget may be too tight to generate)
SMALL_WORLD = st.fixed_dictionaries({
    "seed": st.integers(0, 2**31 - 1),
    "social": st.booleans(),
    "cycles": st.just(200),
    "sample_every": st.sampled_from([1, 20, 50, 100]),
    "width": st.integers(2, 12),
    "height": st.integers(2, 12),
    "n_consumers": st.integers(3, 8),
    "n_types": st.integers(1, 4),
    "replicas_per_type": st.integers(1, 3),
    "utility_slope": st.floats(-2.0, 2.0),
    "min_type_distance": st.floats(0.0, 0.5),
    "max_type_attempts": st.integers(1, 60),
    "maxima_radius": st.floats(0.0, 1.0),
    "relax_step": st.floats(1e-4, 0.05),
    "relax_max_iter": st.integers(1, 200),
    "proximity_radius": st.integers(1, 15),
    "respawn_sigma": st.floats(0.0, 20.0),
    "conception_nodes": st.integers(1, 6),
    "som_alpha": st.floats(0.0, 1.0),
    "som_radius_floor": st.floats(0.01, 2.0),
    "threshold_rate": st.floats(0.0, 1.0),
    "boredom_limit": st.integers(-1, 40),
    "frustration_limit": st.integers(0, 6),
    "tie_strength_floor": st.floats(0.0, 1.0),
    "max_valuation_gap": st.floats(0.0, 3.0),
    "consumption_cycles": st.integers(1, 6),
    "utility_window": st.integers(1, 4),
    "experience_rate": st.floats(0.0, 1.0),
    "social_rate": st.floats(0.0, 1.0),
    "perturb_magnitude": st.floats(0.0, 1.0),
    "escape_cycles": st.integers(-1, 30),
    "decline_relaxation": st.floats(-1.0, 2.0),
    "ws_degree": st.sampled_from([2, 4]),
    "ws_beta": st.floats(0.0, 1.0),
    "tie_boost": st.floats(0.0, 1.0),
    "tie_decay": st.floats(0.0, 0.2),
    "tie_removal_floor": st.floats(0.0, 0.5),
    "initial_tie_strength": st.floats(0.0, 1.0),
    "referral_strength": st.floats(0.0, 1.0),
    "coverage_cell_width": st.floats(0.01, 0.5),
    "transient_cycles": st.integers(0, 300),
})

# at most one field overwritten with an edge or out-of-range value
ODD_VALUES = {
    "int": st.sampled_from([-1, 0, 1, 2, 3, 7, 1000]),
    "float": st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0,
                              1.5, 1e300, -1e300]),
}
ODD_FIELD = st.one_of(st.none(), st.sampled_from(
    [f for f in fields(RunConfig) if f.type in ODD_VALUES]).flatmap(
        lambda f: st.tuples(st.just(f.name), ODD_VALUES[f.type])))


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(SMALL_WORLD, ODD_FIELD)
def test_every_config_is_rejected_or_runs_audited(params, odd):
    if odd is not None:
        params = dict(params, **{odd[0]: odd[1]})
    config = RunConfig(**params)
    if config.validate():
        return
    try:
        World(config)
    except (ConfigError, GenerationError):
        return
    run(config, audit_every=1)
