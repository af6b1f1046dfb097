"""Consumer agents: situation rules, foraging, consumption and social
influence.

A consumer holds a value vector (its ideal signature), an experience map
with its attractiveness threshold, and a handful of frustration counters.
Each cycle it evaluates its situations, one bool field each on the
consumer, and fires exactly one primary action, chosen by a fixed
priority order:

    dissatisfied > find_friend > (navigating) > interact > bored >
    change_location > change_values > (foraging)

Overlapping situations may be active at once; the priority order resolves
conflicts. `dissatisfied`, `bored`, `interact` and `find_friend` are
re-evaluated every cycle; `change_location` and `change_values` are set by
a decline, boredom or dissatisfaction and persist until their action
clears them. Foraging (consume the product underfoot, else climb the
proximity gradient) is the default action when nothing above claims the
cycle. A consumer with a navigation target walks toward it instead of
interacting, changing or foraging. Social influence acts on one neighbour
only: the most admired one with consumption history, else the most
similar one. All randomness flows through the run's cycle stream, so
equal seeds give identical action traces. The uniform picks among free
neighbours (and the referral fallback in `network`) take their integer from
that stream through `serialize.draw_below`, which returns what
`Generator.integers(0, k)` would and leaves the stream in the same state.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import network
from .cognition import AttractivenessState
from .products import valuation
from .serialize import draw_below, left_sum
from .space import Cell, ConsumptionSpace, manhattan

if TYPE_CHECKING:  # pragma: no cover
    from .harness import World


@dataclass
class Consumer:
    id: int
    location: Cell
    ideal: np.ndarray
    attract: AttractivenessState
    # situations: the first four are re-evaluated every cycle, the two
    # change situations persist until their action clears them
    dissatisfied: bool = False
    bored: bool = False
    interact: bool = False
    find_friend: bool = False
    change_location: bool = False
    change_values: bool = False
    boredom_count: int = 0
    dissatisfaction_count: int = 0
    failed_search_count: int = 0
    # the product instance being consumed, and the cycles it still takes
    consuming: int | None = None
    consume_left: int = 0
    recent_utilities: deque = field(default_factory=lambda: deque(maxlen=10))
    units_consumed: int = 0
    utility_total: float = 0.0
    # social navigation: a target cell means the consumer is navigating
    nav_target: Cell | None = None
    nav_budget: int = 0
    # alternation toggles
    change_location_next: bool = True
    approach_next: bool = False
    escape_budget: int = 0


def evaluate_situations(consumer: Consumer, world: "World") -> None:
    """Run the situation production rules against the consumer's state and
    local observables. Previously activated change situations persist until
    they complete."""
    cfg = world.config
    consumer.dissatisfied = left_sum(consumer.recent_utilities) < 0.0
    consumer.bored = consumer.boredom_count >= cfg.boredom_limit
    if world.social:
        frustrated = (consumer.dissatisfaction_count >= cfg.frustration_limit
                      or consumer.failed_search_count >= cfg.frustration_limit)
        consumer.interact = consumer.consuming is None and frustrated
        g = world.network
        consumer.find_friend = (
            g.degree(consumer.id) <= 2
            and g.mean_strength(consumer.id) < cfg.tie_strength_floor)
    else:
        consumer.interact = consumer.find_friend = False


def act(consumer: Consumer, world: "World", rng: np.random.Generator) -> None:
    """Fire the consumer's one primary action for this cycle."""
    if consumer.dissatisfied:
        _fire_dissatisfied(consumer, world)
        return
    if consumer.consuming is not None:
        consumer.consume_left -= 1
        if consumer.consume_left <= 0:
            complete_consumption(consumer, world)
            return
        if consumer.find_friend:
            _fire_referral(consumer, world, rng)
        return
    if consumer.find_friend:
        _fire_referral(consumer, world, rng)
        return
    if consumer.nav_target is not None:
        _navigation_step(consumer, world)
        return
    if consumer.interact:
        interact_socially(consumer, world)
        return
    if consumer.bored:
        _fire_bored(consumer, world)
        return
    if consumer.change_location:
        _escape_step(consumer, world, rng)
        return
    if consumer.change_values:
        _perturb_values(consumer, world, rng)
        return
    # foraging: consume what's underfoot if it appeals, otherwise climb the
    # proximity gradient (random-walking across plateaus)
    space = world.space
    loc = consumer.location
    pid = space.product_at(loc)
    if pid is not None:
        instance = space.products[pid]
        if not instance.in_use:
            # on a decline, the escape it schedules starts next cycle
            try_begin_consumption(consumer, instance, world)
            return
        # a product someone else is consuming is treated as absent
    _step(consumer, space, rng, space.ascend(loc))


# ---------------------------------------------------------------------------
# consumption


def try_begin_consumption(consumer: Consumer, instance, world: "World") -> bool:
    """Start consuming the product under the consumer's feet.

    Begins only when the attractiveness map approves the signature AND the
    signature sits within the valuation gate of the consumer's ideal. A
    decline bumps the failed-search counter, schedules an escape from this
    product's neighborhood and, when the product fell short of the
    threshold, erodes the threshold a little toward the prediction
    (aspiration adaptation: standards that nothing nearby meets sink
    toward what is actually on offer; without this the threshold ratchets
    monotonically upward and foraging starves).
    """
    cfg = world.config
    signature = world.types[instance.type_id].signature
    predicted = consumer.attract.predict_utility(signature)
    if predicted >= consumer.attract.threshold \
            and valuation(consumer.ideal, signature) <= cfg.max_valuation_gap:
        instance.in_use = True
        consumer.consuming = instance.instance_id
        consumer.consume_left = cfg.consumption_cycles
        consumer.boredom_count = 0
        consumer.failed_search_count = 0
        return True
    if predicted < consumer.attract.threshold:
        gap = predicted - consumer.attract.threshold
        consumer.attract.threshold = max(
            -1.0, consumer.attract.threshold
            + cfg.threshold_rate * cfg.decline_relaxation * gap)
    consumer.failed_search_count += 1
    consumer.change_location = True
    consumer.escape_budget = cfg.escape_cycles
    return False


def complete_consumption(consumer: Consumer, world: "World") -> float:
    """Finish the active consumption: realize the type's utility, train the
    map, adapt the threshold, shift the ideal, and queue the product's
    respawn."""
    cfg = world.config
    instance_id = consumer.consuming
    instance = world.space.products[instance_id]
    ptype = world.types[instance.type_id]
    realized = ptype.utility
    consumer.consuming = None
    consumer.attract.learn(ptype.signature, realized)
    consumer.attract.update_threshold(realized)
    if realized > 0.0:
        adjust_values(consumer, ptype.signature, cfg.experience_rate, toward=True)
    elif realized < 0.0:
        adjust_values(consumer, ptype.signature, cfg.experience_rate, toward=False)
    consumer.recent_utilities.append(realized)
    consumer.units_consumed += 1
    consumer.utility_total += realized
    world.queue_respawn(instance_id)
    return realized


def adjust_values(consumer: Consumer, target, eta: float, toward: bool) -> None:
    """Move the ideal a fraction eta toward (or away from) a target
    signature; components are clamped at zero."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must be in [0, 1]")
    delta = eta * (np.asarray(target, dtype=float) - consumer.ideal)
    moved = consumer.ideal + delta if toward else consumer.ideal - delta
    consumer.ideal = np.maximum(moved, 0.0)


# ---------------------------------------------------------------------------
# social behavior


def influence_target(consumer: Consumer, network, consumers) -> int | None:
    """The direct social neighbor an interaction acts on.

    That is the most admired neighbor (highest trailing mean realized
    utility) among those with consumption history, else the most similar
    one (smallest valuation distance between ideals). Ties break toward
    the lower consumer id. None when the consumer has no ties.
    """
    neighbor_ids = sorted(network.neighbors(consumer.id))
    with_history = [b for b in neighbor_ids if consumers[b].recent_utilities]
    if with_history:
        return max(with_history,
                   key=lambda b: (left_sum(consumers[b].recent_utilities)
                                  / len(consumers[b].recent_utilities)))
    return min(neighbor_ids, default=None,
               key=lambda b: valuation(consumer.ideal, consumers[b].ideal))


def interact_socially(consumer: Consumer, world: "World") -> bool:
    """One social influence event with the consumer's influence target.

    The effect alternates per agent between value influence (pull the
    ideal toward the neighbor's) and spatial approach (navigate toward the
    neighbor's current location). Either way the tie strengthens and the
    frustration counters reset. No neighbors: no-op.
    """
    cfg = world.config
    target_id = influence_target(consumer, world.network, world.consumers)
    if target_id is None:
        return False
    neighbor = world.consumers[target_id]
    if consumer.approach_next:
        consumer.nav_target = neighbor.location
        consumer.nav_budget = 4 * max(1, manhattan(consumer.location, neighbor.location)) + 8
    else:
        adjust_values(consumer, neighbor.ideal, cfg.social_rate, toward=True)
    consumer.approach_next = not consumer.approach_next
    world.network.strengthen(consumer.id, target_id, cfg.tie_boost)
    consumer.dissatisfaction_count = 0
    consumer.failed_search_count = 0
    return True


def _fire_referral(consumer: Consumer, world: "World",
                   rng: np.random.Generator) -> None:
    network.referral(world.network, consumer.id, rng,
                     strength=world.config.referral_strength)


def _navigation_step(consumer: Consumer, world: "World") -> None:
    # greedy step toward the navigation target; ends on adjacency or when
    # the step budget runs out (the target may be unreachable)
    target = consumer.nav_target
    if manhattan(consumer.location, target) <= 1 or consumer.nav_budget <= 0:
        _exit_navigation(consumer)
        return
    consumer.nav_budget -= 1
    space = world.space
    current = manhattan(consumer.location, target)
    for cell in space.free_neighbor_cells(consumer.location):
        if manhattan(cell, target) < current:
            space.move_consumer(consumer, cell)
            return
    # boxed in this cycle; try again next cycle


def _exit_navigation(consumer: Consumer) -> None:
    consumer.nav_target = None
    consumer.nav_budget = 0


# ---------------------------------------------------------------------------
# dissatisfaction, boredom, change


def _fire_dissatisfied(consumer: Consumer, world: "World") -> None:
    # stop current actions, then decide what to do instead (location change
    # or value change, alternating per agent)
    consumer.dissatisfaction_count += 1
    if consumer.consuming is not None:
        instance = world.space.products[consumer.consuming]
        instance.in_use = False
        consumer.consuming = None
    _exit_navigation(consumer)
    consumer.recent_utilities.clear()
    _activate_change(consumer, world)


def _fire_bored(consumer: Consumer, world: "World") -> None:
    consumer.boredom_count = 0
    _activate_change(consumer, world)


def _activate_change(consumer: Consumer, world: "World") -> None:
    if consumer.change_location_next:
        consumer.change_location = True
        consumer.escape_budget = world.config.escape_cycles
    else:
        consumer.change_values = True
    consumer.change_location_next = not consumer.change_location_next


def _escape_step(consumer: Consumer, world: "World",
                 rng: np.random.Generator) -> None:
    # walk down the proximity gradient and keep going for the whole budget;
    # flat stretches fall back to a random step. Running the full budget
    # (rather than stopping at the first zero-field cell) is what carries
    # the agent out of the current product's basin instead of leaving it on
    # the rim to be recaptured by the same gradient.
    consumer.escape_budget -= 1
    space = world.space
    _step(consumer, space, rng, space.descend(consumer.location))
    if consumer.escape_budget <= 0:
        consumer.change_location = False
        consumer.escape_budget = 0


def _perturb_values(consumer: Consumer, world: "World",
                    rng: np.random.Generator) -> None:
    # self-directed value drift: small uniform nudge per component
    magnitude = world.config.perturb_magnitude
    offsets = rng.uniform(-magnitude, magnitude, size=consumer.ideal.shape)
    consumer.ideal = np.maximum(consumer.ideal + offsets, 0.0)
    consumer.change_values = False


# ---------------------------------------------------------------------------
# movement


def _step(consumer: Consumer, space: ConsumptionSpace,
          rng: np.random.Generator, nb: Cell) -> None:
    # one gradient step to nb; when nb is the consumer's own cell (a
    # plateau) or is taken (local competition), jostle to a random free
    # neighbour instead of retrying the same blocked cell forever
    loc = consumer.location
    if nb == loc or space.consumer_at(nb) is not None:
        free = space.free_neighbor_cells(loc)
        if not free:
            return
        nb = free[draw_below(rng, len(free))]
    space.move_consumer(consumer, nb)
