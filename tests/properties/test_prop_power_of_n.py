"""Property: power-of-n choice replays ``random.sample`` draw for draw.

``ForwardingPolicy.power_of_n_choice`` draws two of 3–21 candidates with
``Random._randbelow`` directly instead of calling ``random.sample``.
That is only sound while it makes exactly the draws ``random.sample``
makes and picks the same port, so it is checked here against the
reference implementation — ``least_loaded(rng.sample(list(c), n))`` —
on every population size from 1 to 30, for n = 1, 2 and 3, under random
(often tied) queue loads: same port, same generator state afterwards.
This pins the CPython behaviour the shortcut relies on.
"""

import random

import pytest

from repro.forwarding.ecmp import EcmpPolicy
from repro.sim.engine import Engine
from tests.helpers import make_switch

MAX_PORTS = 30
TRIALS = 60


def reference_choice(policy, candidates, n):
    """Power-of-n choice written with the public ``random`` API."""
    if len(candidates) == 1:
        return candidates[0]
    if n <= 1:
        return policy.rng.choice(list(candidates))
    sampled = candidates if len(candidates) <= n \
        else policy.rng.sample(list(candidates), n)
    return policy.least_loaded(sampled)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_of_n_choice_matches_reference_draw_for_draw(n):
    switch, _, _ = make_switch(Engine(), n_host_ports=0,
                               n_fabric_ports=MAX_PORTS)
    fast = EcmpPolicy(switch, random.Random())
    slow = EcmpPolicy(switch, random.Random())
    scenario = random.Random(1000 + n)
    for size in range(1, MAX_PORTS + 1):
        for trial in range(TRIALS):
            for port in switch.ports:
                # Few distinct loads, so ties (broken by port order) are
                # common.
                port.queue.bytes = 1500 * scenario.randrange(4)
            candidates = scenario.sample(range(MAX_PORTS), size)
            if trial % 2:
                candidates = tuple(candidates)
            seed = scenario.getrandbits(64)
            fast.rng.seed(seed)
            slow.rng.seed(seed)
            got = fast.power_of_n_choice(candidates, n)
            want = reference_choice(slow, candidates, n)
            assert got == want, (size, trial, candidates)
            assert fast.rng.getstate() == slow.rng.getstate(), \
                (size, trial)
