"""Actor state that a worker process pickles stays plain and small.

``MultiprocRuntime`` pickles actors when it ships them to their worker and
in every supervised snapshot.  Python 3.14 removes pickling of ``itertools``
objects (3.12 and 3.13 warn), so no actor may hold one; and the sender's
jitter source pickles as its seed and draw count, not as the Mersenne
Twister state.
"""

import itertools
import pickle

from repro.baseline import CorfuLog
from repro.baseline.corfu import CorfuLoadClient
from repro.chariots import ChariotsDeployment
from repro.chariots.sender import Sender
from repro.core import PipelineConfig
from repro.flstore import FLStore
from repro.runtime import LocalRuntime
from repro.sim import LoadClient

from conftest import rec

_ITERTOOLS_TYPES = tuple(
    value for value in vars(itertools).values() if isinstance(value, type)
)


def itertools_attributes(actor):
    """Names of the attributes holding an ``itertools`` object, looking
    one level into dict values and list items."""
    found = []
    for name, value in vars(actor).items():
        if isinstance(value, dict):
            inner = list(value.values())
        elif isinstance(value, list):
            inner = value
        else:
            inner = []
        if any(isinstance(v, _ITERTOOLS_TYPES) for v in [value, *inner]):
            found.append(name)
    return found


def assert_itertools_free(runtime):
    actors = runtime.actors()
    assert actors
    offenders = {actor.name: itertools_attributes(actor) for actor in actors}
    assert {name: attrs for name, attrs in offenders.items() if attrs} == {}


def test_chariots_actors_hold_no_itertools_objects():
    runtime = LocalRuntime()
    deployment = ChariotsDeployment(runtime, ["A", "B"], batch_size=8)
    client = deployment.blocking_client("A")
    runtime.start()
    client.append("x")
    assert deployment.settle()
    assert_itertools_free(runtime)


def test_flstore_actors_hold_no_itertools_objects():
    runtime = LocalRuntime()
    store = FLStore(runtime, n_maintainers=2, batch_size=4)
    client = store.blocking_client()
    runtime.start()
    client.append("x")
    assert_itertools_free(runtime)


def test_load_generators_hold_no_itertools_objects():
    runtime = LocalRuntime()
    corfu = CorfuLog(runtime, n_units=2, batch_size=4)
    corfu.client()
    runtime.register(
        CorfuLoadClient("corfu/load", corfu.sequencer.name, corfu.plan, rec("A", 1), 100.0)
    )
    runtime.register(LoadClient("load", ["corfu/store/0"], lambda *_: None, 100.0))
    runtime.start()
    assert_itertools_free(runtime)


def make_sender():
    return Sender(
        "A/send", "A", maintainers=["A/store"], peer_receivers={"B": ["B/recv"]},
        config=PipelineConfig(),
    )


def test_a_fresh_sender_pickles_small():
    assert len(pickle.dumps(make_sender(), protocol=pickle.HIGHEST_PROTOCOL)) <= 2048


def test_an_unpickled_sender_continues_the_jitter_sequence():
    policy = PipelineConfig(retransmit_jitter=0.3).retransmit_policy()
    sender = make_sender()
    for attempt in range(5):
        policy.delay(attempt, sender._rng)
    copy = pickle.loads(pickle.dumps(sender))
    assert [policy.delay(1, copy._rng) for _ in range(20)] == [
        policy.delay(1, sender._rng) for _ in range(20)
    ]
