"""The knob budget: how many options each public entry point takes.

Every number is an *upper* bound and may only ever be lowered (ROADMAP
exit: ``Grid`` <= 14).  A PR that adds an option turns this red and has
to argue for raising a bound.
"""

import inspect

import pytest

from repro.analysis.clustering import kmeans
from repro.apps.constraints import Constraint, Preference
from repro.bsp.drma import Registers
from repro.bsp.messages import MessageBuffers
from repro.bsp.runtime import run_bsp
from repro.checkpoint.store import FileCheckpointStore, MemoryCheckpointStore
from repro.core.grid import Grid
from repro.core.grm import Grm
from repro.core.hierarchy import ClusterUplink, ParentGrm
from repro.core.lrm import Lrm
from repro.core.lupa import Lupa
from repro.orb.cdr import CdrDecoder
from repro.orb.core import Orb
from repro.orb.trading import TradingService
from repro.orb.transport import TcpTransport

BUDGET = [
    (Orb.__init__, 8),
    (Grid.__init__, 12),
    (Lrm.__init__, 7),
    (Lupa.__init__, 8),
    (Grm.__init__, 11),
    (ParentGrm.__init__, 4),
    (ParentGrm.attach_parent, 3),
    (ClusterUplink.__init__, 5),
    (TradingService.modify, 2),
    (TcpTransport.__init__, 3),
    (CdrDecoder.__init__, 1),
    (MessageBuffers.__init__, 1),
    (Registers.__init__, 1),
    (run_bsp, 4),            # ``*args`` belongs to the program, not to us
    (MemoryCheckpointStore.__init__, 0),
    (FileCheckpointStore.__init__, 1),
    (Constraint.__init__, 1),
    (Preference.__init__, 1),
    (kmeans, 4),
]


@pytest.mark.parametrize(
    "func, limit", BUDGET, ids=[func.__qualname__ for func, _ in BUDGET])
def test_parameter_count_within_budget(func, limit):
    params = [p for p in inspect.signature(func).parameters.values()
              if p.name != "self"]
    # ``**kwargs`` would let options in uncounted.
    assert not any(p.kind is p.VAR_KEYWORD for p in params)
    named = [p.name for p in params if p.kind is not p.VAR_POSITIONAL]
    assert len(named) <= limit, named


@pytest.mark.parametrize("func", [Grid.__init__, Lrm.__init__],
                         ids=["Grid.__init__", "Lrm.__init__"])
def test_execution_has_no_tick_to_tune(func):
    """Task progress is analytic: there is no interval to pick."""
    names = inspect.signature(func).parameters
    assert not [name for name in names if "tick" in name]
