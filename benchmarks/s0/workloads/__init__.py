"""The four S0 workloads.

Each workload is a class with the same three steps, driven by
``run.py``: ``setup()`` builds the system from ``seed`` (timed as
``setup_s``), ``run()`` is the timed phase — fixed work, recording the
host time of each step in ``self.steps``, in the same order every time —
and ``finish()`` checks the outputs and returns the outcome.  They call
only the public API of ``Grid`` / ``Orb`` / ``Grm`` / ``Lrm`` / the
checkpoint store / the BSP buffers, with no fast-path keyword unless
``profile == "all_fast"``.
"""

from workloads.bsp_checkpoint import BspCheckpoint
from workloads.campus_day import CampusDay
from workloads.submit_storm import SubmitStorm
from workloads.tcp_rpc import TcpRpc

WORKLOADS = {
    cls.name: cls for cls in (CampusDay, SubmitStorm, BspCheckpoint, TcpRpc)
}
