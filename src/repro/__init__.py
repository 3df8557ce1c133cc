"""repro — a reproduction of *Designing OS for HPC Applications: Scheduling*
(Gioiosa, McKee, Valero; IEEE CLUSTER 2010).

The package simulates, at the policy level, the paper's whole stack:

* :mod:`repro.topology` — the dual-socket POWER6 js22 machine model;
* :mod:`repro.kernel` — a Linux 2.6.3x scheduler model (CFS, RT, idle
  classes, scheduling domains, load balancing, daemons, perf events);
* :mod:`repro.core` — **HPL**, the paper's contribution: the HPC scheduling
  class between RT and CFS, fork-time topology-aware placement, and global
  load-balancing suppression;
* :mod:`repro.apps` — MPI/SPMD workload models of the NAS benchmarks and
  the ``perf → chrt → mpiexec`` launcher chain;
* :mod:`repro.experiments` — regenerators for every figure and table of §V.

Quickstart::

    from repro import run_nas

    stock = run_nas("ep", "A", "stock", seed=1)
    hpl = run_nas("ep", "A", "hpl", seed=1)
    print(stock.app_time_s, stock.cpu_migrations, stock.context_switches)
    print(hpl.app_time_s, hpl.cpu_migrations, hpl.context_switches)
"""

# Defined before the submodule imports: repro.parallel reads it back during
# package initialization (it is part of the campaign-cache key).
__version__ = "1.0.0"

from repro.topology import power6_js22, Machine
from repro.kernel import Kernel, KernelConfig, Task, SchedPolicy
from repro.apps import LaunchMode, MpiJob, nas_spec, nas_program
from repro.experiments.runner import run_nas, run_campaign, CampaignResult

__all__ = [
    "power6_js22",
    "Machine",
    "Kernel",
    "KernelConfig",
    "Task",
    "SchedPolicy",
    "LaunchMode",
    "MpiJob",
    "nas_spec",
    "nas_program",
    "run_nas",
    "run_campaign",
    "CampaignResult",
    "__version__",
]
