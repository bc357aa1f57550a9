"""DeepCAM reproduction: a fully CAM-based DNN inference accelerator.

This package reproduces *DeepCAM: A Fully CAM-based Inference Accelerator
with Variable Hash Lengths for Energy-efficient Deep Neural Networks*
(Nguyen et al., DATE 2023) as a self-contained Python library:

* :mod:`repro.api` -- the unified runtime API: the :class:`Backend`
  protocol with a string-keyed registry over DeepCAM and every baseline,
  the typed :class:`CostReport`/:class:`RunResult`/:class:`ExperimentResult`
  schema, and the observer-driven :class:`ExperimentRunner` over the
  registered paper experiments.
* :mod:`repro.core` -- the approximate geometric dot-product, context
  generation, variable hash lengths, the CAM mapping/cycle model, the
  energy model and the functional inference simulator.
* :mod:`repro.cam` -- the CAM substrate (cells, arrays, dynamic chunked CAM,
  sense amplifiers, EvaCAM-style overhead model).
* :mod:`repro.crossbar` -- the NVM crossbar used for on-chip hashing.
* :mod:`repro.hw` -- digital building blocks with 45 nm cost models.
* :mod:`repro.nn` -- a NumPy CNN framework (layers, training, quantization,
  LeNet5/VGG/ResNet18 builders).
* :mod:`repro.datasets` -- synthetic stand-ins for MNIST/CIFAR.
* :mod:`repro.workloads` -- layer-shape traces of the paper's four networks.
* :mod:`repro.baselines` -- Eyeriss (SCALE-Sim-style), Skylake AVX-512 and
  analog PIM baselines.
* :mod:`repro.evaluation` -- the experiment implementations behind the
  registry (one per table/figure).

Quickstart::

    import repro

    backend = repro.get_backend("deepcam")
    report = backend.estimate(repro.network_by_name("lenet5"))
    print(report.total_cycles, report.total_energy_uj)

    result = repro.ExperimentRunner().run("fig9_cycles", networks=("vgg11",))
    print(result.rows[0]["speedup_vs_eyeriss_as"])
"""

from repro.blas import cap_blas_threads

# Before anything runs a GEMM: see repro.blas for why BLAS stays on the
# calling thread.
cap_blas_threads()

from repro.api import (  # noqa: E402 -- after the BLAS cap
    Backend,
    CallbackObserver,
    CostReport,
    DeepCAMBackend,
    DeepCAMConfigBuilder,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    RunResult,
    deepcam,
    get_backend,
    get_experiment,
    list_backends,
    list_experiments,
    network_by_name,
    register_backend,
    register_experiment,
)
from repro.core import (
    ApproximateDotProduct,
    DeepCAMConfig,
    DeepCAMEnergyModel,
    DeepCAMMapper,
    DeepCAMSimulator,
    Dataflow,
    VariableHashLengthSearch,
)

__version__ = "1.1.0"

__all__ = [
    "ApproximateDotProduct",
    "Backend",
    "CallbackObserver",
    "CostReport",
    "Dataflow",
    "DeepCAMBackend",
    "DeepCAMConfig",
    "DeepCAMConfigBuilder",
    "DeepCAMEnergyModel",
    "DeepCAMMapper",
    "DeepCAMSimulator",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "RunResult",
    "VariableHashLengthSearch",
    "__version__",
    "deepcam",
    "get_backend",
    "get_experiment",
    "list_backends",
    "list_experiments",
    "network_by_name",
    "register_backend",
    "register_experiment",
]
