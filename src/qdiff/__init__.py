"""Hybrid quantum-classical diffusion laboratory.

A self-contained numpy stack: statevector circuit simulation with
adjoint-differentiation gradients, classical and depolarizing diffusion processes,
trainable non-local measurements, a hybrid denoising model with a classical
skip connection, and circuit quality benchmarks (expressibility,
entangling capability).
"""

from .qcore import (
    DensityMatrix,
    StateVector,
    basis_state,
    expm_hermitian,
    partial_trace,
    purity,
    sqrtm_psd,
)
from .circuit import (
    Gate,
    ParamCircuit,
    build_ansatz,
    circuit_unitary,
    cnot,
    controlled,
    cz,
    dump_circuit,
    h,
    mixing_layer,
    phase,
    run_circuit,
    rx,
    ry,
    rz,
    vw_block,
    x,
)
from .encode import (
    encode_amplitude,
    encode_angle,
    encode_basis,
    encode_dense_angle,
    encode_phase,
)
from .measure import (
    ano_features,
    grad_expectation_wrt_circuit,
    grad_hadamard_wrt_probe,
    hadamard_test,
)
from .diffusion import (
    NoiseSchedule,
    depolarize_closed,
    depolarize_step,
    forward_sample,
    linear_schedule,
)
from .bench import (
    entangling_capability,
    expressibility,
    frechet_gaussian,
    haar_fidelities,
    haar_state,
    meyer_wallach,
    sample_fidelities,
)
from .data import (
    ImageBatch,
    SyntheticSpec,
    downsample,
    load_idx,
    parse_idx,
    synth_modes,
)
from .model import (
    HybridModel,
    TrainConfig,
    backward,
    forward,
    gradient_audit,
    init_model,
    load_checkpoint,
    loss,
    sample,
    train,
)

__version__ = "0.1.0"
