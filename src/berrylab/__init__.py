"""berrylab: a desk-scale laboratory for Berry phase estimation.

Layers, bottom up:

- hamiltonians / exact: periodic operator families H(lambda) with
  trigonometric coefficients, dense diagonalization, Wilson-loop Berry
  phases, and Berry connections (finite-difference and perturbative).
- dynamics / qpe: Trotterized adiabatic loop evolution, exact phase
  estimation outcome distributions, and seeded sampling from them.
- bpe: the two-runtime estimator separating geometric from dynamical
  phase, the phase-doubling baseline, and interval decisions.
- circuits / hardness: gate circuits compiled into clock Hamiltonians
  whose ground-state Berry phase encodes acceptance.
- verifier: the energy-gated interval-decision protocol.
- corpus: analytic reference families, toy circuits, synthetic instances.
- cli: reproducible command-line experiments (`berrylab ...`).
"""

from importlib import metadata as _metadata

from .angles import TWO_PI, circle_distance, wrap_2pi, wrap_pm_pi
from .bpe import (
    BpeConfig,
    BpeEngine,
    WrappedInterval,
    choose_alpha,
    decide_interval,
    murta_bpe,
    reconstruct_phases,
    run_bpe,
)
from .circuits import (
    GATE_LIBRARY,
    Gate,
    GateCircuit,
    apply_gate,
    circuit_from_json_dict,
    circuit_to_json_dict,
    gate,
    initial_system_state,
    one_probability,
    partial_states,
    simulate,
    with_idle_steps,
)
from .corpus import (
    bqp_no_circuit,
    bqp_yes_circuit,
    constant_z_family,
    duqma_no_circuit,
    duqma_yes_circuit,
    equatorial_loop,
    random_gapped_family,
    synthetic_verifier_instance,
    tilted_loop_family,
)
from .dynamics import (
    AdiabaticSchedule,
    StateVector,
    adiabatic_propagate,
    calibrate_runtime,
    controlled_power_apply,
    loop_infidelity,
    loop_propagator,
    make_schedule,
    required_runtime,
)
from .errors import (
    BerrylabError,
    CapacityError,
    ConfigError,
    DegeneracyError,
    NumericalError,
)
from .exact import (
    BerryPhaseResult,
    PerturbativeConnection,
    SpectrumSlice,
    berry_connection_exact,
    berry_connection_perturbative,
    diagonalize,
    ground_state,
    min_gap,
    wilson_loop_berry_phase,
    write_sweep_csv,
)
from .hamiltonians import (
    HamiltonianFamily,
    PauliString,
    TrigCoefficient,
    apply_hamiltonian,
    check_dense_budget,
    constant,
    cosine,
    dense_budget,
    dense_pauli,
    derivative_family,
    eval_hamiltonian,
    from_json_dict,
    load_family,
    make_family,
    norm_bounds,
    save_family,
    scale_and_add,
    sine,
    to_json_dict,
)
from .hardness import (
    HardnessInstance,
    accept_operator_spectrum,
    build_bqp_instance,
    build_duqma_instance,
    compile_history,
    history_state,
    load_instance,
    make_V,
    product_guiding_state,
    save_instance,
    window_guiding_state,
)
from .qpe import (
    PhaseEstimate,
    QpeDistribution,
    bits_for_precision,
    circular_median,
    distribution_for_loop,
    distribution_from_phases,
    estimate_from_distribution,
    qpe_run,
    sample_outcomes,
)
from .verifier import (
    EnergyDistribution,
    VerifierConfig,
    VerifierOutcome,
    energy_distribution,
    energy_test,
    run_verifier,
)

try:
    __version__ = _metadata.version("artifact")
except _metadata.PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0"
