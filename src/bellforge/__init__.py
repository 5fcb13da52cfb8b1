"""bellforge: port-based teleportation, remote state preparation, and
communication-derived Bell certification on exact dense linear algebra.

Every exported name is imported from its home module on first access
(PEP 562), so `import bellforge` loads no submodule and not numpy.
"""

import importlib

__version__ = "0.1.0"

# Home module -> the names it exports.  This table is the one list:
# `__all__` and the lazy lookup are both read off it.
_HOMES = {
    "states": (
        "ATOL_NORM", "ATOL_HERM", "ATOL_POVM", "ATOL_UNITARY",
        "MAX_TOTAL_DIM", "CapExceededError", "InvariantError", "PureState",
        "MixedState", "Povm", "fidelity", "max_entangled",
    ),
    "protocols": (
        "TruthTable", "CommProtocol", "MemorylessProtocol", "run_exact",
        "success_probability", "builtin_qrac", "random_protocol",
    ),
    "transforms": ("to_single_qubit_rounds", "to_memoryless"),
    "teleport": (
        "PbtMeasurement", "build_pbt_povm", "entanglement_fidelity",
    ),
    "remoteprep": (
        "RspAttempt", "rsp_povm", "rsp_attempt", "index_cost_bits",
    ),
    "classicalcc": (
        "BudgetOracle", "best_success_one_way", "best_success_tree",
        "chernoff_repeats", "majority_amplify", "pumping_bound",
    ),
    "bell": (
        "PortSchedule", "CorrelationTable", "BellReport", "OneWayStats",
        "NonlinearCheck", "generate_correlations",
        "simulate_with_classical_comm", "bell_value", "lhv_bound",
        "lhv_strategies", "lhv_table", "violation_ratio",
        "ratio_lower_bound", "margin_ratio_lower_bound",
        "asymptotic_ratio_one_way", "asymptotic_ratio_two_way",
        "one_way_correlations", "nonlinear_bell_check", "observation_bound",
        "one_way_linear_bell",
    ),
}
_HOME_OF = {name: home for home, names in _HOMES.items() for name in names}

__all__ = ["__version__", *_HOME_OF]


def __getattr__(name):
    home = _HOME_OF.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
