from .costs import PqcBandit, QaoaBandit, expected_reward
from .graphs import Graph, cut_values, erdos_renyi
from .statevector import (MAX_QUBITS, apply_cz, apply_hadamard, apply_phase,
                          apply_rotation, num_qubits, probabilities,
                          zero_state)

__all__ = [
    "Graph", "MAX_QUBITS", "PqcBandit", "QaoaBandit",
    "apply_cz", "apply_hadamard", "apply_phase", "apply_rotation",
    "cut_values", "erdos_renyi", "expected_reward", "num_qubits",
    "probabilities", "zero_state",
]
