from .costs import PqcBandit, QaoaBandit, expected_reward, zeros_fractions
from .graphs import (Graph, complete_graph, cut_values, erdos_renyi,
                     maxcut_bruteforce, path_graph, read_graph, write_graph)
from .statevector import (MAX_QUBITS, apply_cz, apply_hadamard, apply_phase,
                          apply_rotation, norm, num_qubits, probabilities,
                          zero_state)

__all__ = [
    "Graph", "MAX_QUBITS", "PqcBandit", "QaoaBandit",
    "apply_cz", "apply_hadamard", "apply_phase", "apply_rotation",
    "complete_graph", "cut_values", "erdos_renyi", "expected_reward",
    "maxcut_bruteforce", "norm", "num_qubits", "path_graph",
    "probabilities", "read_graph", "write_graph", "zero_state",
    "zeros_fractions",
]
