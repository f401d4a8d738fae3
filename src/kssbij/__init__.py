"""Crystal combinatorics for type A: rectangular tableaux, the combinatorial
R-matrix with energy, box-ball time evolutions, rigged configurations, and the
KSS correspondence computed by box addition and box removal, and from energy
functions."""

from kssbij.evolution import (
    LocalEnergyDistribution,
    Path,
    carrier_sweep,
    energy_matrix,
    local_energy_distribution,
    time_evolution,
    total_energy,
)
from kssbij.kss import (
    linearized_image,
    SolitonGroup,
    compute_rigging,
    extract_groups,
    phi,
    phi_energy,
    phi_inverse,
    quantum_space_of,
    removal_order_equivalence,
    remove_row,
)
from kssbij.rigged import (
    RiggedConfiguration,
    q_l,
    vacancy,
    validate,
)
from kssbij.rmatrix import (
    TensorPair,
    apply_R,
    energy_H,
    product_tableau,
)
from kssbij.tableaux import (
    Tableau,
    enumerate_kr,
    highest_element,
    insert,
    insert_word,
    inverse_insert,
    row_word,
)

__version__ = "0.1.0"

__all__ = [
    "LocalEnergyDistribution",
    "Path",
    "RiggedConfiguration",
    "SolitonGroup",
    "Tableau",
    "TensorPair",
    "apply_R",
    "carrier_sweep",
    "compute_rigging",
    "energy_H",
    "energy_matrix",
    "enumerate_kr",
    "extract_groups",
    "highest_element",
    "insert",
    "insert_word",
    "inverse_insert",
    "linearized_image",
    "local_energy_distribution",
    "phi",
    "phi_energy",
    "phi_inverse",
    "product_tableau",
    "q_l",
    "quantum_space_of",
    "removal_order_equivalence",
    "remove_row",
    "row_word",
    "time_evolution",
    "total_energy",
    "vacancy",
    "validate",
    "__version__",
]
