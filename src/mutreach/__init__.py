"""Mutual-reachability certificates for Petri nets and their compilation
into quantifier-free Presburger formulas."""

from .net import Action, Blocked, NetError, PetriNet, can_fire, displacement, fire, hurdle
from .lattice import LatticeRepresentation, lattice_contains, representation_from_generators
from .unfolding import (
    EnumLimits,
    Unfolding,
    UnfoldingError,
    UnfoldingPath,
    enumerate_unfoldings,
    is_structurally_reversible,
    unfolding_from_sccc,
    validate_unfolding,
)
from .steinitz import VectorBag, prefix_safe_reorder, prune_zero_subsequences, steinitz_permutation
from .extraction import (
    Execution,
    Extractor,
    extract_along_word,
    maximal_small_set,
    minimal_m_adapted,
    rackoff_shorten,
    reference_extractor,
)
from .witness import (
    MutualWitness,
    PumpingParams,
    WitnessRejected,
    check_witness,
    completeness_probe,
    membership_upward,
    search_witness,
    synthesize_path,
    upward_basis,
)
from .presburger import (
    BottomFormula,
    MutualFormula,
    compile_bottom,
    compile_mutual,
    eval_bottom,
    eval_mutual,
)
from .oracle import BoundedStateSpace

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
