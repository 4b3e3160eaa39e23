"""Edge-emitting hidden Markov machines and their history reconstructions."""

from .axioms import (
    AxiomReport,
    StatePartition,
    distinctness_partition,
    find_sync_word,
    is_generator_em,
    is_irreducible,
    is_unifilar,
    separating_word,
)
from .errors import (
    ClassExplosionError,
    EmtoolError,
    ImpossibleSymbolError,
    InconsistentBlockError,
    InsufficientDataError,
    MachineFormatError,
    NotIrreducibleError,
    NotIrreducibleShiftError,
    NotUnifilarError,
    NumericalError,
    ReconstructionError,
)
from .fileio import load_machine, parse_machine, save_machine, serialize_machine
from .isomorphism import Isomorphism, are_isomorphic
from .machine import (
    Alphabet,
    LabeledMatrixMachine,
    StationaryDistribution,
    ValidationReport,
    stationary_distribution,
    validate,
    word_prob,
)
from .minimize import QuotientMap, minimize_unifilar
from .mixed_state import (
    DecayEstimate,
    SyncQuantities,
    belief_of_word,
    belief_update,
    estimate_decay,
    sync_quantities,
)
from .reconstruct import (
    ContextModel,
    ReconstructedMachine,
    reconstruct_analytic,
    reconstruct_empirical,
)
from .simulate import (
    EmpiricalWordTable,
    SampleRun,
    empirical_word_probs,
    sample_path,
)
from .sofic import (
    Dfa,
    KriegerCover,
    LabeledGraph,
    fischer_cover,
    krieger_states,
    minimal_dfa,
    strip_probabilities,
    trim_essential,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
