"""Clock-Hamiltonian compiler and numerical workbench for quantum verifier
circuits.

Compiles small verifier circuits into 3-local clock Hamiltonians, computes
their low spectra, extracts high-acceptance witnesses from low-energy
states, and tabulates majority-vote and thermal decision bounds.
Desk scale: dense linear algebra up to 12 qubits, matrix-free up to 16.
"""

# each module's __all__ is its public names; the star imports re-export
# exactly those, and the package's __all__ is their union
from .errors import *  # noqa: F401,F403
from .qcore import *  # noqa: F401,F403
from .circuit import *  # noqa: F401,F403
from .clockham import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .witness import *  # noqa: F401,F403
from .amplify import *  # noqa: F401,F403
from .thermal import *  # noqa: F401,F403
from . import amplify, circuit, clockham, errors, qcore, spectral, thermal, witness

__version__ = "0.1.0"

__all__ = [name for module in (errors, qcore, circuit, clockham, spectral,
                               witness, amplify, thermal)
           for name in module.__all__]
