"""qwmark: desk-scale simulator for watermarking PRFs against quantum pirates.

The package splits into three layers.  `qcore`/`spectral`/`api` hold the
measurement machinery: states, binary projective measurements, the projective
implementation of a mixture of projectors, and its estimation-based
approximation.  `crypto`/`pe`/`elwm` hold the classical stack: a tree PRF, an
injective puncturable PRF, puncturable encryption, and the watermarkable PRF
built from them.  `pirates`/`wmprf`/`cli` tie the two together: adversary
models, bit-by-bit mark extraction, and the command-line frontend.

The convenience imports below cover the common entry points; the individual
modules remain the authoritative namespaces.
"""

from .api import ApiParams, api_exact, api_fast, distribution_povm, run_api
from .elwm import ElwmParams, build_distribution, eval_prf, gen, mark, sim
from .errors import QwmarkError
from .pirates import (
    PirateSpec,
    anti_pirate,
    build_pirate,
    classical_pirate,
    coin_pirate,
    honest_pirate,
    noisy_pirate,
    superposed_pirate,
)
from .qcore import QuantumProgram, StateVector, UnitaryOracle
from .spectral import (
    MixedBinaryPOVM,
    OutcomeDistribution,
    projimp,
    shift_distance,
    spectral_measurement,
)
from .wmprf import (
    ExtractParams,
    ExtractionReport,
    classify_events,
    extract,
    live_probe,
    run_event_trial,
    wm_gen,
    wm_mark,
)

__version__ = "0.1.0"

__all__ = [
    "ApiParams",
    "ElwmParams",
    "ExtractParams",
    "ExtractionReport",
    "MixedBinaryPOVM",
    "OutcomeDistribution",
    "PirateSpec",
    "QuantumProgram",
    "QwmarkError",
    "StateVector",
    "UnitaryOracle",
    "anti_pirate",
    "api_exact",
    "api_fast",
    "build_distribution",
    "build_pirate",
    "classical_pirate",
    "classify_events",
    "coin_pirate",
    "distribution_povm",
    "eval_prf",
    "extract",
    "gen",
    "honest_pirate",
    "live_probe",
    "mark",
    "noisy_pirate",
    "projimp",
    "run_api",
    "run_event_trial",
    "shift_distance",
    "sim",
    "spectral_measurement",
    "superposed_pirate",
    "wm_gen",
    "wm_mark",
    "__version__",
]
