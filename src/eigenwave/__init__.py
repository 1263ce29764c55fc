"""Frequency-domain acoustic FWI with diffusion-eigenvector model compression."""

from .dataset import FrequencyDataset, load_dataset, save_dataset
from .diffusion import (
    DiffusionSpec,
    assemble_diffusion,
    eval_eta,
    gradient_norms,
    lift_from_operator,
)
from .eigenbasis import (
    DecomposedModel,
    EigenBasis,
    build_basis,
    load_basis,
    project,
    reconstruct,
    save_basis,
    smallest_eigenpairs,
)
from .fileio import read_field, write_field, write_pgm
from .grid import (
    Grid2D,
    Model,
    ScalarField,
    clamp_model,
    relative_error,
    slowness_to_speed,
    speed_to_slowness,
)
from .helmholtz import (
    Acquisition,
    HelmholtzOperator,
    assemble,
    point_source_rhs,
)
from .inversion import (
    InversionConfig,
    InversionHistory,
    gradient_alpha,
    misfit,
    run_inversion,
)
from .synthetics import (
    Dome,
    SaltModelSpec,
    add_data_noise,
    add_model_noise,
    generate_data,
    make_layered_model,
    make_salt_model,
)

__version__ = "0.1.0"
