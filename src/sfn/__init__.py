"""Synthetic particle-picking simulations.

Template matching on pure noise extracts patches whose class averages and
reconstructions reproduce the picking templates; this package builds the
whole loop (noise synthesis, picking, EM, validation metrics) so that the
effect can be measured and guarded against.
"""

from .config import ExperimentConfig, parse_config, parse_config_text
from .em import (
    Gmm2dConfig,
    Gmm2dState,
    Recon3dConfig,
    Recon3dState,
    em_classify2d,
    em_reconstruct3d,
    load_gmm_state,
    load_recon_state,
    save_gmm_state,
    save_recon_state,
)
from .errors import (
    ArgumentError,
    ConfigError,
    DegenerateDataError,
    DegenerateTemplateError,
    SaturationError,
    SfnError,
    ShapeError,
    UndefinedCorrelationError,
)
from .experiments import (
    ExperimentResult,
    decoy_volume,
    git_blob_hash,
    phantom_volume,
    run_experiment,
    split_halves,
)
from .metrics import (
    BiasReport,
    ComplexityFit,
    FscCurve,
    best_rotation_pcc,
    complexity_probe,
    fsc,
    fsc_resolution,
    match_classes,
    mean_fsc_below,
    pcc,
)
from .noisegen import (
    NoiseSpec,
    PlantRecord,
    SyntheticField,
    draw_positions,
    gaussian_field,
    plant_particles,
    read_truth,
    write_truth,
)
from .picker import (
    PickSet,
    correlation_map,
    load_picks,
    pick_iid,
    pick_micrograph,
    pick_random,
    save_picks,
)
from .preview import export_preview
from .templates import (
    TemplateSet,
    external_templates,
    load_templates,
    lowpass,
    make_projection_templates,
    make_rotation_templates,
    save_templates,
)
from .tensors import (
    Rotation,
    RotationGrid,
    as_tensor,
    project_volume,
    read_tensor,
    rotate_volume,
    sample_rotation_grid,
    write_tensor,
)
from .truncgauss import (
    TruncMixture,
    TruncSpec,
    effective_variance,
    log_normalizer,
    normalizer,
    sample_component,
    sample_mixture,
    trunc_mean,
    trunc_var,
)

