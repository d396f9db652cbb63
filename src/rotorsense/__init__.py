"""Propeller tachometry from event-camera streams.

Estimates rotational speeds by warping per-propeller event batches to a
reference time and maximizing a dual-reward alignment objective, infers
flight commands from multi-rotor speed patterns, and fuses the derived
motion priors with GPS in an EKF. A built-in simulator provides ground
truth for every stage.
"""

from .batching import (
    StopReason,
    consistency_rate,
    density_downsample,
    grow_batch,
    local_density,
)
from .commands import (
    CommandModel,
    load_model,
    predict_command,
    save_model,
    train_command_model,
)
from .dynamics import COMMANDS, command_rpm_pattern, rpm_to_rad_s
from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    EstimationError,
    NumericalError,
    RotorSenseError,
)
from .events import (
    Event,
    EventBatch,
    EventBundle,
    Events,
    SensorGeometry,
    read_events,
    slice_bundles,
    write_events,
)
from .fusion import FusedState, KinematicPredictor, run_fusion
from .metrics import localization_error, rmae
from .motion import (
    ObjectiveEvaluator,
    SpeedEstimate,
    estimate_speed,
)
from .preprocess import HeatmapPair, PropellerTrack, build_heatmaps, filter_noise, segment_propellers
from .sim import (
    ConstantSpeed,
    DroneSpec,
    GroundTruth,
    NoiseSpec,
    PropellerSpec,
    RampSpeed,
    SpeedProfile,
    StepSpeed,
    simulate_flight,
    simulate_propellers,
)

__version__ = "0.1.0"
