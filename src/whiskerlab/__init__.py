"""whiskerlab: whisker-array tactile sensing toolkit.

Pipeline stages: camera frames -> taxel matrices -> (rows + cols)-channel
feature streams -> event-triggered fixed-length captures -> analysis (speed,
direction) and texture classification.  A deterministic slide simulator
stands in for the physical rig so the whole pipeline is verifiable
end to end.
"""

from . import analysis, events, features, learn, sim, taxel_grid
from .analysis import (
    DurationConfig,
    RegressionFit,
    event_duration,
    fit_log_regression,
    identify_direction,
)
from .errors import (
    CalibrationUnderrunError,
    ConfigError,
    DataFileError,
    DatasetBuildError,
    DegenerateFitError,
    DegenerateModelError,
    DirectionIndeterminateError,
    WhiskerlabError,
)
from .events import DetectorConfig, TactileSample, capture_samples, scan
from .features import EPSILON, features_array, features_stream
from .learn.dataset import SampleLabel
from .sim import (
    SPECIMENS,
    SlideConfig,
    TextureSpec,
    WhiskerArraySpec,
    height_profile,
    simulate_slide,
)
from .taxel_grid import (
    TactileFrame,
    TaxelGridConfig,
    TaxelMatrix,
    TaxelStream,
    extract_taxels,
    render_frame,
    taxel_array,
)

__version__ = "0.1.0"
