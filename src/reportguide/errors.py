"""Exception hierarchy shared across the pipeline.

`PipelineError` has four direct subclasses, one per process exit code, each
declaring its `exit_code` and the `label` the CLI logs it under. Every other
error is on exactly one of those branches, and exits with its code.
"""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for every error raised by this package."""

    exit_code: int
    label: str


class ConfigError(PipelineError):
    """Invalid configuration: bad field values, missing API key env, bad flags.
    `field` names the declared field a bad value was given to, if any."""

    exit_code, label = 2, "configuration error"

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class SyntheticSeedError(ConfigError, AssertionError):
    """A `synth` seed whose corpus fails its own construction guard. It is an
    AssertionError too, so a caller that moves to the next seed catches it."""


class DataError(PipelineError):
    """Malformed or inconsistent input data, or an artifact that could not be written."""

    exit_code, label = 4, "data error"


class ManifestError(DataError):
    """Manifest file could not be parsed or violates record invariants."""


class FeatureFormatError(DataError):
    """Feature file or its sidecar cannot be read or violates the binary layout."""


class FeatureValidationError(DataError):
    """Feature values fail validation (non-finite entries, id mismatches)."""


class GatewayError(PipelineError):
    """Failure while talking to an LLM or report generation backend."""

    exit_code, label = 3, "gateway error"


class TransportError(GatewayError):
    """HTTP transport gave up: retries exhausted or a non-retryable status."""


class MockContractError(GatewayError):
    """The mock backend received a request it has no deterministic handler for."""


class LLMOutputError(GatewayError):
    """LLM output stayed unparseable after the single reprompt. Carries raw text."""

    def __init__(self, message: str, raw_text: str = ""):
        super().__init__(message)
        self.raw_text = raw_text


class BootstrapError(DataError):
    """Taxonomy bootstrap could not complete."""


class MergeBudgetError(BootstrapError):
    """A single label set does not fit under the merge token budget."""


class MergeProgressError(BootstrapError):
    """A merge round failed to reduce the number of label sets."""


class EmptyTaxonomyError(BootstrapError):
    """Frequency filtering removed every label."""


class TrainingError(DataError):
    """Classifier training could not run or did not converge, or a checkpoint
    is damaged or bound to another taxonomy."""


class DivergenceError(TrainingError):
    """Loss became non-finite. Carries the epoch and batch where it happened."""

    def __init__(self, message: str, epoch: int, batch: int):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class GenerationError(GatewayError):
    """A report generation backend failed."""


class GeneratedFileError(DataError):
    """A generated-report file breaks its contract: see `guidance.load_generated`."""


class ArtifactWriteError(DataError):
    """An artifact could not be written (disk full, I/O error, no permission)."""


class PrerequisiteError(PipelineError):
    """A CLI stage was invoked before the stage that produces its inputs."""

    exit_code, label = 5, "missing prerequisite"
