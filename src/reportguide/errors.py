"""Exception hierarchy shared across the pipeline.

`PipelineError` has four direct subclasses, one per process exit code, each
declaring its `exit_code` and the `label` the CLI logs it under: `ConfigError`
(2), `GatewayError` (3), `DataError` (4) and `PrerequisiteError` (5). Each
error the package raises is one of these seven classes, and each has a
catcher: `cli.main` catches `PipelineError`; `schema._section` reads a
`ConfigError`'s `field`, and `schema.check_values` catches it;
`cli._last_run` catches `PrerequisiteError`; the reprompt path catches
`LLMOutputError`, and each task's policy tells it apart from other gateway
errors; a caller trying seeds in turn catches `SyntheticSeedError` as an
`AssertionError`. A new class needs a catcher of its own.
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
    """Malformed or inconsistent input data or artifact, a run that cannot
    complete on its data, or an artifact that could not be written."""

    exit_code, label = 4, "data error"


class GatewayError(PipelineError):
    """Failure while talking to an LLM or report generation backend."""

    exit_code, label = 3, "gateway error"


class LLMOutputError(GatewayError):
    """LLM output stayed unparseable after the single reprompt."""


class PrerequisiteError(PipelineError):
    """A CLI stage was invoked before the stage that produces its inputs."""

    exit_code, label = 5, "missing prerequisite"
