"""Exception types shared across the package.

The CLI maps these onto exit codes: SchemaError (and I/O failures) exit 2,
ConfigError (and failures to read the config file or a file it names) exit 3,
everything else raised during an analysis exits 1.
"""


class MatchFlowError(Exception):
    """Base class for errors raised by matchflow."""


class SchemaError(MatchFlowError, ValueError):
    """An input file or table does not match the expected schema."""


class DataError(MatchFlowError, ValueError):
    """Input is structurally valid but unusable for the requested analysis."""


class ConfigError(MatchFlowError, ValueError):
    """A run configuration is inconsistent or incomplete."""
