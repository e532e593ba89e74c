"""Exception types raised across the weldnet package."""


class WeldnetError(Exception):
    """Base class for all weldnet errors.

    Errors pickle with their message and fields (worker processes hand
    them back that way): an error is rebuilt from its args and attributes
    without calling __init__, whose signature differs from class to class.
    """

    def __reduce__(self):
        return _rebuilt, (type(self), self.args, self.__dict__)


def _rebuilt(cls, args, fields):
    error = cls.__new__(cls)
    error.args = args
    error.__dict__.update(fields)
    return error


# --- dataset ---

class MissingHeader(WeldnetError):
    """CSV file has no header row (empty file or a numeric first line)."""


class UnprefixedColumn(WeldnetError):
    """CSV header column lacks the iwp:/dwp: prefix."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} is not prefixed with 'iwp:' or 'dwp:'")


class DuplicateColumn(WeldnetError):
    """CSV header names one feature or one target twice."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"column {name!r} appears more than once in the header")


class BadColumnName(WeldnetError):
    """A column name a CSV header cannot carry: load_csv splits cells at
    commas and lines at line ends, reads quotes as text and strips
    trailing whitespace."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"column name {name!r} cannot be written to a CSV "
                         "header (it holds a comma, a quote, a line end or "
                         "trailing whitespace)")


class ParseError(WeldnetError):
    """A CSV body cell failed to parse as a decimal number."""

    def __init__(self, row, col, text=""):
        self.row = row
        self.col = col
        super().__init__(f"cannot parse cell at data row {row}, column {col}: {text!r}")


class EmptyDataset(WeldnetError):
    """File or dataset carries no usable rows/columns."""


class ConstantColumn(WeldnetError):
    """A feature column has zero sample standard deviation."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"feature column {index} is constant; cannot standardize")


class DegreeOutOfRange(WeldnetError):
    """Polynomial expansion degree outside [0, 6]."""


class TooFewRows(WeldnetError):
    """Not enough rows to perform the requested split."""


class SchemaMismatch(WeldnetError):
    """Datasets to combine do not share identical column names."""


# --- linear algebra / training ---

class DimensionMismatch(WeldnetError):
    """Matrix dimensions incompatible with the block's weights."""


class LengthMismatch(WeldnetError):
    """Paired vectors have different lengths."""


class Diverged(WeldnetError):
    """Training produced a non-finite weight or cost."""

    def __init__(self, iteration, trace=None, target=None):
        self.iteration = iteration
        self.trace = trace
        self.target = target
        where = f" in block {target!r}" if target else ""
        super().__init__(f"training diverged at iteration {iteration}{where}")


# --- metrics ---

class EmptyInput(WeldnetError):
    """Metric invoked on zero-length vectors."""


class AllTargetsZero(WeldnetError):
    """Every target value is zero; prediction error is undefined."""


class TooFewSamples(WeldnetError):
    """Statistic requires more samples than were given."""


class ConstantInput(WeldnetError):
    """Statistic undefined for a constant vector."""


class NonFiniteInput(WeldnetError):
    """Statistic given a NaN or infinite value."""


# --- persistence / CLI ---

class IoError(WeldnetError):
    """File could not be read or written."""


class FormatError(WeldnetError):
    """Model file has an unknown version tag or malformed structure."""

    def __init__(self, version, detail=""):
        self.version = version
        super().__init__(f"bad model file: {detail}" if detail
                         else f"unsupported model file version: {version!r}")


class ConfigError(WeldnetError):
    """Experiment configuration is invalid or incomplete."""


class WorkerDied(WeldnetError):
    """A worker process ended before handing back its result (killed, for
    example, by the out-of-memory killer)."""
