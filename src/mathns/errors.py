"""Exception types raised across the package."""


class MathnsError(Exception):
    """Base class for all package-specific errors."""


class UnbalancedFormulaDelimiter(MathnsError):
    """Document text contains an odd number of ``$`` delimiters."""


class DuplicateDocId(MathnsError):
    """Two documents in one corpus share a doc_id."""


class ExcludedSymbol(MathnsError):
    """A symbol falls into an excluded Unicode block or stop list."""


class UnknownPlaceholder(MathnsError):
    """A formula placeholder does not resolve to an extracted formula."""


class UnterminatedLink(MathnsError):
    """A ``[[`` link opener has no matching ``]]`` in its sentence."""


class IdentifierNotInDocument(MathnsError):
    """The queried identifier never occurs in the document."""


class EmptyVocabulary(MathnsError):
    """No dimension survived the document-frequency filter."""


class WeightDomainError(MathnsError):
    """TF-IDF inputs outside the valid domain (tf = 0 or df = 0)."""


class RankTooLarge(MathnsError):
    """Requested factorization rank exceeds min(m, n)."""


class NegativeInput(MathnsError):
    """NMF input matrix has negative entries."""


class KTooLarge(MathnsError):
    """More clusters requested than there are data points."""


class EpsNotBelowK(MathnsError):
    """SNN clustering requires eps < K."""


class TooManyDocuments(MathnsError):
    """Input exceeds the O(n^2) guard of agglomerative clustering."""


class EmptyCluster(MathnsError):
    """Purity of an empty cluster is undefined."""


class NoRelationsInCluster(MathnsError):
    """A namespace cannot be built from a cluster without relations."""


class EmptyScheme(MathnsError):
    """Hierarchy mapping needs at least one category."""


class ConfigError(MathnsError):
    """Pipeline configuration is invalid or references missing files."""


class StageError(MathnsError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
