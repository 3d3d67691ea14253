"""The toolkit's one exception type."""


class SimvcError(ValueError):
    """Invalid input to the toolkit: bad parameters, sizes, indices or specs.

    A ``ValueError``, so callers that catch ``ValueError`` catch it too; the
    message says which check failed.
    """
