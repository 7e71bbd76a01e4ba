"""Exception taxonomy shared by all modules; an exception carries only its message."""


class KitError(Exception):
    """Base class for all alexkit errors."""


class Refusal(KitError):
    """A precondition is not met; the operation refuses to run.

    The CLI maps this to exit code 2.
    """


class FlowStalled(KitError):
    """A discrete gradient curve found no candidate step."""
