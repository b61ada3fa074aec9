"""Fixture: both fields are enforced on both surfaces."""


class TimingParams:
    trcd: int = 10
    tfoo: int = 5
