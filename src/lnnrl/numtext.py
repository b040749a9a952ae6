"""Numbers as this project writes them. `int` and `float` read more (`1_0`
as 10, `+1`, `064`, `٣` as 3, `0_5` as 5.0); each file reader and the
command line's number flags call these instead and raise their own error on
their ValueError."""


def parse_int(raw: str) -> int:
    """`raw` as an integer written as `str(int)` writes one."""
    if str(value := int(raw)) != raw:
        raise ValueError(f"not a canonical integer: {raw!r}")
    return value


def parse_float(raw: str) -> float:
    """`raw` as a float, refusing `_` and non-ASCII text."""
    if "_" in raw or not raw.isascii():
        raise ValueError(f"not a plain float: {raw!r}")
    return float(raw)
