"""Benchmark instance parsing, truncation, requirement augmentation and the
normalized COPTW file format.

Two published benchmark layouts are read:

* The Solomon-derived TOPTW layout (``c100``/``r100``/``rc100`` style files).
  Banner lines starting with ``*`` and blank lines are skipped, as are any
  short header lines before the first data row.  Data rows are whitespace
  separated; the first five fields are ``id x y duration reward``, the last
  two are ``open close``, anything in between (visit combination columns) is
  ignored.  The first data row is the depot (id 0) and the planning horizon
  equals its closing time.

* The Cordeau ``pr`` layout.  The first non-comment line is a header
  ``m n tmax`` (suggested team size, customer count, horizon); it is followed
  by exactly ``n + 1`` data rows in the same field convention, depot first.
  The horizon comes from the header and overrides the depot's closing time.

The normalized COPTW format written/read here is documented in the README:

    COPTW 1
    N P TMAX V
    id x y duration reward open close requirement   (N rows, depot first)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


class ParseError(ValueError):
    """A benchmark or COPTW file does not conform to its layout."""


class ValidationError(ValueError):
    """Parsed data violates an instance invariant (e.g. open > close)."""


@dataclass
class Vertex:
    id: int
    x: float
    y: float
    duration: float
    reward: float
    open: float
    close: float


@dataclass
class RawInstance:
    """A parsed benchmark instance before requirements are attached.

    vertices[0] is always the depot; t_max is the planning horizon shared by
    every team member.
    """

    vertices: list[Vertex]
    t_max: float

    def __post_init__(self):
        _validate_vertices(self.vertices)

    @property
    def n_customers(self) -> int:
        return len(self.vertices) - 1


@dataclass
class Instance:
    """A cooperative instance: vertices plus per-vertex member requirements,
    team size, horizon and travel velocity.

    requirements[i] is the number of team members that must start service
    simultaneously at vertex i to collect its reward; the depot requirement
    is 0.  Travel time between vertices is Euclidean distance / velocity.
    """

    vertices: list[Vertex]
    requirements: list[int]
    team_size: int
    t_max: float
    velocity: float = 1.0

    def __post_init__(self):
        _validate_vertices(self.vertices)
        if len(self.requirements) != len(self.vertices):
            raise ValidationError("one requirement per vertex expected")
        if self.requirements[0] != 0:
            raise ValidationError("depot requirement must be 0")
        if any(r < 1 for r in self.requirements[1:]):
            raise ValidationError("customer requirements must be at least 1")
        if self.team_size < 1:
            raise ValidationError("team size must be at least 1")
        if not 0 < self.velocity < float("inf"):  # NaN fails both comparisons
            raise ValidationError(f"velocity must be positive and finite, got {self.velocity}")
        depot = self.vertices[0]
        if depot.duration != 0:
            raise ValidationError("depot service duration must be 0")
        if depot.open != 0:
            # members leave at time 0; a later depot opening would make the
            # schedule and the arc predicate disagree
            raise ValidationError("depot must open at time 0")
        if depot.close != self.t_max:
            raise ValidationError(
                f"depot closing time {depot.close} must equal horizon {self.t_max}"
            )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_customers(self) -> int:
        return len(self.vertices) - 1


def _validate_vertices(vertices: list[Vertex]) -> None:
    if not vertices:
        raise ValidationError("instance has no depot vertex")
    for v in vertices:
        for field in ("x", "y", "duration", "reward", "open", "close"):
            value = getattr(v, field)
            if value != value or value in (float("inf"), float("-inf")):
                raise ValidationError(f"vertex {v.id}: non-finite {field}")
        if min(v.duration, v.reward, v.open, v.close) < 0:
            raise ValidationError(f"vertex {v.id}: negative time or reward")
        if v.open > v.close:
            raise ValidationError(
                f"vertex {v.id}: window opens at {v.open} after closing at {v.close}"
            )
    if vertices:
        depot = vertices[0]
        if depot.reward != 0:
            raise ValidationError("depot reward must be 0")


def _check_team_size(instance: Instance) -> Instance:
    """Reject a team larger than max(1, the sum of the requirements): the
    extra members could never be needed, and the solvers allocate per
    member.  read_coptw and augment check it; Instance itself does not."""
    limit = max(1, sum(instance.requirements))
    if instance.team_size > limit:
        raise ValidationError(
            f"team size {instance.team_size} exceeds {limit}, the sum of the requirements"
        )
    return instance


def _data_rows(text: str):
    """Yield (line_number, fields) for non-comment lines of a benchmark file."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("*"):
            continue
        yield lineno, stripped.split()


def _parse_vertex(lineno: int, fields: list[str], expect_id: int) -> Vertex:
    # id x y duration reward [ignored...] open close
    if len(fields) < 7:
        raise ParseError(f"line {lineno}: expected at least 7 fields, got {len(fields)}")
    try:
        vid = int(fields[0])
        x, y, duration, reward = (float(f) for f in fields[1:5])
        open_, close = float(fields[-2]), float(fields[-1])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None
    if vid != expect_id:
        raise ParseError(f"line {lineno}: expected vertex id {expect_id}, got {vid}")
    if open_ > close:
        raise ValidationError(
            f"line {lineno}: vertex {vid} window opens at {open_} after closing at {close}"
        )
    return Vertex(vid, x, y, duration, reward, open_, close)


def parse_solomon(text: str) -> RawInstance:
    """Parse a Solomon-derived TOPTW benchmark file.

    Header lines (fewer than 7 fields) before the first data row are skipped;
    the first data row must be the depot with id 0.  The horizon is the
    depot's closing time.
    """
    vertices: list[Vertex] = []
    for lineno, fields in _data_rows(text):
        if not vertices and len(fields) < 7:
            continue  # leading size/capacity header
        vertices.append(_parse_vertex(lineno, fields, expect_id=len(vertices)))
    if not vertices:
        raise ParseError("no depot row found")
    return RawInstance(vertices=vertices, t_max=vertices[0].close)


def parse_cordeau(text: str) -> RawInstance:
    """Parse a Cordeau pr-style benchmark file.

    The header row is ``m n tmax``; exactly ``n + 1`` data rows must follow,
    depot first.  The header horizon is authoritative and becomes the depot's
    closing time.
    """
    rows = list(_data_rows(text))
    if not rows:
        raise ParseError("empty file")
    lineno, header = rows[0]
    if len(header) != 3:
        raise ParseError(f"line {lineno}: header must be 'm n tmax', got {len(header)} fields")
    try:
        int(header[0])
        n = int(header[1])
        t_max = float(header[2])
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None
    if n < 0 or t_max < 0:
        raise ParseError(f"line {lineno}: negative count or horizon")
    body = rows[1:]
    if len(body) != n + 1:
        raise ParseError(
            f"header announces {n} customers but file has {len(body) - 1}"
        )
    vertices = [
        _parse_vertex(lineno, fields, expect_id=i)
        for i, (lineno, fields) in enumerate(body)
    ]
    depot = vertices[0]
    vertices[0] = dataclasses.replace(depot, open=min(depot.open, t_max), close=t_max)
    return RawInstance(vertices=vertices, t_max=t_max)


def parse_benchmark(text: str, layout: str = "auto") -> RawInstance:
    """Parse either supported benchmark layout.

    With layout='auto' a 3-field first data line selects the Cordeau layout,
    anything else the Solomon-derived one; if the selected parser rejects
    the file the other one is tried before giving up.
    """
    if layout == "solomon":
        return parse_solomon(text)
    if layout == "cordeau":
        return parse_cordeau(text)
    if layout != "auto":
        raise ValueError(f"unknown layout {layout!r}")
    first = next(iter(_data_rows(text)), None)
    guess = parse_cordeau if first is not None and len(first[1]) == 3 else parse_solomon
    other = parse_solomon if guess is parse_cordeau else parse_cordeau
    try:
        return guess(text)
    except (ParseError, ValidationError) as primary:
        try:
            return other(text)
        except (ParseError, ValidationError):
            raise ParseError(f"not a recognized benchmark layout: {primary}") from None


def truncate(raw: RawInstance, n: int) -> RawInstance:
    """Keep the depot and the first n customers in file order."""
    if not 1 <= n <= raw.n_customers:
        raise ValueError(f"n must be in 1..{raw.n_customers}, got {n}")
    return RawInstance(
        vertices=[dataclasses.replace(v) for v in raw.vertices[: n + 1]],
        t_max=raw.t_max,
    )


_MASK64 = (1 << 64) - 1


def splitmix64(seed: int, count: int) -> list[int]:
    """First `count` outputs of the SplitMix64 generator seeded with `seed`.

    SplitMix64 (Steele, Lea and Vigna's fixed-increment variant) is used for
    requirement draws because its output is identical on every platform and
    Python version, so augmented benchmark suites are reproducible anywhere.
    """
    out = []
    x = seed & _MASK64
    for _ in range(count):
        x = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(z ^ (z >> 31))
    return out


def augment(
    raw: RawInstance,
    seed: int,
    r_max: int = 3,
    team_size: int = 1,
    velocity: float = 1.0,
) -> Instance:
    """Attach a member requirement to every customer.

    Each customer independently draws its requirement uniformly from
    {1, ..., r_max} using SplitMix64 keyed on `seed`; the k-th customer in
    file order consumes the k-th output, so a truncated instance receives the
    same values as the full one for the customers they share.  Nothing else
    about the benchmark data is altered.  A team size above the sum of the
    requirements raises ValidationError.
    """
    if r_max < 1:
        raise ValueError("r_max must be at least 1")
    draws = splitmix64(seed, raw.n_customers)
    requirements = [0] + [1 + (u % r_max) for u in draws]
    return _check_team_size(Instance(
        vertices=[dataclasses.replace(v) for v in raw.vertices],
        requirements=requirements,
        team_size=team_size,
        t_max=raw.t_max,
        velocity=velocity,
    ))


def write_coptw(instance: Instance) -> str:
    """Serialize an instance to the normalized COPTW text format."""
    lines = [
        "COPTW 1",
        f"{instance.n_vertices} {instance.team_size} {instance.t_max!r} {instance.velocity!r}",
    ]
    for v, r in zip(instance.vertices, instance.requirements):
        lines.append(
            f"{v.id} {v.x!r} {v.y!r} {v.duration!r} {v.reward!r} {v.open!r} {v.close!r} {r}"
        )
    return "\n".join(lines) + "\n"


def read_coptw(text: str) -> Instance:
    """Parse the normalized COPTW format; inverse of write_coptw.  A team
    size above the sum of the requirements raises ValidationError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty COPTW file")
    magic = lines[0].split()
    if magic != ["COPTW", "1"]:
        raise ParseError(f"unsupported format header {lines[0]!r}, expected 'COPTW 1'")
    if len(lines) < 2:
        raise ParseError("missing size header")
    head = lines[1].split()
    if len(head) != 4:
        raise ParseError("size header must be 'N P TMAX V'")
    try:
        n, team_size = int(head[0]), int(head[1])
        t_max, velocity = float(head[2]), float(head[3])
    except ValueError as exc:
        raise ParseError(f"size header: {exc}") from None
    body = lines[2:]
    if len(body) != n:
        raise ParseError(f"header announces {n} vertices but file has {len(body)}")
    vertices: list[Vertex] = []
    requirements: list[int] = []
    for i, line in enumerate(body):
        fields = line.split()
        if len(fields) == 7:
            raise ParseError(f"vertex row {i}: missing the requirement column")
        if len(fields) != 8:
            raise ParseError(f"vertex row {i}: expected 8 fields, got {len(fields)}")
        try:
            vid = int(fields[0])
            x, y, duration, reward, open_, close = (float(f) for f in fields[1:7])
            req = int(fields[7])
        except ValueError as exc:
            raise ParseError(f"vertex row {i}: {exc}") from None
        if vid != i:
            raise ParseError(f"vertex row {i}: expected id {i}, got {vid}")
        vertices.append(Vertex(vid, x, y, duration, reward, open_, close))
        requirements.append(req)
    return _check_team_size(Instance(
        vertices=vertices,
        requirements=requirements,
        team_size=team_size,
        t_max=t_max,
        velocity=velocity,
    ))
