"""Declarative scenarios and the named-scenario registry.

A :class:`Scenario` bundles everything one closed-loop search flight
needs -- room layout, object placement, default policy configuration,
detector operating point, flight time and drone configuration -- as
plain data. Declarative specs (rather than live ``Room``/``SceneObject``
instances) buy three things at once:

- missions ship to ``multiprocessing`` workers as small picklable
  payloads and are rebuilt in-process,
- a scenario serializes to a canonical dict, giving campaigns a stable
  content hash for result persistence,
- presets are data, so new rooms are a registry entry away.

The registry starts with the paper's mocap room plus four synthetic
layouts built on :mod:`repro.world.layouts` (cluttered office, corridor
maze, empty arena, multi-room apartment) and a nightmare variant.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Iterable, List, Optional, Tuple

from repro.drone.crazyflie import CrazyflieConfig
from repro.errors import SimError
from repro.sim.registry import Registry
from repro.geometry.shapes import AABB, Circle
from repro.geometry.vec import Vec2
from repro.world.layouts import (
    apartment_room,
    cluttered_room,
    corridor_maze_room,
    empty_arena_room,
    paper_object_layout,
    paper_room,
    scattered_object_layout,
)
from repro.world.objects import ObjectClass, SceneObject
from repro.world.room import Obstacle, Room


@dataclass(frozen=True)
class ObstacleSpec:
    """Declarative obstacle: an axis-aligned box or a cylinder.

    Attributes:
        kind: ``"box"`` (params ``xmin, ymin, xmax, ymax``) or
            ``"cylinder"`` (params ``cx, cy, radius``).
        params: shape parameters, metres.
        name: optional identifier.
    """

    kind: str
    params: Tuple[float, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("box", "cylinder"):
            raise SimError(f"unknown obstacle kind {self.kind!r}")
        expected = 4 if self.kind == "box" else 3
        if len(self.params) != expected:
            raise SimError(
                f"{self.kind} obstacle needs {expected} params, got {len(self.params)}"
            )

    def build(self) -> Obstacle:
        """Instantiate the live :class:`~repro.world.room.Obstacle`."""
        if self.kind == "box":
            return Obstacle(AABB(*self.params), name=self.name)
        cx, cy, radius = self.params
        return Obstacle(Circle(Vec2(cx, cy), radius), name=self.name)

    @classmethod
    def from_obstacle(cls, obstacle: Obstacle) -> "ObstacleSpec":
        """Describe an existing obstacle declaratively."""
        shape = obstacle.shape
        if isinstance(shape, AABB):
            return cls(
                "box",
                (shape.xmin, shape.ymin, shape.xmax, shape.ymax),
                name=obstacle.name,
            )
        if isinstance(shape, Circle):
            return cls(
                "cylinder",
                (shape.center.x, shape.center.y, shape.radius),
                name=obstacle.name,
            )
        raise SimError(f"cannot describe obstacle shape {type(shape).__name__}")


@dataclass(frozen=True)
class RoomSpec:
    """Declarative room: wall rectangle plus interior obstacles."""

    width: float
    length: float
    obstacles: Tuple[ObstacleSpec, ...] = ()

    def build(self) -> Room:
        """Instantiate the live :class:`~repro.world.room.Room`."""
        return Room(self.width, self.length, [o.build() for o in self.obstacles])

    @classmethod
    def from_room(cls, room: Room) -> "RoomSpec":
        """Describe an existing room declaratively."""
        return cls(
            width=room.width,
            length=room.length,
            obstacles=tuple(ObstacleSpec.from_obstacle(o) for o in room.obstacles),
        )


@dataclass(frozen=True)
class ObjectSpec:
    """Declarative target object placement."""

    object_class: str  #: an :class:`~repro.world.objects.ObjectClass` value
    x: float
    y: float
    name: str = ""

    def build(self) -> SceneObject:
        """Instantiate the live :class:`~repro.world.objects.SceneObject`."""
        return SceneObject(ObjectClass(self.object_class), Vec2(self.x, self.y), name=self.name)

    @classmethod
    def from_object(cls, obj: SceneObject) -> "ObjectSpec":
        """Describe an existing scene object declaratively."""
        return cls(
            object_class=obj.object_class.value,
            x=obj.position.x,
            y=obj.position.y,
            name=obj.name,
        )


@dataclass(frozen=True)
class Scenario:
    """One named, fully reproducible mission setup.

    Attributes:
        name: registry key, e.g. ``"paper-room"``.
        room: declarative room layout.
        objects: target objects placed in the room.
        policy: default exploration policy name.
        cruise_speed: default mean flight speed, m/s.
        ssd_width: default SSD width-multiplier key (``"1.0"``...).
        flight_time_s: default flight duration, s.
        start: optional drone start position ``(x, y)``; ``None`` uses
            the platform default (1 m from the south-west corner).
        start_heading: initial heading, rad (exploration missions).
        noisy: whether the simulated sensors are noisy.
        description: one-line human description for the CLI listing.

    Raises:
        SimError: on an empty name, non-positive cruise speed or
            non-positive flight time.

    Example:
        >>> from repro.sim import ObjectSpec, RoomSpec, Scenario
        >>> demo = Scenario(
        ...     name="demo",
        ...     room=RoomSpec(width=4.0, length=3.0),
        ...     objects=(ObjectSpec("bottle", 2.0, 1.5, "target"),),
        ... )
        >>> demo.build_room().width
        4.0
        >>> Scenario.from_dict(demo.to_dict()) == demo
        True
    """

    name: str
    room: RoomSpec
    objects: Tuple[ObjectSpec, ...] = ()
    policy: str = "pseudo-random"
    cruise_speed: float = 0.5
    ssd_width: str = "1.0"
    flight_time_s: float = 120.0
    start: Optional[Tuple[float, float]] = None
    start_heading: float = 0.0
    noisy: bool = True
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SimError("scenario needs a name")
        if self.cruise_speed <= 0.0:
            raise SimError(f"{self.name}: cruise speed must be positive")
        if self.flight_time_s <= 0.0:
            raise SimError(f"{self.name}: flight time must be positive")

    # -- construction -----------------------------------------------------

    def build_room(self) -> Room:
        """The live room."""
        return self.room.build()

    def build_objects(self) -> List[SceneObject]:
        """The live target objects."""
        return [o.build() for o in self.objects]

    def start_position(self) -> Optional[Vec2]:
        """Drone start position, or ``None`` for the platform default."""
        if self.start is None:
            return None
        return Vec2(*self.start)

    def drone_config(self) -> Optional[CrazyflieConfig]:
        """Platform configuration override (``None`` keeps defaults)."""
        if self.noisy:
            return None
        return CrazyflieConfig(noisy=False)

    def validate(self) -> None:
        """Build the world and check that it is flyable.

        Raises:
            SimError: if an object or the start position is placed inside
                an obstacle or outside the walls.
        """
        room = self.build_room()
        for obj in self.build_objects():
            if not room.is_free(obj.position):
                raise SimError(
                    f"{self.name}: object {obj.name!r} at "
                    f"({obj.position.x:.2f}, {obj.position.y:.2f}) is not in free space"
                )
        start = self.start_position()
        if start is not None and not room.is_free(start, margin=0.1):
            raise SimError(
                f"{self.name}: start ({start.x:.2f}, {start.y:.2f}) is not in free space"
            )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical plain-data form (JSON- and hash-friendly)."""
        return asdict(self)

    def content_hash(self) -> str:
        """Stable SHA-256 hash of the scenario definition.

        The cosmetic ``description`` is excluded, mirroring
        :meth:`repro.sim.campaign.Campaign.campaign_hash`: rewording a
        preset's documentation must not change its identity. Generator
        determinism tests compare this hash across processes. Memoized,
        as :meth:`~repro.exec.jobspec.JobSpec.content_hash` is: the
        scenario is frozen, and a fleet block asks once per member.

        Returns:
            The hex digest as a string.
        """
        cached = self.__dict__.get("_content_hash")
        if cached is None:
            data = self.to_dict()
            data.pop("description", None)
            blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
            cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_content_hash", cached)
        return cached

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        room = data.pop("room")
        objects = data.pop("objects")
        start = data.pop("start")
        return cls(
            room=RoomSpec(
                width=room["width"],
                length=room["length"],
                obstacles=tuple(
                    ObstacleSpec(o["kind"], tuple(o["params"]), o.get("name", ""))
                    for o in room["obstacles"]
                ),
            ),
            objects=tuple(
                ObjectSpec(o["object_class"], o["x"], o["y"], o.get("name", ""))
                for o in objects
            ),
            start=None if start is None else tuple(start),
            **data,
        )


# -- registry -------------------------------------------------------------

#: Preset registry; shares its namespace with the family registry of
#: :mod:`repro.sim.generators` (see :mod:`repro.sim.registry`).
_SCENARIOS: Registry = Registry("scenario")


def register_scenario(scenario: Scenario, overwrite: bool = False) -> Scenario:
    """Add ``scenario`` to the registry (validating its world first).

    Args:
        scenario: the scenario to register.
        overwrite: allow replacing an existing entry of the same name.
            Names owned by a scenario *family* are rejected regardless.

    Returns:
        The registered scenario (handy for chaining).

    Raises:
        SimError: on duplicate names (unless ``overwrite``), on a name
            that would shadow a registered scenario family, or on an
            unflyable world.

    Example:
        >>> from repro.sim import RoomSpec, Scenario, register_scenario
        >>> demo = Scenario(name="doc-demo", room=RoomSpec(width=4.0, length=3.0))
        >>> register_scenario(demo, overwrite=True).name
        'doc-demo'
    """
    return _SCENARIOS.register(
        scenario.name, scenario, overwrite=overwrite, validate=scenario.validate
    )


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name.

    Args:
        name: the registry key, e.g. ``"paper-room"``.

    Returns:
        The registered :class:`Scenario`.

    Raises:
        SimError: for an unknown name, listing the known ones (and
            pointing at the family registry if the name is a family).

    Example:
        >>> from repro.sim import get_scenario
        >>> get_scenario("paper-room").room.width
        6.5
    """
    return _SCENARIOS.get(name)


def scenario_names() -> Tuple[str, ...]:
    """Registered scenario names, sorted.

    Example:
        >>> from repro.sim import scenario_names
        >>> "paper-room" in scenario_names()
        True
    """
    return _SCENARIOS.names()


def iter_scenarios() -> Iterable[Scenario]:
    """Registered scenarios in name order."""
    return _SCENARIOS.values()


def _objects_from(objs: Iterable[SceneObject]) -> Tuple[ObjectSpec, ...]:
    return tuple(ObjectSpec.from_object(o) for o in objs)


def _register_presets() -> None:
    register_scenario(
        Scenario(
            name="paper-room",
            description="the paper's empty 6.5x5.5 m mocap room, 3 bottles + 3 cans",
            room=RoomSpec.from_room(paper_room()),
            objects=_objects_from(paper_object_layout()),
            flight_time_s=180.0,
        )
    )
    office = cluttered_room(n_obstacles=5, seed=42, width=8.0, length=6.0)
    register_scenario(
        Scenario(
            name="cluttered-office",
            description="8x6 m office with 5 random desks/columns (fixed seed)",
            room=RoomSpec.from_room(office),
            objects=_objects_from(scattered_object_layout(office, 6, seed=3)),
            start=(0.6, 0.6),
            flight_time_s=150.0,
        )
    )
    maze = corridor_maze_room()
    register_scenario(
        Scenario(
            name="corridor-maze",
            description="9x7 m S-shaped corridor maze with two partition walls",
            room=RoomSpec.from_room(maze),
            objects=(
                ObjectSpec("bottle", 1.5, 1.0, "bottle-leg1"),
                ObjectSpec("tin_can", 1.0, 6.0, "can-leg1"),
                ObjectSpec("bottle", 4.5, 6.0, "bottle-leg2"),
                ObjectSpec("tin_can", 4.5, 1.2, "can-leg2"),
                ObjectSpec("bottle", 7.5, 1.0, "bottle-leg3"),
                ObjectSpec("tin_can", 8.2, 6.2, "can-leg3"),
            ),
            policy="wall-following",
            start=(0.8, 0.8),
            flight_time_s=180.0,
        )
    )
    arena = empty_arena_room()
    register_scenario(
        Scenario(
            name="empty-arena",
            description="12x9 m empty arena, 8 scattered objects",
            room=RoomSpec.from_room(arena),
            objects=_objects_from(scattered_object_layout(arena, 8, seed=11)),
            flight_time_s=240.0,
        )
    )
    flat = apartment_room()
    register_scenario(
        Scenario(
            name="apartment",
            description="10x8 m multi-room apartment, 1.2 m doorways, 6 objects",
            room=RoomSpec.from_room(flat),
            objects=(
                ObjectSpec("bottle", 1.5, 1.5, "bottle-livingroom"),
                ObjectSpec("tin_can", 4.0, 2.0, "can-livingroom"),
                ObjectSpec("tin_can", 1.5, 6.5, "can-bedroom"),
                ObjectSpec("bottle", 4.0, 7.0, "bottle-bedroom"),
                ObjectSpec("bottle", 7.5, 1.5, "bottle-kitchen"),
                ObjectSpec("tin_can", 8.5, 6.5, "can-kitchen"),
            ),
            start=(0.7, 0.7),
            flight_time_s=240.0,
        )
    )
    dense = cluttered_room(n_obstacles=8, seed=7, width=10.0, length=8.0)
    register_scenario(
        Scenario(
            name="dense-depot",
            description="10x8 m depot with 8 obstacles -- the collision stress test",
            room=RoomSpec.from_room(dense),
            objects=_objects_from(scattered_object_layout(dense, 6, seed=5)),
            start=(0.6, 0.6),
            cruise_speed=0.5,
            flight_time_s=180.0,
        )
    )


_register_presets()
