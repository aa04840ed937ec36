"""Seeded input generators for the three benchmark workloads.

Every input is written here as text (storm CSV, observation CSV, ``.gcr``
rules and the v1 base workspace), never through geocausal itself, so a
change to the program cannot change what it is fed. The same
(workload, seed, scale) gives byte-identical files.

Alongside the files, each generator keeps a plain model of what it wrote
(events with UTC epoch-second intervals and bounding boxes, situations
with their observations, setting and participant edges, the rules). The
expected closure in ``closure.py`` is computed from that model.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone

# Default sizes; ``scale`` overrides the event count of a workload.
STORM_EVENTS = 400
DAM_EVENTS = 150
APPEND_BATCHES = 4
APPEND_BATCH_ROWS = 100

PERIOD_START = int(datetime(2005, 6, 1, tzinfo=timezone.utc).timestamp())
DAY = 86400
HOUR = 3600

_MONTHS = ("JAN", "FEB", "MAR", "APR", "MAY", "JUN", "JUL", "AUG", "SEP", "OCT", "NOV", "DEC")
# Fixed UTC offsets in hours of the timezone tokens the storm CSVs use.
_TZ_OFFSETS = {"": 0, "UTC": 0, "CST": -6, "CDT": -5, "EST": -5, "EDT": -4}

STORM_TYPES = {
    "Tropical Storm": "TropicalStorm",
    "Heavy Rain": "HeavyRain",
    "Flash Flood": "FlashFlood",
    "Tornado": "Tornado",
}

# Canonical scale of each unit the generators write (metre, m/s, ...).
UNIT_SCALE = {
    "m": ("length", 1.0),
    "km": ("length", 1000.0),
    "mi": ("length", 1609.344),
    "m/s": ("speed", 1.0),
    "km/h": ("speed", 1.0 / 3.6),
    "kn": ("speed", 1852.0 / 3600.0),
    "mph": ("speed", 0.44704),
    "hPa": ("pressure", 1.0),
    "1": ("dimensionless", 1.0),
}


@dataclass(frozen=True)
class Event:
    id: str
    kind: str
    start: int
    end: int
    box: tuple[float, float, float, float]  # min_lat, min_lon, max_lat, max_lon
    batch: int = 0


@dataclass(frozen=True)
class Situation:
    id: str
    start: int
    end: int
    # attribute -> ("q", canonical, dimension) or ("c", token)
    values: dict


@dataclass(frozen=True)
class Precondition:
    id: str
    event_kind: str
    # (attribute, op, threshold) with threshold ("q", canonical, dimension),
    # ("c", token) or None for present/absent
    conditions: tuple


@dataclass(frozen=True)
class CauseRule:
    id: str
    cause_kind: str
    effect_kind: str
    constraint: str  # "co-occurs" or "precedes"
    max_gap: int | None = None  # seconds, for "precedes within"


@dataclass
class Inputs:
    workload: str
    seed: int
    files: dict = field(default_factory=dict)  # name -> bytes
    events: list = field(default_factory=list)
    situations: list = field(default_factory=list)
    object_boxes: dict = field(default_factory=dict)  # object id -> region box
    settings: list = field(default_factory=list)  # (setter id, situation id)
    participants: list = field(default_factory=list)  # (object id, event id)
    preconditions: list = field(default_factory=list)
    cause_rules: list = field(default_factory=list)
    rules_file: str = "rules.gcr"
    base_workspace: str | None = None
    batches: list = field(default_factory=list)  # per batch: list of CSV names
    rejected: dict = field(default_factory=dict)  # CSV name -> rows ingest must reject

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()

    def write(self, directory) -> None:
        for name, data in self.files.items():
            (directory / name).write_bytes(data)


# --------------------------------------------------------------------------
# Text helpers
# --------------------------------------------------------------------------


def rfc3339(t: int) -> str:
    return datetime.fromtimestamp(t, timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _local_time(t: int, tz: str, style: int) -> str:
    dt = datetime.fromtimestamp(t + _TZ_OFFSETS[tz] * HOUR, timezone.utc)
    if style == 0:
        return dt.strftime("%Y-%m-%d %H:%M:%S")
    return f"{dt.day:02d}-{_MONTHS[dt.month - 1]}-{dt.year % 100:02d} {dt.strftime('%H:%M:%S')}"


def _coord(x: float) -> str:
    return f"{x:.3f}"


def _magnitude(x: float) -> str:
    text = f"{x:.6f}".rstrip("0").rstrip(".")
    return text if text not in ("", "-0") else "0"


def _value_text(value) -> tuple[str, str]:
    """(magnitude, unit) as written; unit is "" for a categorical token."""
    if value[0] == "c":
        return value[1], ""
    _, magnitude, unit = value
    return _magnitude(magnitude), unit


def _random_box(rng: random.Random, lat: float, lon: float, spread: float):
    """A point (degenerate box) or a box near (lat, lon), on a 0.001 grid."""
    lat0 = float(_coord(lat + rng.uniform(-spread, spread)))
    lon0 = float(_coord(lon + rng.uniform(-spread, spread)))
    if rng.random() < 0.4:
        return (lat0, lon0, lat0, lon0), (lat0, lon0, None, None)
    lat1 = float(_coord(lat0 + rng.uniform(-0.8, 0.8)))
    lon1 = float(_coord(lon0 + rng.uniform(-0.8, 0.8)))
    box = (min(lat0, lat1), min(lon0, lon1), max(lat0, lat1), max(lon0, lon1))
    return box, (lat0, lon0, lat1, lon1)


# --------------------------------------------------------------------------
# Storm CSV
# --------------------------------------------------------------------------

_STORM_HEADER = (
    "EPISODE_ID,EVENT_ID,EVENT_TYPE,BEGIN_DATE_TIME,END_DATE_TIME,CZ_TIMEZONE,"
    "BEGIN_LAT,BEGIN_LON,END_LAT,END_LON,DAMAGE_PROPERTY,DEATHS_DIRECT,MAGNITUDE,MAGNITUDE_TYPE"
)


def _balanced(rng: random.Random, items, n: int) -> list:
    """``n`` items in equal shares (as equal as ``n`` allows), shuffled, so
    that per-kind counts, and with them the join sizes, do not vary by seed."""
    offset = rng.randrange(len(items))
    out = [items[(offset + i) % len(items)] for i in range(n)]
    rng.shuffle(out)
    return out


def _storm_rows(rng: random.Random, n_events: int, first_event: int, first_episode: int,
                t0: int, days: float, batch: int = 0):
    """Rows for ``n_events`` storm events in equal episodes of about 20.

    Times fall on whole hours, so intervals often meet or share an endpoint
    (the interval algebra's edge cases). Episode starts are spread evenly over ``days`` with jitter, and each
    episode holds the four event types in equal shares. Returns (csv text,
    accepted events, rejected row count): one row in 200 ends before it
    begins, and lenient ingest rejects it.
    """
    lines = [_STORM_HEADER]
    events: list[Event] = []
    n_episodes = max(1, round(n_events / 20))
    sizes = [n_events // n_episodes + (1 if ep < n_events % n_episodes else 0)
             for ep in range(n_episodes)]
    bad_rows = set(rng.sample(range(n_events), round(n_events * 0.005)))
    spacing = days * DAY / n_episodes
    row = 0
    type_names = list(STORM_TYPES)
    for ep in range(n_episodes):
        episode_id = first_episode + ep
        ep_start = t0 + int((ep + rng.random()) * spacing) // HOUR * HOUR
        ep_lat, ep_lon = rng.uniform(26.0, 34.0), rng.uniform(-97.0, -81.0)
        for type_name in _balanced(rng, type_names, sizes[ep]):
            event_no = first_event + row + 1
            bad = row in bad_rows
            row += 1
            start = ep_start + rng.randrange(0, 48) * HOUR
            end = start if rng.random() < 0.05 else start + rng.randrange(1, 12) * HOUR
            begin_t, end_t = (end + HOUR, start) if bad else (start, end)
            tz = rng.choice(list(_TZ_OFFSETS))
            style = rng.randrange(2)
            box, (b_lat, b_lon, e_lat, e_lon) = _random_box(rng, ep_lat, ep_lon, 1.0)
            damage = f"{rng.uniform(0, 500):.2f}K" if rng.random() < 0.5 else ""
            deaths = str(rng.randrange(0, 3)) if rng.random() < 0.1 else ""
            mag, mag_type = (f"{rng.randrange(40, 80)}", "EG") if rng.random() < 0.2 else ("", "")
            lines.append(",".join([
                str(episode_id), str(event_no), type_name,
                _local_time(begin_t, tz, style), _local_time(end_t, tz, style), tz,
                _coord(b_lat), _coord(b_lon),
                "" if e_lat is None else _coord(e_lat), "" if e_lon is None else _coord(e_lon),
                damage, deaths, mag, mag_type,
            ]))
            if not bad:
                events.append(Event(f"ev:event-{event_no}", STORM_TYPES[type_name], start, end, box, batch))
    return ("\n".join(lines) + "\n").encode(), events, len(bad_rows)


STORM_RULES = """\
# Storm cause rules; the precondition has no situations to act on here.
precondition PC_TC effects TropicalStorm {
    SeaSurfaceTemp > 82 degF;
    AtmosphericPressure > 1000 hPa;
    WindShear > 10 m/s;
    CoriolisForce present
}

rule R_CO: HeavyRain causes FlashFlood when co-occurs
rule R_P12: TropicalStorm causes HeavyRain when precedes within 12h
rule R_P24: TropicalStorm causes FlashFlood when precedes within 24h
"""

STORM_CAUSE_RULES = [
    CauseRule("R_CO", "HeavyRain", "FlashFlood", "co-occurs"),
    CauseRule("R_P12", "TropicalStorm", "HeavyRain", "precedes", 12 * HOUR),
    CauseRule("R_P24", "TropicalStorm", "FlashFlood", "precedes", 24 * HOUR),
]

STORM_PRECONDITIONS = [
    Precondition("PC_TC", "TropicalStorm", (
        ("SeaSurfaceTemp", ">", ("q", (82 - 32) * 5 / 9 + 273.15, "temperature")),
        ("AtmosphericPressure", ">", ("q", 1000.0, "pressure")),
        ("WindShear", ">", ("q", 10.0, "speed")),
        ("CoriolisForce", "present", None),
    )),
]


def storm_causal(seed: int, scale: int = STORM_EVENTS) -> Inputs:
    rng = random.Random(f"storm-causal:{seed}")
    inputs = Inputs("storm-causal", seed)
    # Episodes start about 2.2 days apart and last up to 2.5 days, so
    # neighbouring episodes overlap in time.
    days = max(2.0, scale / 20 * 2.2)
    csv, events, rejected = _storm_rows(rng, scale, 100000, 5000, PERIOD_START, days)
    inputs.files["storm.csv"] = csv
    inputs.files[inputs.rules_file] = STORM_RULES.encode()
    inputs.events = events
    inputs.rejected["storm.csv"] = rejected
    inputs.preconditions = list(STORM_PRECONDITIONS)
    inputs.cause_rules = list(STORM_CAUSE_RULES)
    inputs.batches = [["storm.csv"]]
    return inputs


def append_reinfer(seed: int, scale: int = APPEND_BATCHES * APPEND_BATCH_ROWS) -> Inputs:
    rng = random.Random(f"append-reinfer:{seed}")
    inputs = Inputs("append-reinfer", seed)
    per_batch = max(1, scale // APPEND_BATCHES)
    days = max(1.0, per_batch / 20 * 2.2)
    for b in range(APPEND_BATCHES):
        name = f"storm-{b + 1}.csv"
        csv, events, rejected = _storm_rows(
            rng, per_batch, 100000 + b * 10000, 5000 + b * 100,
            PERIOD_START + int(b * days * DAY), days, batch=b + 1,
        )
        inputs.files[name] = csv
        inputs.events.extend(events)
        inputs.rejected[name] = rejected
        inputs.batches.append([name])
    inputs.files[inputs.rules_file] = STORM_RULES.encode()
    inputs.preconditions = list(STORM_PRECONDITIONS)
    inputs.cause_rules = list(STORM_CAUSE_RULES)
    return inputs


# --------------------------------------------------------------------------
# Dam workspace and observation CSV
# --------------------------------------------------------------------------

DAM_RULES = """\
precondition PC_BREACH effects Flood {
    WaterLevel > 15 m;
    InflowRate > 3 m/s
}

precondition PC_SPILL effects FlashFlood {
    WaterLevel > 12 m;
    Spillway = open
}

precondition PC_STEADY effects Flood {
    InflowRate > 1.5 m/s;
    Spillway != closed
}

rule R_FF: FlashFlood causes Flood when precedes within 12h
"""

DAM_PRECONDITIONS = [
    Precondition("PC_BREACH", "Flood", (
        ("WaterLevel", ">", ("q", 15.0, "length")),
        ("InflowRate", ">", ("q", 3.0, "speed")),
    )),
    Precondition("PC_SPILL", "FlashFlood", (
        ("WaterLevel", ">", ("q", 12.0, "length")),
        ("Spillway", "=", ("c", "open")),
    )),
    Precondition("PC_STEADY", "Flood", (
        ("InflowRate", ">", ("q", 1.5, "speed")),
        ("Spillway", "!=", ("c", "closed")),
    )),
]

DAM_CAUSE_RULES = [CauseRule("R_FF", "FlashFlood", "Flood", "precedes", 12 * HOUR)]


# Share of each observation category per attribute. A category fixes the
# observation's truth under every condition; the value inside it is random.
# Quantity ranges stay 0.2 m or 0.05 m/s clear of every threshold, so unit
# conversion rounding cannot flip a comparison.
_CATEGORIES = {
    "WaterLevel": {"missing": 0.10, "wrong": 0.05, "low": 0.30, "mid": 0.25, "high": 0.30},
    "InflowRate": {"missing": 0.10, "wrong": 0.05, "low": 0.30, "mid": 0.25, "high": 0.30},
    "Spillway": {"missing": 0.10, "wrong": 0.05, "open": 0.425, "closed": 0.425},
}
_RANGES = {
    "WaterLevel": {"low": (5.0, 11.8), "mid": (12.2, 14.8), "high": (15.2, 25.0)},
    "InflowRate": {"low": (0.5, 1.45), "mid": (1.55, 2.95), "high": (3.05, 5.0)},
}
_UNITS = {"WaterLevel": ("m", "m", "m", "km", "mi"), "InflowRate": ("m/s", "m/s", "km/h", "kn", "mph")}


def _profiles(rng: random.Random, n: int) -> list[dict]:
    """``n`` joint observation categories in fixed proportions, shuffled.

    Counts per joint category are rounded by largest remainder, so how many
    situations satisfy each precondition does not depend on the seed.
    """
    names = list(_CATEGORIES)
    combos = list(itertools.product(*(_CATEGORIES[a].items() for a in names)))
    shares = [n * math.prod(w for _, w in combo) for combo in combos]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(len(combos)), key=lambda i: (counts[i] - shares[i], i))
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    out = [dict(zip(names, (c for c, _ in combo))) for combo, k in zip(combos, counts) for _ in range(k)]
    rng.shuffle(out)
    return out


def _observation(rng: random.Random, attribute: str, category: str):
    """(model value, written value) for one observation, or None if missing."""
    if category == "missing":
        return None
    if category == "wrong":  # wrong dimension or wrong type: evaluates to false
        wrong = rng.choice([("q", 3.0, "m"), ("q", 7.0, "1")] if attribute == "Spillway"
                           else [("c", "high"), ("q", 12.0, "hPa"), ("q", 7.0, "1")])
        if wrong[0] == "c":
            return wrong, wrong
        dim, unit_scale = UNIT_SCALE[wrong[2]]
        return ("q", wrong[1] * unit_scale, dim), wrong
    if attribute == "Spillway":
        return ("c", category), ("c", category)
    canonical = rng.uniform(*_RANGES[attribute][category])
    unit = rng.choice(_UNITS[attribute])
    dim, unit_scale = UNIT_SCALE[unit]
    written = ("q", float(_magnitude(canonical / unit_scale)), unit)
    return ("q", written[1] * unit_scale, dim), written


DAM_ATTRIBUTES = ("WaterLevel", "InflowRate", "Spillway")


def dam_effects(seed: int, scale: int = DAM_EVENTS) -> Inputs:
    """Base v1 workspace (dams, dam-setting situations, flood events with
    impact records) plus an observation CSV of unsettled situations.

    Counts scale with ``scale``, the event count: per 600 events there are
    40 dams, 1,000 dam-set situations and 300 observed situations. Two
    events in five are flash floods, and 8% of the dam-set situations also
    have an event as setting (a mixed setting).
    """
    rng = random.Random(f"dam-effects:{seed}")
    inputs = Inputs("dam-effects", seed)
    n_dams = max(2, round(scale / 15))
    n_situations = max(2, round(scale * 5 / 3))
    n_observed = max(1, round(scale / 2))
    period = 300 * DAY

    ent: list[str] = []
    tri: list[str] = []
    dams = []
    for i in range(n_dams):
        dam_id, reg_id = f"dam:{i:04d}", f"reg:dam-{i:04d}"
        lat, lon = rng.uniform(27.0, 33.0), rng.uniform(-96.0, -82.0)
        half = rng.uniform(0.05, 0.3)
        box = (float(_coord(lat - half)), float(_coord(lon - half)),
               float(_coord(lat + half)), float(_coord(lon + half)))
        dams.append((dam_id, lat, lon))
        inputs.object_boxes[dam_id] = box
        ent.append(f'ENT {dam_id} object Dam Height="{rng.randrange(20, 120)} m" '
                   f'Capacity="{rng.randrange(1, 500) * 1000} 1"')
        ent.append(f"REG {reg_id} BBOX({' '.join(_coord(c) for c in box)}) "
                   f"{rfc3339(PERIOD_START - 30 * DAY)} {rfc3339(PERIOD_START + period + 30 * DAY)}")
        tri.append(f"TRI {dam_id} spatio-temporally-present {reg_id}")

    def add_event(no: int, kind: str, start: int, lat: float, lon: float) -> Event:
        end = start + rng.randrange(0, 18) * HOUR
        box, _ = _random_box(rng, lat, lon, 0.15)
        event = Event(f"ev:flood-{no:04d}", kind, start, end, box)
        reg_id, imp_id = f"reg:flood-{no:04d}", f"imp:flood-{no:04d}"
        geometry = (f"POINT({_coord(box[0])} {_coord(box[1])})" if box[0] == box[2] and box[1] == box[3]
                    else f"BBOX({' '.join(_coord(c) for c in box)})")
        ent.append(f"ENT {event.id} event {kind}")
        ent.append(f"REG {reg_id} {geometry} {rfc3339(start)} {rfc3339(end)}")
        ent.append(f'ENT {imp_id} object ImpactRecord DamageProperty="{rng.randrange(1, 900) * 1000} 1"')
        tri.append(f"TRI {event.id} spatio-temporally-present {reg_id}")
        tri.append(f"TRI {imp_id} spatio-temporally-present {reg_id}")
        tri.append(f"TRI {imp_id} participant-in {event.id}")
        inputs.participants.append((imp_id, event.id))
        return event

    situations = []
    for i, profile in enumerate(_profiles(rng, n_situations)):
        start = PERIOD_START + rng.randrange(0, period // HOUR) * HOUR
        end = start + rng.randrange(1, 12) * HOUR
        dam = rng.choice(dams)
        values, written = {}, {}
        for attribute in DAM_ATTRIBUTES:
            obs = _observation(rng, attribute, profile[attribute])
            if obs is not None:
                values[attribute], written[attribute] = obs
        situations.append((Situation(f"sit:d{i:04d}", start, end, values), written, dam))

    # Two thirds of the events follow a situation near its dam, most within
    # the 24h effects window; the rest fall anywhere.
    events: list[Event] = []
    n_planted = min(len(situations), scale * 2 // 3)
    planted = rng.sample(range(len(situations)), n_planted)
    n_flash = round(scale * 0.4)
    kinds = ["FlashFlood"] * n_flash + ["Flood"] * (scale - n_flash)
    rng.shuffle(kinds)
    for no, kind in enumerate(kinds):
        if no < n_planted:
            sit, _, (_, lat, lon) = situations[planted[no]]
            start = sit.end + rng.randrange(0, 30) * HOUR
        else:
            _, lat, lon = rng.choice(dams)
            start = PERIOD_START + rng.randrange(0, period // HOUR) * HOUR
        events.append(add_event(no, kind, start, lat, lon))
    inputs.events = events

    mixed = set(rng.sample(range(len(situations)), round(len(situations) * 0.08)))
    for i, (sit, written, (dam_id, _, _)) in enumerate(situations):
        attrs = "".join(f' {a}="{" ".join(x for x in _value_text(written[a]) if x)}"'
                        for a in DAM_ATTRIBUTES if a in written)
        ent.append(f"ENT {sit.id} situation - .start={rfc3339(sit.start)} .end={rfc3339(sit.end)}{attrs}")
        tri.append(f"TRI {dam_id} setting {sit.id}")
        inputs.settings.append((dam_id, sit.id))
        if i in mixed:
            setter = rng.choice(events).id
            tri.append(f"TRI {setter} setting {sit.id}")
            inputs.settings.append((setter, sit.id))
        inputs.situations.append(sit)

    def sort_key(line: str):
        return line.split()[1]

    ent.sort(key=sort_key)
    tri.sort(key=lambda line: tuple(line.split()[1:4]))
    workspace = "\n".join(["# geocausal graph v1", *ent, *tri]) + "\n"
    inputs.files["base.graph"] = workspace.encode()
    inputs.base_workspace = "base.graph"

    # Unsettled situations: observed, but nothing is their setting.
    rows = ["SITUATION_ID,TIMESTAMP_START,TIMESTAMP_END,ATTRIBUTE,VALUE,UNIT,LAT,LON"]
    for i, profile in enumerate(_profiles(rng, n_observed)):
        start = PERIOD_START + rng.randrange(0, period // HOUR) * HOUR
        values = {}
        row_ends = []
        for attribute in DAM_ATTRIBUTES:
            obs = _observation(rng, attribute, profile[attribute])
            if obs is None:
                continue
            values[attribute], written = obs
            row_end = start + rng.randrange(1, 8) * HOUR
            row_ends.append(row_end)
            value, unit = _value_text(written)
            lat, lon = rng.uniform(27.0, 33.0), rng.uniform(-96.0, -82.0)
            rows.append(f"obs-{i:04d},{rfc3339(start)},{rfc3339(row_end)},{attribute},{value},{unit},"
                        f"{_coord(lat)},{_coord(lon)}")
        if values:
            inputs.situations.append(Situation(f"ev:situation-obs-{i:04d}", start, max(row_ends), values))
    header, body = rows[0], rows[1:]
    rng.shuffle(body)
    inputs.files["observations.csv"] = ("\n".join([header, *body]) + "\n").encode()
    inputs.files[inputs.rules_file] = DAM_RULES.encode()
    inputs.preconditions = list(DAM_PRECONDITIONS)
    inputs.cause_rules = list(DAM_CAUSE_RULES)
    inputs.batches = [["observations.csv"]]
    return inputs


GENERATORS = {
    "storm-causal": storm_causal,
    "dam-effects": dam_effects,
    "append-reinfer": append_reinfer,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int, scale: int | None = None) -> Inputs:
    generator = GENERATORS[workload]
    return generator(seed) if scale is None else generator(seed, scale)
