"""Seeded fault plans: what breaks, where, and when.

A :class:`FaultPlan` is a JSON-loadable schedule of fault windows.  Each
:class:`FaultSpec` names a *kind* from the fixed taxonomy below, a
*target* (``"*"``, ``"<domain>:*"`` or ``"<domain>:<name>"``), a start
time and a duration in the clock of the layer it applies to (sim seconds
for the cloud, the per-AP cumulative replay clock for AP faults), plus
an optional ``severity`` (rate multiplier for degradation kinds) and
``probability`` (per-entity activation chance).

Determinism contract: whether a probabilistic fault hits a given entity
is decided by a stable hash of ``(plan seed, spec key, entity name)`` --
never by shared RNG state -- so the assignment does not depend on the
order in which a run meets its entities, nor on which process asks
(the backend matrix's shard workers each build their own injector).

Fault taxonomy (kind -> target domain):

========================  ========  =========================================
kind                      domain    models
========================  ========  =========================================
``server_crash``          isp       an uploading-server group going dark
``isp_degrade``           isp       per-ISP path degradation (severity)
``pool_pressure``         pool      storage-pool disk-full pressure
``vm_stall``              file      a wedged pre-download VM
``seed_death``            file      swarm seed departure mid-transfer
``power_loss``            ap        AP power loss (kills the attempt)
``usb_disconnect``        ap        storage device unplugged
``flash_slowdown``        ap        degraded flash write path (severity)
``link_flap``             ap        ADSL link flap (kills the attempt)
``loss_burst``            ap        lossy uplink (severity on goodput)
``worker_kill``           serve     SIGKILL of a serving-tier worker process
``correlated_kill``       serve     N slots SIGKILLed in one window (count)
``probe_blackhole``       serve     wedged worker: accepts, never responds
``admin_slowloris``       serve     worker write path crawls byte-at-a-time
``conn_reset``            serve     worker resets accepted conns mid-request
========================  ========  =========================================

The three *wedge* kinds (``probe_blackhole``, ``admin_slowloris``,
``conn_reset``) model process-state corruption rather than a transient
window: a worker alive when the window opens adopts the fault and stays
broken until the process dies -- only a restart clears it.  A
replacement spawned after the window opened starts clean.  That makes
"supervision restarts the wedged process" a design property the
availability gate can measure, instead of a race against window end.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from repro.netsim.isp import ISP
from repro.sim.clock import DAY, HOUR
from repro.sim.randomness import derive_seed, substream

#: kind -> the entity domain its targets live in.
KIND_DOMAINS: dict[str, str] = {
    "server_crash": "isp",
    "isp_degrade": "isp",
    "pool_pressure": "pool",
    "vm_stall": "file",
    "seed_death": "file",
    "power_loss": "ap",
    "usb_disconnect": "ap",
    "flash_slowdown": "ap",
    "link_flap": "ap",
    "loss_burst": "ap",
    "worker_kill": "serve",
    "correlated_kill": "serve",
    "probe_blackhole": "serve",
    "admin_slowloris": "serve",
    "conn_reset": "serve",
}

#: domain -> every entity name a target may give, for the closed
#: domains; ``file``, ``ap`` and ``serve`` names are open (a file id,
#: an AP model, a worker slot checked against the pool at load time).
DOMAIN_ENTITIES: dict[str, tuple[str, ...]] = {
    "isp": tuple(isp.value for isp in ISP),
    "pool": ("pool",),
}

#: AP fault kinds that make the attempt unable to proceed at all (the
#: device, its storage, or its uplink is gone, not merely slow).
AP_KILL_KINDS: tuple[str, ...] = ("power_loss", "usb_disconnect",
                                  "link_flap")

#: Kinds that apply to the cloud side (everything not aimed at the AP
#: replay clocks or at live serving-tier processes).
CLOUD_KINDS: tuple[str, ...] = tuple(
    kind for kind, domain in KIND_DOMAINS.items()
    if domain not in ("ap", "serve"))

#: Kinds consumed by the live serving tier's availability campaigns
#: (:mod:`repro.serve.avail`): the target names a worker slot, e.g.
#: ``serve:worker-0`` (or ``serve:*`` for the whole pool).
SERVE_KINDS: tuple[str, ...] = ("worker_kill", "correlated_kill",
                                "probe_blackhole", "admin_slowloris",
                                "conn_reset")

#: Kill kinds the availability harness delivers itself (SIGKILL from
#: the parent); the wedge kinds below are self-applied by the worker.
SERVE_KILL_KINDS: tuple[str, ...] = ("worker_kill", "correlated_kill")

#: Process-state faults a live worker adopts at window open and keeps
#: until the process dies (see the module docstring).
WEDGE_KINDS: tuple[str, ...] = ("probe_blackhole", "admin_slowloris",
                                "conn_reset")

#: The default seed of :func:`default_chaos_plan`.
DEFAULT_CHAOS_SEED = 20150666


def ap_entity_name(hardware) -> str:
    """The fault-target name of an AP (``"HiWiFi (1S)"`` -> ``hiwifi-(1s)``)."""
    return hardware.name.lower().replace(" ", "-")


@dataclass(frozen=True)
class FaultSpec:
    """One fault window."""

    kind: str
    target: str
    start: float
    duration: float
    severity: float = 1.0
    probability: float = 1.0
    count: int = 1          #: slots hit at once (``correlated_kill``)

    def __post_init__(self):
        if self.kind not in KIND_DOMAINS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {sorted(KIND_DOMAINS)}")
        if self.start < 0:
            raise ValueError(f"fault start must be >= 0, got {self.start}")
        if self.duration <= 0:
            raise ValueError(
                f"fault duration must be > 0, got {self.duration}")
        if not 0.0 < self.severity:
            raise ValueError(
                f"fault severity must be > 0, got {self.severity}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"fault probability must be in [0, 1], "
                f"got {self.probability}")
        if self.count < 1:
            raise ValueError(f"fault count must be >= 1, got {self.count}")
        if self.count != 1 and self.kind != "correlated_kill":
            raise ValueError(
                f"count is only meaningful on correlated_kill specs, "
                f"got count={self.count} on {self.kind!r}")
        domain = KIND_DOMAINS[self.kind]
        if self.target != "*":
            prefix, _sep, name = self.target.partition(":")
            if prefix != domain or not name:
                raise ValueError(
                    f"target of {self.kind!r} must be '*', "
                    f"'{domain}:*' or '{domain}:<name>', "
                    f"got {self.target!r}")
            known = DOMAIN_ENTITIES.get(domain)
            if known is not None and name != "*" and name not in known:
                raise ValueError(
                    f"unknown {domain} target {self.target!r} of "
                    f"{self.kind!r}; known: "
                    f"{', '.join(f'{domain}:{entity}' for entity in known)}")

    @property
    def domain(self) -> str:
        return KIND_DOMAINS[self.kind]

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def key(self) -> str:
        """Stable identity of this spec inside a plan (gating label)."""
        return f"{self.kind}:{self.target}:{self.start:g}"

    def matches(self, entity: str) -> bool:
        """Does this spec target the named entity (domain-local name)?"""
        if self.target == "*":
            return True
        name = self.target.partition(":")[2]
        return name == "*" or name == entity

    def active_at(self, now: float) -> bool:
        return self.start <= now < self.end

    def to_dict(self) -> dict:
        record = {"kind": self.kind, "target": self.target,
                  "start": self.start, "duration": self.duration}
        if self.severity != 1.0:
            record["severity"] = self.severity
        if self.probability != 1.0:
            record["probability"] = self.probability
        if self.count != 1:
            record["count"] = self.count
        return record

    @classmethod
    def from_dict(cls, record: dict, index: int = 0) -> "FaultSpec":
        """Parse one entry of a plan's ``faults`` array.

        A missing, ill-typed or out-of-range field raises ``ValueError``
        naming ``index`` (the entry's position) and the field.
        """
        where = f"fault spec #{index}"
        if not isinstance(record, dict):
            raise ValueError(f"{where}: expected an object, "
                             f"got {type(record).__name__}")
        values = {}
        for name, cast, required in _SPEC_FIELDS:
            if name not in record:
                if required:
                    raise ValueError(f"{where}: missing field {name!r}")
                continue
            value = record[name]
            try:
                if cast is str and not isinstance(value, str):
                    raise TypeError
                values[name] = cast(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"{where}: field {name!r} must be {cast.__name__}, "
                    f"got {value!r}") from None
        try:
            return cls(**values)
        except ValueError as error:
            raise ValueError(f"{where}: {error}") from None


#: (field, type, required) of a plan entry, in :class:`FaultSpec` order.
_SPEC_FIELDS = (("kind", str, True), ("target", str, True),
                ("start", float, True), ("duration", float, True),
                ("severity", float, False),
                ("probability", float, False), ("count", int, False))


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded schedule of fault windows."""

    name: str
    seed: int
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self):
        if not self.name:
            raise ValueError("a fault plan needs a name")
        object.__setattr__(self, "specs", tuple(self.specs))

    def specs_of(self, kinds: Iterable[str]) -> tuple[FaultSpec, ...]:
        wanted = set(kinds)
        return tuple(spec for spec in self.specs if spec.kind in wanted)

    # -- deterministic per-entity gating ---------------------------------------

    def applies(self, spec: FaultSpec, entity: str) -> bool:
        """Does ``spec`` hit ``entity``?  Stable-hash probability gate.

        Shard-invariant by construction: the decision depends only on
        (plan seed, spec key, entity name), so every worker process of a
        sharded run agrees without communicating.
        """
        if not spec.matches(entity):
            return False
        if spec.probability >= 1.0:
            return True
        draw = derive_seed(self.seed, f"gate:{spec.key}:{entity}") / 2 ** 64
        return draw < spec.probability

    def rng(self, label: str) -> np.random.Generator:
        """A named jitter substream derived from the plan seed."""
        return substream(self.seed, f"faults:{label}")

    # -- (de)serialisation ------------------------------------------------------

    def to_json(self) -> str:
        payload = {"name": self.name, "seed": self.seed,
                   "faults": [spec.to_dict() for spec in self.specs]}
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict) \
                or not isinstance(payload.get("faults"), list):
            raise ValueError(
                "a fault plan is an object with 'name', 'seed' and a "
                "'faults' array")
        specs = tuple(FaultSpec.from_dict(record, index)
                      for index, record in enumerate(payload["faults"]))
        return cls(name=str(payload.get("name", "unnamed")),
                   seed=int(payload.get("seed", DEFAULT_CHAOS_SEED)),
                   specs=specs)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())

    def to_file(self, path: str | Path) -> Path:
        from repro.recovery.atomic import atomic_write_text
        return atomic_write_text(Path(path), self.to_json())


def serve_slot_of(target: str) -> Optional[int]:
    """``"serve:worker-1"`` -> ``1``; None for broadcast targets.

    Raises ``ValueError`` for a serve-domain name that is not of the
    ``worker-N`` form (so typos fail loudly at validation time).
    """
    name = target.partition(":")[2]
    if target == "*" or name == "*":
        return None
    prefix = "worker-"
    if not name.startswith(prefix):
        raise ValueError(
            f"serve targets name worker slots ('serve:worker-N' or "
            f"'serve:*'), got {target!r}")
    try:
        return int(name[len(prefix):])
    except ValueError:
        raise ValueError(
            f"serve target slot index must be an integer, "
            f"got {target!r}") from None


def validate_serve_plan(plan: FaultPlan, workers: int) -> None:
    """Fail serve-domain specs that cannot hit a pool of ``workers``.

    Called at plan-*load* time by the availability harness and the
    serving CLI, so an out-of-range ``serve:worker-7`` target or a
    ``correlated_kill`` count exceeding the pool size surfaces as an
    error naming the spec -- not as a silently skipped injection
    mid-campaign.
    """
    for spec in plan.specs_of(SERVE_KINDS):
        try:
            slot = serve_slot_of(spec.target)
        except ValueError as error:
            raise ValueError(f"fault spec {spec.key!r}: {error}") \
                from None
        if slot is not None and not 0 <= slot < workers:
            raise ValueError(
                f"fault spec {spec.key!r} targets slot {slot}, but "
                f"the pool has {workers} worker(s) "
                f"(valid slots: 0..{workers - 1})")
        if spec.kind == "correlated_kill" and spec.count > workers:
            raise ValueError(
                f"fault spec {spec.key!r} wants to kill {spec.count} "
                f"slots at once, but the pool only has {workers} "
                f"worker(s)")


def correlated_slots(plan: FaultPlan, spec: FaultSpec,
                     workers: int) -> list[int]:
    """The slots one ``correlated_kill`` window hits, deterministically.

    A concrete ``serve:worker-N`` target anchors the group at that slot
    (``count`` consecutive ranks, wrapping); a broadcast target draws
    ``count`` distinct slots from the plan's seeded substream -- either
    way the choice depends only on (plan seed, spec key, pool size), so
    replays agree.
    """
    count = min(spec.count, workers)
    anchor = serve_slot_of(spec.target)
    if anchor is not None:
        return [(anchor + offset) % workers for offset in range(count)]
    rng = plan.rng(f"correlated:{spec.key}")
    return sorted(int(slot) for slot in
                  rng.choice(workers, size=count, replace=False))


def default_chaos_plan(seed: int = DEFAULT_CHAOS_SEED) -> FaultPlan:
    """The built-in chaos schedule: one of everything, across the week.

    Cloud windows are sim seconds into the measured week; AP windows are
    seconds of each AP's own cumulative replay clock (the benchmark
    campaign spans weeks of replay time).
    """
    return FaultPlan(name="default-chaos", seed=seed, specs=(
        # -- cloud ------------------------------------------------------------
        FaultSpec("server_crash", "isp:telecom", 1.0 * DAY, 6.0 * HOUR),
        FaultSpec("server_crash", "isp:unicom", 4.0 * DAY, 3.0 * HOUR),
        FaultSpec("isp_degrade", "isp:*", 2.0 * DAY, 8.0 * HOUR,
                  severity=0.3),
        FaultSpec("pool_pressure", "*", 2.5 * DAY, 12.0 * HOUR),
        FaultSpec("vm_stall", "file:*", 3.0 * DAY, 6.0 * HOUR,
                  probability=0.7),
        FaultSpec("seed_death", "file:*", 4.5 * DAY, 12.0 * HOUR,
                  probability=0.6),
        # -- smart APs (per-AP replay clocks) ---------------------------------
        FaultSpec("power_loss", "ap:*", 0.5 * DAY, 2.0 * HOUR),
        FaultSpec("usb_disconnect", "ap:miwifi", 1.0 * DAY, 3.0 * HOUR),
        FaultSpec("flash_slowdown", "ap:*", 1.5 * DAY, 12.0 * HOUR,
                  severity=0.3),
        FaultSpec("link_flap", "ap:hiwifi-(1s)", 2.0 * DAY, 4.0 * HOUR),
        FaultSpec("loss_burst", "ap:*", 2.5 * DAY, 6.0 * HOUR,
                  severity=0.4),
    ))
