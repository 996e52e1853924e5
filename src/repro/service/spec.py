"""Campaign specifications: the validated request surface of the service.

A client submits a campaign as a small JSON document; this module turns
that document into a :class:`CampaignSpec` -- a canonical, fully
defaulted description of exactly one reproducible campaign -- or raises
:class:`SpecError` naming what is wrong (the service maps that onto an
HTTP 400).  The canonical form backs everything downstream:

* :meth:`CampaignSpec.fingerprint` -- the campaign-parameter fingerprint
  (:func:`repro.resilience.checkpoint.fingerprint_of`), the same scheme
  checkpoint journals and :mod:`repro.expdb` runs are keyed by;
* :meth:`CampaignSpec.result_key` -- the content address of the
  campaign's rendered result: the fingerprint material joined with
  :func:`repro.expdb.code_hash`, so a code change automatically
  invalidates every stored result;
* :meth:`CampaignSpec.rows_total` -- how many progress rows the job will
  stream, known before anything runs.

Specs are throughput-neutral by construction: executor backends, worker
counts, and lanes are deliberately *not* spec fields -- they
never change a campaign's bytes, so two submissions differing only in
topology share one fingerprint and one cached result.  The defaults
match the ``repro-eda`` CLI exactly, which is what makes a
``curl``-submitted Table 4.3 byte-identical to ``repro-eda table 4.3``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Campaign kinds the service accepts.
KINDS = ("generate", "table")

#: Paper tables servable as jobs (the campaign-shaped ones).
TABLES = ("4.3", "4.4")

#: Priority bounds accepted on submission (higher drains first).
PRIORITY_RANGE = (-100, 100)

#: ``table`` defaults, matching ``repro-eda table 4.3`` / ``4.4`` exactly.
TABLE_DEFAULTS: Mapping[str, Any] = {
    "targets": ("s27", "s298"),
    "drivers": ("s344", "s953"),
    "segment_length": 120,
    "time_limit": 10.0,
    "seed": 1,
    "q_limit": 5,
    "r_limit": 3,
    "max_sequences": 200,
    "n_sequences": 16,
    "func_length": 120,
}

#: ``generate`` defaults, matching ``repro-eda generate`` exactly.
GENERATE_DEFAULTS: Mapping[str, Any] = {
    "driver": None,
    "length": 200,
    "time_limit": 30.0,
    "seed": 1,
}


class SpecError(ValueError):
    """A submitted campaign document is malformed (HTTP 400)."""


@dataclass(frozen=True)
class CampaignSpec:
    """One validated, fully defaulted campaign (see module docstring)."""

    kind: str
    label: str
    params: Mapping[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """The canonical JSON-stable form all keying derives from."""
        return {
            "kind": self.kind,
            "label": self.label,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }

    def fingerprint(self) -> str:
        """The campaign-parameter fingerprint (checkpoint-compatible scheme)."""
        from repro.resilience.checkpoint import fingerprint_of

        return fingerprint_of(self.canonical())

    def result_key(self) -> str:
        """Content address of this campaign's rendered result.

        SHA-256 over the canonical spec plus :func:`repro.expdb.
        code_hash`, so editing any source under ``repro`` orphans every
        previously stored result instead of serving a stale one.
        """
        from repro.expdb import code_hash

        digest = hashlib.sha256()
        digest.update(code_hash().encode("ascii"))
        digest.update(b"\n")
        digest.update(
            json.dumps(self.canonical(), sort_keys=True).encode("utf-8")
        )
        return digest.hexdigest()

    def rows_total(self) -> int | None:
        """Progress rows this campaign will emit, or ``None`` if unknown.

        Table 4.4 streams one row per target plus one per state-holding
        case, and which targets need holding depends on the Table 4.3
        coverage results -- so its total is unknowable up front.
        """
        if self.kind == "generate":
            return 1
        if self.label == "4.4":
            return None
        return len(self.params["targets"])


# ---------------------------------------------------------------------------
# Field coercion helpers (each raises SpecError naming the offender)
# ---------------------------------------------------------------------------


def _require_mapping(payload: Any) -> Mapping[str, Any]:
    if not isinstance(payload, Mapping):
        raise SpecError(
            f"campaign spec must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _int_field(payload: Mapping, name: str, default: int, minimum: int = 1) -> int:
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name!r} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecError(f"{name!r} must be >= {minimum}, got {value!r}")
    return value


def _number_field(
    payload: Mapping, name: str, default: float | None, nullable: bool = True
) -> float | None:
    value = payload.get(name, default)
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name!r} must be a number, got {value!r}")
    if value <= 0:
        raise SpecError(f"{name!r} must be positive, got {value!r}")
    return float(value)


def _circuit_field(name: str, value: Any, allow_buffers: bool = False) -> str:
    from repro.circuits.benchmarks import available

    if allow_buffers and value == "buffers":
        return "buffers"
    if not isinstance(value, str) or value not in available():
        known = ", ".join(available())
        extra = " or 'buffers'" if allow_buffers else ""
        raise SpecError(f"{name!r} names no benchmark circuit{extra}: {value!r} (known: {known})")
    return value


def _circuits_field(payload: Mapping, name: str, default: tuple) -> tuple[str, ...]:
    value = payload.get(name, list(default))
    if not isinstance(value, (list, tuple)) or not value:
        raise SpecError(f"{name!r} must be a non-empty list of circuit names, got {value!r}")
    return tuple(_circuit_field(name, v) for v in value)


def _reject_unknown(payload: Mapping, known: set[str]) -> None:
    unknown = sorted(set(payload) - known)
    if unknown:
        raise SpecError(
            f"unknown spec field(s) {', '.join(repr(u) for u in unknown)}; "
            f"expected a subset of {', '.join(sorted(known))}"
        )


# ---------------------------------------------------------------------------
# Parsers
# ---------------------------------------------------------------------------


def parse_spec(payload: Any) -> CampaignSpec:
    """Validate one submitted campaign document into a :class:`CampaignSpec`.

    Unknown fields, missing requirements, bad types, and out-of-range
    values all raise :class:`SpecError` with a message naming the
    offending field -- the body of the service's 400 response.
    """
    payload = _require_mapping(payload)
    kind = payload.get("kind")
    if kind not in KINDS:
        raise SpecError(
            f"'kind' must be one of {', '.join(KINDS)}, got {kind!r}"
        )
    if kind == "generate":
        return _parse_generate(payload)
    return _parse_table(payload)


def _parse_generate(payload: Mapping[str, Any]) -> CampaignSpec:
    _reject_unknown(
        payload, {"kind", "circuit", "driver", "length", "time_limit", "seed"}
    )
    if "circuit" not in payload:
        raise SpecError("'circuit' is required for kind 'generate'")
    circuit = _circuit_field("circuit", payload["circuit"])
    driver = payload.get("driver", GENERATE_DEFAULTS["driver"])
    if driver is not None:
        driver = _circuit_field("driver", driver, allow_buffers=True)
    params = {
        "circuit": circuit,
        "driver": driver,
        "length": _int_field(payload, "length", GENERATE_DEFAULTS["length"]),
        "time_limit": _number_field(
            payload, "time_limit", GENERATE_DEFAULTS["time_limit"]
        ),
        "seed": _int_field(payload, "seed", GENERATE_DEFAULTS["seed"], minimum=0),
    }
    return CampaignSpec(kind="generate", label=circuit, params=params)


def _parse_table(payload: Mapping[str, Any]) -> CampaignSpec:
    _reject_unknown(
        payload,
        {"kind", "table"} | set(TABLE_DEFAULTS),
    )
    table = payload.get("table")
    if table not in TABLES:
        raise SpecError(
            f"'table' must be one of {', '.join(TABLES)}, got {table!r}"
        )
    params = {
        "targets": _circuits_field(payload, "targets", TABLE_DEFAULTS["targets"]),
        "drivers": _circuits_field(payload, "drivers", TABLE_DEFAULTS["drivers"]),
        "segment_length": _int_field(
            payload, "segment_length", TABLE_DEFAULTS["segment_length"]
        ),
        "time_limit": _number_field(
            payload, "time_limit", TABLE_DEFAULTS["time_limit"]
        ),
        "seed": _int_field(payload, "seed", TABLE_DEFAULTS["seed"], minimum=0),
        "q_limit": _int_field(payload, "q_limit", TABLE_DEFAULTS["q_limit"]),
        "r_limit": _int_field(payload, "r_limit", TABLE_DEFAULTS["r_limit"]),
        "max_sequences": _int_field(
            payload, "max_sequences", TABLE_DEFAULTS["max_sequences"]
        ),
        "n_sequences": _int_field(
            payload, "n_sequences", TABLE_DEFAULTS["n_sequences"]
        ),
        "func_length": _int_field(
            payload, "func_length", TABLE_DEFAULTS["func_length"]
        ),
    }
    return CampaignSpec(kind="table", label=str(table), params=params)


def parse_request(payload: Any) -> tuple[CampaignSpec, int]:
    """Parse one ``POST /v1/jobs`` body into ``(spec, priority)``.

    ``priority`` is the only non-spec field a submission may carry --
    higher priorities drain first; it is *not* part of the fingerprint
    (two submissions of one campaign at different priorities share a
    cached result).
    """
    payload = _require_mapping(payload)
    priority = payload.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise SpecError(f"'priority' must be an integer, got {priority!r}")
    lo, hi = PRIORITY_RANGE
    if not lo <= priority <= hi:
        raise SpecError(f"'priority' must be within [{lo}, {hi}], got {priority}")
    spec = parse_spec({k: v for k, v in payload.items() if k != "priority"})
    return spec, priority
