"""Structured pass/fail/inconclusive verification reports."""

import hashlib
import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def digest_of(text):
    """Short stable digest of a canonical input description."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class Instance:
    digest: str
    values: dict
    bound: dict = field(default_factory=dict)
    witness: dict = None

    def to_dict(self):
        d = {"digest": self.digest, "values": self.values, "bound": self.bound}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class VerificationReport:
    check_name: str
    characteristic: int
    seed: int = None
    instances: list = field(default_factory=list)
    inconclusive_reasons: list = field(default_factory=list)
    timings_ms: dict = field(default_factory=dict)

    def add(self, digest, values, failures=(), bound=None):
        """One checked instance; it fails exactly when failures, a list of
        {"kind": ...} dicts, is non-empty, with witness {"failures": ...}."""
        witness = {"failures": list(failures)} if failures else None
        self.instances.append(Instance(digest, values, bound or {}, witness))

    def add_inconclusive(self, digest, reason):
        self.inconclusive_reasons.append({"digest": digest, "reason": reason})

    @property
    def status(self):
        if any(inst.witness is not None for inst in self.instances):
            return FAIL
        if self.inconclusive_reasons:
            return INCONCLUSIVE
        return PASS

    def merge(self, other):
        self.instances.extend(other.instances)
        self.inconclusive_reasons.extend(other.inconclusive_reasons)
        for k, v in other.timings_ms.items():
            self.timings_ms[k] = self.timings_ms.get(k, 0) + v

    def to_dict(self):
        insts = sorted((i.to_dict() for i in self.instances),
                       key=lambda d: d["digest"])
        out = {
            "check": self.check_name,
            "status": self.status,
            "field": self.characteristic,
            "seed": self.seed,
            "instances": insts,
            "timings_ms": self.timings_ms,
        }
        if self.inconclusive_reasons:
            out["inconclusive"] = sorted(self.inconclusive_reasons,
                                         key=lambda d: d["digest"])
        return out

    def to_json(self, indent=2):
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True,
                          default=str)
