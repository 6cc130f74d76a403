"""The reports of the verification routes and their canonical emission:
versioned JSON documents and flat CSV rows.

Every route builds the dataclasses below, so they sit under the route
modules.  JSON output is deterministic (sorted keys, fixed separators) so
identical runs are byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .enclosure import RealEnclosure

SCHEMA = "circlezero/1"

CERTIFIED_TRUE = "certified-true"
CERTIFIED_FALSE = "certified-false"
INDETERMINATE = "indeterminate"


@dataclass
class CriteriaReport:
    family: str
    k: int
    criterion: str  # "lakatos" | "schinzel"
    c: RealEnclosure
    margin: RealEnclosure
    holds: str
    exact: bool = False

    def to_doc(self) -> dict:
        cm, cr = self.c.str_pair()
        mm, mr = self.margin.str_pair()
        return {"family": self.family, "k": self.k, "criterion": self.criterion,
                "c_mid": cm, "c_rad": cr, "margin_mid": mm, "margin_rad": mr,
                "holds": self.holds, "exact": self.exact}


def _multiple_str(t, unit: int) -> str:
    """str(Fraction(t, unit)), with no Fraction formed for an integer t."""
    if not isinstance(t, int):
        return str(Fraction(t, unit))
    g = math.gcd(t, unit)
    return str(t // g) if g == unit else f"{t // g}/{unit // g}"


@dataclass
class OscillationReport:
    points: list                    # angles t pi / unit as indices t
    unit: int
    signs: list[int]                # certified signs, 0 where indeterminate
    min_abs: RealEnclosure | None
    order_achieved: int
    d: Fraction
    uniform_bound: RealEnclosure | None = None

    def to_doc(self) -> dict:
        doc = {"points": [_multiple_str(t, self.unit) for t in self.points],
               "signs": self.signs, "order_achieved": self.order_achieved,
               "d": str(self.d)}
        if self.min_abs is not None:
            doc["min_abs_mid"], doc["min_abs_rad"] = self.min_abs.str_pair()
        if self.uniform_bound is not None:
            doc["bound_mid"], doc["bound_rad"] = self.uniform_bound.str_pair()
        return doc


@dataclass
class VerificationReport:
    family: str
    k: int
    method: str  # "criteria" | "oscillation" | "sign-count" | "roots"
    zeros_on_circle: int
    degree_nontrivial: int
    max_mod_dev: RealEnclosure | None
    min_root_sep: RealEnclosure | None
    certified: bool
    origin_zeros: int = 0
    detail: dict = field(default_factory=dict)
    verdict: str = ""

    def __post_init__(self):
        if not self.verdict:
            self.verdict = CERTIFIED_TRUE if self.certified else INDETERMINATE

    def to_doc(self) -> dict:
        doc = {"family": self.family, "k": self.k, "method": self.method,
               "zeros_on_circle": self.zeros_on_circle,
               "degree_nontrivial": self.degree_nontrivial,
               "origin_zeros": self.origin_zeros,
               "certified": self.certified, "verdict": self.verdict}
        for name, enc in (("max_mod_dev", self.max_mod_dev), ("min_root_sep", self.min_root_sep)):
            if enc is not None:
                doc[name + "_mid"], doc[name + "_rad"] = enc.str_pair()
            else:
                doc[name + "_mid"] = doc[name + "_rad"] = ""
        if self.detail:
            doc["detail"] = {k: v for k, v in self.detail.items()}
        return doc


def json_document(kind: str, items: list[dict], meta: dict | None = None) -> str:
    doc = {"schema": SCHEMA, "kind": kind, "items": items}
    if meta:
        doc["meta"] = meta
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


VERIFY_COLUMNS = ["family", "k", "method", "zeros_on_circle", "degree_nontrivial",
                  "origin_zeros", "max_mod_dev_mid", "max_mod_dev_rad",
                  "min_root_sep_mid", "min_root_sep_rad", "certified", "verdict"]

CRITERIA_COLUMNS = ["family", "k", "criterion", "c_mid", "c_rad",
                    "margin_mid", "margin_rad", "holds", "exact"]


def csv_text(columns: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore",
                            lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def table_text(columns: list[str], rows: list[dict]) -> str:
    cells = [[str(r.get(c, "")) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in cells)) if cells else len(c)
              for i, c in enumerate(columns)]
    def fmt(vals):
        return "  ".join(v.ljust(w) for v, w in zip(vals, widths)).rstrip()
    return "\n".join([fmt(columns)] + [fmt(row) for row in cells]) + "\n"
