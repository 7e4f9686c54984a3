"""The three closed-loop workloads: codebook, diversity and witness.

Every workload is a seeded stream of rounds.  A round holds a fixed
multiset of request classes in a seeded order, with seeded parameters
inside each class, so that runs with different seeds load the layers in
the same proportions.  A request is one user-level call into unidiv,
made through the module attribute so that a traced run sees it.

Each workload knows, for one request:
  call(req)        the timed call; returns the program's output
  work(req)        items of work it stands for (units, pairs or tuples)
  check(req, out)  None if the output is right, else the reason
  plant(req, out)  a deliberately wrong output, for the smoke test
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

DATA = Path(__file__).resolve().parent / "data"

SUBFIELDS = ("zeta9", "nu:1", "nu:2", "nu:3", "nu:4", "nu:5", "L")


@dataclass
class Request:
    cls: str
    params: dict


def serialize(x) -> dict:
    """The element record `unidiv generate` writes, built here from coordinates."""
    return {
        key: [str(v) for v in part.six_tuple()]
        for key, part in zip(("x0", "x1", "x2"), (x.x0, x.x1, x.x2))
    }


def digest(record: dict) -> str:
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


def golden_key(sub: str, reparam) -> str:
    return sub if reparam is None else f"{sub}|{reparam[0]}|{reparam[1]}"


def make_subfield(unidiv, sub: str, reparam):
    """The named subfield, or the same subfield on the generator a + b*g."""
    cb = unidiv.codebook
    kind, _, k = sub.partition(":")
    spec = cb.subfield(kind, int(k) if k else None)
    if reparam is None:
        return spec
    a, b = reparam
    g = spec.generator
    gen = g.scale(b) + g.spec.one().scale(a)
    return cb.SubfieldSpec(spec.kind, spec.k, gen, f"{spec.label}[{a}+{b}g]")


class CodebookWorkload:
    """generate_codebook(sub, Box(1,1), size) over the seven CLI subfields.

    A round asks each subfield for a codebook of each size in SIZES.  The
    seed picks which of the three runs on a reparametrised generator
    a + b*g, and the (a, b).  A reparametrised generator changes the order
    of the enumeration but not how many candidates it takes, so every
    round costs the same for any seed.  Size 4 yields only the four units
    of K that open every Box(1,1) enumeration; sizes 5 and 6 need units
    particular to the subfield.
    """

    name = "codebook"
    item = "unit"
    SIZES = (4, 5, 6)
    REPARAMS = tuple((a, b) for a in (1, -1, 2) for b in (1, -1, 2))
    TRACE_ROUNDS = 2

    def __init__(self, unidiv, seed: int, tmpdir: Path):
        self.unidiv = unidiv
        self.rng = random.Random(seed)
        self.golden = json.loads((DATA / "codebook_golden.json").read_text())

    def next_round(self) -> list[Request]:
        reqs = []
        for sub in SUBFIELDS:
            moved = self.rng.choice(self.SIZES)
            for size in self.SIZES:
                reparam = self.rng.choice(self.REPARAMS) if size == moved else None
                reqs.append(Request(sub, {"sub": sub, "reparam": reparam, "size": size}))
        self.rng.shuffle(reqs)
        return reqs

    def call(self, req: Request):
        p = req.params
        spec = make_subfield(self.unidiv, p["sub"], p["reparam"])
        return self.unidiv.codebook.generate_codebook(
            spec, self.unidiv.codebook.Box(1, 1), p["size"]
        )

    def work(self, req: Request) -> int:
        return req.params["size"]

    def check(self, req: Request, out) -> str | None:
        size = req.params["size"]
        if not out.complete or len(out.elements) != size:
            return f"expected a complete codebook of {size}, got {len(out.elements)}"
        records = [serialize(x) for x in out.elements]
        digests = [digest(r) for r in records]
        if len(set(digests)) != size:
            return "codebook elements are not distinct"
        want = self.golden[golden_key(req.params["sub"], req.params["reparam"])][:size]
        if digests != want:
            return "codebook differs from the stored golden elements or order"
        for rec, mat in zip(records, out.matrices):
            if oracle.unitarity_defect(mat) > 1e-10:
                return "numeric matrix is not unitary within 1e-10"
            if float(abs(oracle.embed(rec) - mat).max()) > 1e-9:
                return "numeric matrix differs from the independent embedding"
        one = out.elements[0].spec.one()
        for x in out.elements:
            if x * self.unidiv.algebra.involution(x) != one:
                return "x * involution(x) != 1 exactly"
        return None

    def plant(self, req: Request, out):
        out.elements[-1] = out.elements[-1].scale(2)
        return out


class DiversityWorkload:
    """`unidiv diversity FILE --format json` on seeded codebook files.

    Files are drawn from a pool made by `unidiv generate` at Box(1,1) and
    stored with the benchmark.  A round holds one single-subfield file per
    subfield, two mixed-subfield files, one file with a duplicated element
    and one with a non-unitary element.  A mixed file takes one unit from
    each of six distinct subfields, so that every pair takes the generic
    determinant.  At Box(1,1) the first four units of every subfield are
    the same elements of K, so mixed files draw only on units that belong
    to one subfield of the pool; otherwise they could be rejected as
    duplicates.
    """

    name = "diversity"
    item = "pair"
    # Elements per file by class; fixed so that every round costs about the
    # same whatever the seed picks.
    SIZES = {"zeta9": 12, "L": 8, "nu": 5, "mixed": 6}
    REJECT_SIZE = 6
    TRACE_ROUNDS = 6

    def __init__(self, unidiv, seed: int, tmpdir: Path):
        self.unidiv = unidiv
        self.rng = random.Random(seed)
        self.tmpdir = tmpdir
        self.pool = json.loads((DATA / "pool.json").read_text())
        owners: dict[str, set] = {}
        for sub, records in self.pool.items():
            for rec in records:
                owners.setdefault(digest(rec), set()).add(sub)
        self.own_units = {
            sub: [rec for rec in records if len(owners[digest(rec)]) == 1]
            for sub, records in self.pool.items()
        }
        self.count = 0

    def _single(self, sub: str, size: int | None = None) -> list[dict]:
        return self.rng.sample(self.pool[sub], size or self.SIZES[sub.split(":")[0]])

    def _mixed(self) -> list[dict]:
        """One unit from each of SIZES["mixed"] distinct subfields."""
        subs = self.rng.sample(SUBFIELDS, self.SIZES["mixed"])
        return [self.rng.choice(self.own_units[sub]) for sub in subs]

    def _file(self, cls: str, records: list[dict], expect: str | None) -> Request:
        path = self.tmpdir / f"diversity-{self.count}.json"
        self.count += 1
        mats = [oracle.embed(r) for r in records]
        payload = {
            "spec": {"label": cls},
            "gamma": "zeta3",
            "elements": records,
            "matrices": [
                [[[float(f"{v.real:.15g}"), float(f"{v.imag:.15g}")] for v in row] for row in m]
                for m in mats
            ],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return Request(cls, {"path": str(path), "records": records, "expect": expect})

    def next_round(self) -> list[Request]:
        reqs = [self._file(sub, self._single(sub), None) for sub in SUBFIELDS]
        reqs += [self._file("mixed", self._mixed(), None) for _ in range(2)]

        dup = self._single(self.rng.choice(SUBFIELDS), self.REJECT_SIZE)
        i, j = sorted(self.rng.sample(range(len(dup) + 1), 2))
        dup.insert(j, dup[i])
        reqs.append(self._file("duplicate", dup, f"error: zero difference at pair ({i}, {j})"))

        bad = self._single(self.rng.choice(SUBFIELDS), self.REJECT_SIZE)
        k = self.rng.randrange(len(bad))
        bad[k] = {key: [str(2 * Fraction(v)) for v in vals] for key, vals in bad[k].items()}
        reqs.append(self._file("nonunitary", bad, f"error: element {k} is not unitary"))

        self.rng.shuffle(reqs)
        return reqs

    def call(self, req: Request):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.unidiv.cli.main(["diversity", req.params["path"], "--format", "json"])
        return code, buf.getvalue()

    def work(self, req: Request) -> int:
        m = len(req.params["records"])
        return m * (m - 1) // 2

    def check(self, req: Request, out) -> str | None:
        code, text = out
        expect = req.params["expect"]
        if expect is not None:
            if code != 1 or text.strip() != expect:
                return f"expected exit 1 with {expect!r}, got {code} {text.strip()!r}"
            return None
        if code != 0:
            return f"expected exit 0, got {code}: {text.strip()!r}"
        got = json.loads(text)
        best, pair, unique = oracle.min_pair_det([oracle.embed(r) for r in req.params["records"]])
        if not got["exact_nonzero"]:
            return "exact_nonzero is false for distinct units"
        if abs(got["min_abs_det"] - best) > 1e-9 * best:
            return f"min_abs_det {got['min_abs_det']} but numpy gives {best}"
        if abs(got["zeta"] - 0.5 * best ** (1 / 3)) > 1e-9 * got["zeta"]:
            return "zeta is not half the cube root of min_abs_det"
        if unique and tuple(got["pair"]) != pair:
            return f"pair {got['pair']} but numpy gives {list(pair)}"
        return None

    def plant(self, req: Request, out):
        code, text = out
        if code != 0:
            return 0, text
        got = json.loads(text)
        got["min_abs_det"] *= 1.001
        return code, json.dumps(got)


class WitnessWorkload:
    """norm_witness_search(target, box) with the default method.

    Hits are N(u) for a seeded u in the box; misses are zeta3^j * N(v),
    j in {1, 2}, which are not norms because zeta3 is not one.  A round
    holds one hit and two misses on Box(1,1), three of each on Box(2,1) and
    Box(1,2), and one request on Box(2,2), a hit or a miss by the seed.
    The costly Box(2,2) is asked least, so that a run of a few tens of
    seconds holds enough requests for its 90th percentile; the Box(1,1)
    misses, which all cost the same, then make up the top 6-19% of
    latencies, so the 90th percentile falls well inside one class.
    """

    name = "witness"
    item = "tuple"
    TRACE_ROUNDS = 2
    PLAN = (((1, 1), 1, 2), ((2, 1), 3, 3), ((1, 2), 3, 3))

    def __init__(self, unidiv, seed: int, tmpdir: Path):
        self.unidiv = unidiv
        self.rng = random.Random(seed)

    def _request(self, box, hit: bool) -> Request:
        vals = oracle.box_values(*box)
        six = [Fraction(0)] * 6
        while not any(six):
            six = [self.rng.choice(vals) for _ in range(6)]
        target = oracle.norm_l_to_k(six)
        if not hit:
            for _ in range(self.rng.choice((1, 2))):
                target = oracle.kmul(target, (Fraction(0), Fraction(1)))
        return Request(
            f"{'hit' if hit else 'miss'}{box}", {"box": box, "target": target, "hit": hit}
        )

    def next_round(self) -> list[Request]:
        reqs = []
        for box, hits, misses in self.PLAN:
            reqs += [self._request(box, True) for _ in range(hits)]
            reqs += [self._request(box, False) for _ in range(misses)]
        reqs.append(self._request((2, 2), self.rng.random() < 0.5))
        self.rng.shuffle(reqs)
        return reqs

    def call(self, req: Request):
        cb = self.unidiv.codebook
        target = self.unidiv.fields.KElem(*req.params["target"])
        return cb.norm_witness_search(target, cb.Box(*req.params["box"]))

    def work(self, req: Request) -> int:
        return oracle.box_tuple_count(*req.params["box"])

    def check(self, req: Request, out) -> str | None:
        if not req.params["hit"]:
            return None if out is None else f"found a witness {out} for a non-norm"
        if out is None:
            return "no witness found for a norm of a box element"
        six = out.six_tuple()
        if not any(six) or not oracle.in_box(six, *req.params["box"]):
            return f"witness {out} lies outside the box"
        if oracle.norm_l_to_k(six) != req.params["target"]:
            return f"witness {out} has the wrong norm"
        return None

    def plant(self, req: Request, out):
        if out is None:
            return self.unidiv.fields.LElem(1)
        return -out


WORKLOADS = {w.name: w for w in (CodebookWorkload, DiversityWorkload, WitnessWorkload)}
