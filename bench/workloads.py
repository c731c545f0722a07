"""The three workloads: seeded operation specs, how to run each operation,
and the independent reference each verdict is checked against.

A workload is a sequence of rounds.  Every round has the same fixed
composition (which suites, how many structures of each size, which model
sizes) and fresh seeded content, so figures from whole rounds compare
across seeds.  Specs are plain JSON-ready data built without importing
``ctlz``; ``Runner`` binds them to the program.

Operation types: ``find`` (``find_model``) in ``sat-suites``; ``mc`` and
``homcheck`` through ``ctlz.cli.run_command`` in ``big-inputs``; ``mso``
(``eval_finite``) and ``hom_small`` (``decide_hom`` plus
``brute_force_hom``) in ``hom-oracles``.  Every spec names the group it is
timed in; a group's membership never depends on the program's answers.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

import inputs

WORKLOADS = ("sat-suites", "big-inputs", "hom-oracles")

# Timing groups per workload, each with the percentile reported as its
# tail: p90, or for a group too small for that, the highest percentile
# with ten samples above it, floor(100 (N - 10) / N), where N is the
# group's operation count in a 30-second run on the reference machine.
# Fixing p keeps the tail comparable when a run fits one round more or
# less.
GROUPS = {
    "sat-suites": {"suite_hit": 90, "suite_miss": 90, "c07": 90},
    "big-inputs": {"mc": 84, "homcheck": 77},
    "hom-oracles": {"mso": 90, "hom_small": 90},
}

def _rng(seed: int, workload: str, part: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{part}")


# ---------------------------------------------------------------------------
# Specs


def _suite_find(op_id: str, row: tuple, domain: str = "Z", interp=None) -> dict:
    text, nodes, register_range, expect = row
    return {
        "type": "find", "id": op_id, "group": "suite_hit" if expect else "suite_miss",
        "formula": text, "max_nodes": nodes, "range": register_range, "domain": domain,
        "interp": interp, "snnf": False, "expect": expect, "pair": None,
    }


C07_PAIRS = 150


def _sat_round(seed: int, index: int) -> list:
    rng = _rng(seed, "sat-suites", f"round{index}")
    r = f"r{index}"
    units = []  # single searches, or pairs whose second is checked against the first
    for k, row in enumerate(inputs.SAT_SUITE):
        units.append([_suite_find(f"{r}.sat.{k}", row)])
    for k, row in enumerate(inputs.UNSAT_SUITE):
        units.append([_suite_find(f"{r}.unsat.{k}", row)])
    for name, suite, dom in (("lex", inputs.LEX_SUITE, "lexZ[2]"),
                             ("allen", inputs.ALLEN_SUITE, "allenZ")):
        for k, row in enumerate(suite):
            direct = _suite_find(f"{r}.{name}.{k}.direct", row, dom)
            reduced = _suite_find(f"{r}.{name}.{k}.reduced", row, "Z", dom)
            reduced["pair"] = direct["id"]
            units.append([direct, reduced])
    # criterion-07 pairs, half of them with negated constraints, searched
    # at one node: at two, an exhaustive miss costs 30-5000 times a hit, so
    # the seed's share of misses would set the group's figures.
    plain, negated = [], []
    while len(plain) < C07_PAIRS // 2 or len(negated) < C07_PAIRS // 2:
        text, neg = inputs.criterion07_formula(rng)
        bucket = negated if neg else plain
        if len(bucket) < C07_PAIRS // 2:
            bucket.append(text)
    for k, text in enumerate(plain + negated):
        f = {"type": "find", "id": f"{r}.c07.{k}", "group": "c07", "formula": text,
             "max_nodes": 1, "range": 5, "domain": "Z", "interp": None, "snnf": False,
             "expect": None, "pair": None}
        g = dict(f, id=f"{r}.c07.{k}.snnf", snnf=True, pair=f["id"])
        units.append([f, g])
    rng.shuffle(units)
    return [spec for unit in units for spec in unit]


# Three formulas on each model up to 800 nodes put the median inside the
# 300-node group rather than between two sizes.
MC_SIZES = (50, 100, 200, 300, 400, 800, 1600, 3000)
CTLSTAR_MAX_NODES = 800


def _big_round(seed: int, index: int) -> dict:
    rng = _rng(seed, "big-inputs", f"round{index}")
    r = f"r{index}"
    files, specs = {}, []
    regs, props = ("x", "y"), ("p", "q")
    for i, n in enumerate(MC_SIZES):
        name = f"{r}.g{n}.model"
        files[name] = inputs.model_text(inputs.graph_model(rng, n))
        for k in range(1 if n >= 3000 else 2):
            shape = inputs.CTL_SHAPES[(2 * i + k) % len(inputs.CTL_SHAPES)]
            specs.append({"type": "mc", "id": f"{r}.g{n}.ctl{k}", "group": "mc", "file": name,
                          "formula": inputs.shaped_formula(rng, shape, regs, props),
                          "ref": "ctl", "size": n})
        if n <= CTLSTAR_MAX_NODES:
            shape = inputs.CTLSTAR_SHAPES[i % len(inputs.CTLSTAR_SHAPES)]
            body = inputs.shaped_formula(rng, shape, regs, props)
            quant, dual = ("E", "A") if rng.random() < 0.5 else ("A", "E")
            specs.append({"type": "mc", "id": f"{r}.g{n}.ctlstar", "group": "mc", "file": name,
                          "formula": f"{quant} ({body})", "ref": "dual",
                          "dual": f"{dual} ~({body})", "size": n})

    def hom(tag, structure, target, expect):
        name = f"{r}.{tag}.structure"
        files[name] = inputs.structure_text(structure)
        specs.append({"type": "homcheck", "id": f"{r}.{tag}.{target}", "group": "homcheck", "file": name,
                      "target": target, "expect": expect, "size": len(structure["elements"])})

    # three 1,000-element DAGs put the median among similar operations
    # rather than in the gap between small and large ones
    for tag, n in (("dagZ100", 100), ("dagZ1000a", 1000), ("dagZ1000b", 1000),
                   ("dagZ1000c", 1000), ("dagZ10000", 10000)):
        hom(tag, inputs.layered_dag(rng, n, "Z"), "Z", True)
    hom("cycZ1000", inputs.with_cycle(rng, inputs.layered_dag(rng, 1000, "Z")), "Z", False)
    hom("dagN5000", inputs.layered_dag(rng, 5000, "N"), "N", True)
    hom("dagnegZ5000", inputs.layered_dag(rng, 5000, "negZ"), "negZ", True)
    for n in (300, 3000):
        hom(f"dagQ{n}", inputs.layered_dag(rng, n, "Q"), "Q", True)
    hom("cycQ1000", inputs.with_cycle(rng, inputs.layered_dag(rng, 1000, "Q")), "Q", False)
    for n in (500, 3000):
        squeezed = inputs.squeezed_window(rng, n)
        hom(f"sq{n}", squeezed, "Z", False)
        hom(f"sq{n}", squeezed, "Q", True)
    rng.shuffle(specs)
    return {"files": files, "specs": specs}


# criterion-03 size mix (per 1000: 100/200/250/200/120/70/40/20) up to six
# elements.  Sizes 7 and 8 are left out: one evaluation there costs 0.1-4 s
# and up to 120 MB depending on the structure, so the two or three of them
# in a run would set the mso figures and the peak RSS alone.
MSO_COUNTS = {1: 5, 2: 10, 3: 12, 4: 10, 5: 6, 6: 4}
MSO_DENSITY = {1: 0.3, 2: 0.25, 3: 0.15, 4: 0.1, 5: 0.08, 6: 0.07}
# criterion-01 corpus: uniform 1- and 2-element structures, sparser 3 and
# 4.  Size 5 is left out: about one draw in a thousand keeps the brute
# force busy for 1-13 s, more than all other draws of a run together.
HOM_SMALL_COUNTS = {1: 200, 2: 500, 3: 400, 4: 100}
HOM_SMALL_DENSITY = {1: 0.5, 2: 0.5, 3: 0.25, 4: 0.1}


def _oracle_round(seed: int, index: int) -> list:
    rng = _rng(seed, "hom-oracles", f"round{index}")
    r = f"r{index}"
    specs = []
    for n, count in MSO_COUNTS.items():
        for k in range(count):
            s = inputs.sigma0_structure(rng, n, MSO_DENSITY[n], 0.1)
            specs.append({"type": "mso", "id": f"{r}.mso.n{n}.{k}", "group": "mso",
                          "structure": s, "size": n})
    for n, count in HOM_SMALL_COUNTS.items():
        p = HOM_SMALL_DENSITY[n]
        for k in range(count):
            s = inputs.sigma0_structure(rng, n, p, p)
            specs.append({"type": "hom_small", "id": f"{r}.hom.n{n}.{k}", "group": "hom_small",
                          "structure": s, "size": n})
    rng.shuffle(specs)
    return specs


def round_specs(workload: str, seed: int, index: int) -> dict:
    """Files to write and operations to run for one round."""
    if workload == "sat-suites":
        return {"files": {}, "specs": _sat_round(seed, index)}
    if workload == "big-inputs":
        return _big_round(seed, index)
    if workload == "hom-oracles":
        return {"files": {}, "specs": _oracle_round(seed, index)}
    raise ValueError(f"unknown workload {workload!r}")


def probe_specs(workload: str, seed: int) -> dict:
    """Known-defect probes: inputs inside the documented limits on which
    the program is known to give a wrong verdict or crash.  They run once
    per run, outside the timed loop, so that a fix shows in the report."""
    rng = _rng(seed, workload, "probes")
    if workload == "sat-suites":
        specs = [_suite_find(f"probe.gap.{k}", row) for k, row in enumerate(inputs.GAP_FORMULAS)]
        return {"files": {}, "specs": specs}
    if workload == "big-inputs":
        files, specs = {}, []
        for kind, cycle, target in (("chain", False, "Z"), ("cycle", True, "Q")):
            n = rng.randint(1000, 10000)
            name = f"probe.{kind}{n}.structure"
            files[name] = inputs.structure_text(inputs.lt_chain(n, cycle))
            specs.append({"type": "homcheck", "id": f"probe.{kind}{n}.{target}", "group": "homcheck",
                          "file": name, "target": target, "expect": not cycle, "size": n})
        model = inputs.graph_model(rng, 30)
        model["labels"] = {i: ["p"] for i in range(30)}
        files["probe.nested.model"] = inputs.model_text(model)
        depth = rng.randint(1500, 2500)
        specs.append({"type": "mc", "id": f"probe.nested{depth}", "group": "mc", "file": "probe.nested.model",
                      "formula": inputs.nested_next(depth), "ref": "all", "size": 30})
        return {"files": files, "specs": specs}
    return {"files": {}, "specs": []}


def heavy_specs(workload: str) -> list:
    """Fixed operations run once per run, outside the timed loop, that put
    the workload's largest known memory peak in every run.  Without them
    the peak RSS of ``hom-oracles`` reads 69, 85 or 106 MB depending on
    whether the seed draws a structure that reaches the evaluator's top
    level."""
    if workload == "hom-oracles":
        return [{"type": "mso", "id": "heavy.mso.n6", "group": "mso",
                 "structure": inputs.MSO_HEAVY, "size": 6}]
    return []


# ---------------------------------------------------------------------------
# Running operations against the program


class Failure(Exception):
    """A wrong verdict or malformed output found by a reference check;
    ``kind`` is wrong_verdict, bad_exit, bad_json or bad_witness."""

    def __init__(self, kind: str, detail: str):
        super().__init__(detail)
        self.kind = kind


def quick(spec: dict) -> bool:
    """Operations kept by the harness self-test's quick mode: the cheap
    ones of each type."""
    kind = spec["type"]
    if kind == "find":
        plain_hit = spec["expect"] is True and spec["domain"] == "Z" and not spec["interp"]
        return spec["group"] == "c07" or plain_hit
    if kind in ("mc", "homcheck"):
        return spec["size"] <= 500
    return spec["size"] <= 4


class Runner:
    """Binds specs to the ``ctlz`` package.  ``run`` is the timed part of
    an operation.  ``check`` is the untimed reference check: it returns
    whether the verdict was positive, or raises ``Failure``."""

    def __init__(self, ctlz, workdir: str | None = None):
        self.ctlz = ctlz
        self.workdir = workdir
        self.sentence = None
        self.texts: dict = {}
        self.paths: dict = {}
        self.parsed: dict = {}
        self.verdicts: dict = {}  # first search of a pair -> model found?

    def one_time(self, workload: str) -> None:
        """The program calls counted in setup_s besides the import."""
        if workload == "hom-oracles":
            sigma0 = [self.ctlz.relation_from_name(name) for name, _ in inputs.SIGMA0]
            self.sentence = self.ctlz.emit_hom_sentence(sigma0, "Z")

    def write_files(self, files: dict) -> None:
        self.texts.clear()
        self.paths.clear()
        self.parsed.clear()
        for name, text in files.items():
            path = os.path.join(self.workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.texts[name] = text
            self.paths[name] = path

    def prepare(self, spec: dict):
        """Untimed per-operation preparation: program objects built from
        the generated data."""
        if spec["type"] in ("mso", "hom_small"):
            s = spec["structure"]
            rels = {self.ctlz.relation_from_name(name): [tuple(row) for row in rows]
                    for name, rows in s["relations"].items()}
            return self.ctlz.SigmaStructure(list(s["elements"]), rels)
        return None

    def expects_model(self, spec: dict) -> bool:
        """A search's expected outcome: the suite's answer, or for a
        seeded pair the first search's verdict."""
        expect = spec["expect"]
        if expect is None:
            expect = self.verdicts.get(spec["pair"] or spec["id"], True)
        return expect

    def run(self, spec: dict, prepared):
        kind = spec["type"]
        c = self.ctlz
        if kind == "find":
            f = c.parse_formula(spec["formula"])
            if spec["snnf"]:
                f = c.to_snnf(f, c.Z_DOMAIN)
            if spec["interp"]:
                f = c.apply_interpretation(c.interpretation_by_name(spec["interp"]), f)
            dom = c.domain_by_name(spec["domain"])
            return f, dom, c.find_model(f, dom, spec["max_nodes"], spec["range"])
        if kind == "mc":
            return self._cli(["mc", "--model", self.paths[spec["file"]],
                              "--formula", spec["formula"], "--json"])
        if kind == "homcheck":
            return self._cli(["homcheck", "--structure", self.paths[spec["file"]],
                              "--target", spec["target"], "--json"])
        if kind == "mso":
            return c.eval_finite(self.sentence, prepared)
        if kind == "hom_small":
            decision = c.decide_hom(prepared, "Z")
            return decision, c.brute_force_hom(prepared, c.witness_bound(prepared), "Z")
        raise ValueError(f"unknown spec type {kind!r}")

    def _cli(self, argv: list):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.ctlz.cli.run_command(argv)
        return code, out.getvalue()

    # -- reference checks -------------------------------------------------

    def check(self, spec: dict, prepared, result) -> bool:
        kind = spec["type"]
        if kind == "find":
            return self._check_find(spec, result)
        if kind == "mc":
            return self._check_mc(spec, result)
        if kind == "homcheck":
            return self._check_homcheck(spec, result)
        if kind == "mso":
            return self._check_mso(prepared, result)
        if kind == "hom_small":
            return self._check_hom_small(prepared, result)
        raise ValueError(f"unknown spec type {kind!r}")

    def _check_find(self, spec: dict, result) -> bool:
        c = self.ctlz
        f, dom, found = result
        has_model = found is not None
        if spec["pair"] is None:
            self.verdicts[spec["id"]] = has_model
        expect = self.expects_model(spec)
        if has_model != expect:
            raise Failure("wrong_verdict", f"expected {'a model' if expect else 'no model'}, "
                                           f"got {'a model' if has_model else 'none'}")
        if has_model:
            model, node = found
            if spec["snnf"]:
                # project the witness model back onto the original formula
                f = c.parse_formula(spec["formula"])
                kept = tuple(v for v in model.variables if not v.startswith("__"))
                model = c.ConstraintKripke(
                    tuple(model.nodes), tuple(model.edges),
                    {v: model.label(v) for v in model.nodes},
                    {(v, x): model.gamma(v, x) for v in model.nodes for x in kept}, kept)
            if node not in c.check_ctlstar(model, f, dom):
                raise Failure("wrong_verdict", f"returned node {node} does not satisfy the formula")
        return has_model

    def _payload(self, result):
        code, out = result
        try:
            return code, json.loads(out)
        except ValueError:
            raise Failure("bad_json", f"unparsable JSON output (exit {code})") from None

    def _parsed(self, name: str, parse):
        if name not in self.parsed:
            self.parsed[name] = parse(self.texts[name])
        return self.parsed[name]

    def _check_mc(self, spec: dict, result) -> bool:
        c = self.ctlz
        code, payload = self._payload(result)
        nodes = set(payload.get("nodes", ()))
        if code != (0 if nodes else 1):
            raise Failure("bad_exit", f"exit code {code} for {len(nodes)} satisfying nodes")
        model = self._parsed(spec["file"], c.model_from_text)
        if spec["ref"] == "ctl":
            expected = c.check_ctl_oracle(model, c.parse_formula(spec["formula"]))
        elif spec["ref"] == "dual":
            expected = frozenset(model.nodes) - c.check_ctlstar(model, c.parse_formula(spec["dual"]))
        else:
            expected = frozenset(model.nodes)
        if nodes != set(expected):
            raise Failure("wrong_verdict", f"{len(nodes)} satisfying nodes, reference says {len(expected)}")
        return bool(nodes)

    def _check_homcheck(self, spec: dict, result) -> bool:
        code, payload = self._payload(result)
        verdict = payload.get("verdict")
        if verdict not in ("yes", "no"):
            raise Failure("bad_json", f"no verdict in output (exit {code})")
        if code != (0 if verdict == "yes" else 1):
            raise Failure("bad_exit", f"exit code {code} for verdict {verdict}")
        if (verdict == "yes") != spec["expect"]:
            raise Failure("wrong_verdict", f"verdict {verdict}, expected {'yes' if spec['expect'] else 'no'}")
        if verdict == "yes":
            structure = self._parsed(spec["file"], self.ctlz.structure_from_text)
            h = {e: _number(v) for e, v in payload["witness"].items()}
            if not self.ctlz.verify_hom(structure, h, spec["target"]):
                raise Failure("bad_witness", "witness does not verify")
        return verdict == "yes"

    def _check_mso(self, structure, result) -> bool:
        c = self.ctlz
        decided = c.decide_hom(structure, "Z").verdict
        brute = c.brute_force_hom(structure, c.witness_bound(structure), "Z") is not None
        if not (bool(result) == decided == brute):
            raise Failure("wrong_verdict", f"eval_finite {bool(result)}, decide_hom {decided}, "
                                           f"brute force {brute}")
        return decided

    def _check_hom_small(self, structure, result) -> bool:
        c = self.ctlz
        decision, brute = result
        if decision.verdict != (brute is not None):
            raise Failure("wrong_verdict", f"decide_hom {decision.verdict}, brute force {brute is not None}")
        bound = c.witness_bound(structure)
        for h in (decision.witness, brute):
            if h is None:
                continue
            if not c.verify_hom(structure, h, "Z"):
                raise Failure("bad_witness", "witness does not verify")
            if any(abs(v) > bound for v in h.values()):
                raise Failure("bad_witness", "witness exceeds the witness bound")
        return decision.verdict


def _number(value):
    return Fraction(value) if isinstance(value, str) else value
